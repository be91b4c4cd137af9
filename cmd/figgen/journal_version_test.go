package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCheckpointJournalsCarryEngineVersion runs a real (VCS-stamped)
// figgen binary: the figure and the scenario checkpoint headers both
// record the engine version, so -checkpoint-inspect shows it and a
// resume can note version drift.
func TestCheckpointJournalsCarryEngineVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a real figgen binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "figgen")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building figgen: %v\n%s", err, out)
	}
	figgen := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("figgen %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	engine := regexp.MustCompile(`(?m)^engine: +(\S+)$`)

	figJournal := filepath.Join(dir, "fig5.journal")
	figgen("-fig", "5", "-drops", "2", "-schemes", "random,scan", "-progress=false",
		"-manifest=false", "-out", filepath.Join(dir, "fig5.csv"), "-checkpoint", figJournal)
	figEngine := engine.FindStringSubmatch(figgen("-checkpoint-inspect", figJournal))
	if figEngine == nil {
		t.Skip("binary carries no VCS stamp (not built from a git checkout)")
	}

	scenJournal := filepath.Join(dir, "scenario.journal")
	args := append(tinyScenarioArgs(dir), "-manifest=false", "-checkpoint", scenJournal)
	figgen(args...)
	inspect := figgen("-checkpoint-inspect", scenJournal)
	scenEngine := engine.FindStringSubmatch(inspect)
	if scenEngine == nil {
		t.Fatalf("scenario journal header has no engine version:\n%s", inspect)
	}
	if scenEngine[1] != figEngine[1] {
		t.Errorf("scenario journal engine %q, figure journal engine %q", scenEngine[1], figEngine[1])
	}

	out := figgen(append(args, "-resume")...)
	if !strings.Contains(out, "resuming scenario from") || strings.Contains(out, "note:") {
		t.Errorf("same-engine resume should resume without a drift note:\n%s", out)
	}
}
