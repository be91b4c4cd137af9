package experiment

// Observability-layer tests at the engine seam: instrumentation must be
// numerics-neutral (byte-identical CSV with the recorder installed or
// absent, at any worker count), the run manifest must validate and
// carry real phase/solver data, and progress events must tally with the
// failure report. The CI race step on this package runs these at
// Workers>1 with -race, which is the concurrency proof.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"mmwalign/internal/metrics"
	"mmwalign/internal/obs"
)

// csvBytes renders a figure the way cmd/figgen persists it.
func csvBytes(t *testing.T, fig Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteCSV(&buf, fig.XLabel, fig.Series); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

func TestInstrumentationIsNumericsNeutral(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.Workers = 8

	plain, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("uninstrumented run: %v", err)
	}

	rec := obs.New()
	var mu sync.Mutex
	var events []obs.Progress
	rec.SetProgress(func(p obs.Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	})
	instr, err := SearchEffectivenessContext(obs.Into(context.Background(), rec), cfg)
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}

	if !bytes.Equal(csvBytes(t, plain), csvBytes(t, instr)) {
		t.Error("CSV differs between instrumented and uninstrumented runs")
	}

	mu.Lock()
	got := len(events)
	mu.Unlock()
	want := cfg.Drops * len(cfg.Schemes)
	if got != want {
		t.Errorf("progress events = %d, want %d (drops × schemes)", got, want)
	}
}

func TestManifestCarriesRunEvidence(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.Workers = 4

	rec := obs.New()
	fig, err := SearchEffectivenessContext(obs.Into(context.Background(), rec), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m := fig.Manifest
	if m == nil {
		t.Fatal("figure has no manifest")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if !m.Instrumented {
		t.Error("manifest not marked instrumented")
	}
	if m.Figure != fig.ID || m.Seed != cfg.Seed {
		t.Errorf("manifest identity = (%s, %d), want (%s, %d)", m.Figure, m.Seed, fig.ID, cfg.Seed)
	}
	if len(m.Config) == 0 {
		t.Error("manifest carries no config")
	}
	phases := make(map[string]obs.PhaseStat, len(m.Phases))
	for _, p := range m.Phases {
		phases[p.Name] = p
	}
	for _, name := range []string{"channel", "sounding", "oracle", "estimation", "selection"} {
		if phases[name].Count == 0 {
			t.Errorf("phase %q recorded no spans (phases: %+v)", name, m.Phases)
		}
	}
	if m.Solver.Estimations == 0 || m.Solver.Iters == 0 {
		t.Errorf("solver aggregate empty: %+v", m.Solver)
	}
	if m.Counters["measurements"] == 0 || m.Counters["alignment_runs"] == 0 {
		t.Errorf("counters empty: %+v", m.Counters)
	}
	if m.Failures != nil {
		t.Errorf("clean run reported failures: %+v", m.Failures)
	}
}

func TestManifestWithoutRecorderIsStillValid(t *testing.T) {
	fig, err := SearchEffectivenessContext(context.Background(), tinyConfig(false))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	m := fig.Manifest
	if m == nil {
		t.Fatal("uninstrumented figure has no manifest")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if m.Instrumented || len(m.Phases) != 0 {
		t.Errorf("uninstrumented manifest carries instrumentation: %+v", m)
	}
}

func TestManifestSummarizesInjectedFailures(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.WrapSounder = panicOnDrop(1)
	cfg.MaxFailedDrops = 1

	rec := obs.New()
	fig, err := SearchEffectivenessContext(obs.Into(context.Background(), rec), cfg)
	if err != nil {
		t.Fatalf("budgeted failure must not fail the figure: %v", err)
	}
	m := fig.Manifest
	if m == nil || m.Failures == nil {
		t.Fatal("manifest lacks the failure summary")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if m.Failures.FailedDrops != 1 || m.Failures.TotalDrops != cfg.Drops {
		t.Errorf("failure summary = %+v, want 1 of %d", m.Failures, cfg.Drops)
	}
	for _, c := range m.Failures.Cells {
		if c.Drop != 1 || c.Scheme == "" || c.Error == "" {
			t.Errorf("malformed failure cell %+v", c)
		}
	}
}

func TestCostEfficiencyAttachesManifest(t *testing.T) {
	rec := obs.New()
	fig, err := CostEfficiencyContext(obs.Into(context.Background(), rec), tinyConfig(false))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if fig.Manifest == nil {
		t.Fatal("cost-efficiency figure has no manifest")
	}
	if err := fig.Manifest.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if fig.Manifest.Figure != fig.ID {
		t.Errorf("manifest figure = %s, want %s", fig.Manifest.Figure, fig.ID)
	}
}
