package mmwalign

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"mmwalign/internal/benchsuite"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/bench_golden.json from this tree")

const goldenPath = "testdata/bench_golden.json"

// raceEnabled is set under -race (race_test.go), whose instrumentation
// changes allocation counts; counters and metric bits still hold.
var raceEnabled bool

// allocBand is the relative band a scheduling-dependent allocation
// count may move within before the row fails. It is two-sided, so a
// change that allocates less re-records the file too and the recorded
// count never goes stale.
const allocBand = 0.10

// goldenRow is one workload's line in the golden file: its sample and
// the allocations of one operation, from testing.AllocsPerRun.
type goldenRow struct {
	benchsuite.Sample
	Allocs float64 `json:"allocs"`
}

// goldenWorkloads lists the rows. A kernel row's allocation count does
// not depend on scheduling and is pinned exactly, and the row is cheap
// enough to run under -short; the other rows (goroutine fan-out, HTTP)
// hold their count within allocBand.
var goldenWorkloads = []struct {
	name   string
	kernel bool
	op     func() benchsuite.Op
}{
	{"estimate", true, benchsuite.EstimateOp},
	{"eigen", true, benchsuite.EigenOp},
	{"gemm", true, benchsuite.GEMMOp},
	{"codebook", true, benchsuite.CodebookOp},
	{"fig5", false, figureOp(5)},
	{"fig6", false, figureOp(6)},
	{"fig7", false, figureOp(7)},
	{"fig8", false, figureOp(8)},
	{"multicell", false, func() benchsuite.Op { return benchsuite.FigureOp(5, benchsuite.MulticellConfig()) }},
	{"scenario", false, benchsuite.ScenarioOp},
	{"serve", false, benchsuite.ServeOp},
}

func figureOp(figure int) func() benchsuite.Op {
	return func() benchsuite.Op { return benchsuite.FigureOp(figure, benchsuite.FigureConfig(figure)) }
}

// TestBenchGolden runs every benchsuite workload and holds it to
// testdata/bench_golden.json at zero drift: the solver's cost counters
// exactly, each fidelity metric to the bit (so a NaN fails), and the
// allocations of one operation exactly or within allocBand. Each
// workload runs once at the ambient GOMAXPROCS and twice more under
// testing.AllocsPerRun, which pins GOMAXPROCS to 1; all three samples
// must agree. A change that means to move a row re-records the file
// with `go test -run TestBenchGolden -update .` and names the move in
// its description. Wall time is not pinned here: perfbench measures it.
func TestBenchGolden(t *testing.T) {
	if *updateGolden && raceEnabled {
		t.Fatal("-update under -race would record the race detector's allocations")
	}
	want := map[string]goldenRow{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (record it with -update)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	}
	got := map[string]goldenRow{}
	for _, w := range goldenWorkloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && !w.kernel && !*updateGolden {
				t.Skip("figure-level workload in -short mode")
			}
			row := measure(t, w.op())
			got[w.name] = row
			if *updateGolden {
				return
			}
			exp, ok := want[w.name]
			if !ok {
				t.Fatalf("no recorded row (record it with -update)")
			}
			if row.Solver != exp.Solver {
				t.Errorf("solver counters drifted:\n got  %+v\n want %+v", row.Solver, exp.Solver)
			}
			for _, d := range metricDrift(row.Metrics, exp.Metrics) {
				t.Error(d)
			}
			switch {
			case raceEnabled:
			case w.kernel && row.Allocs != exp.Allocs:
				t.Errorf("allocs = %v, want exactly %v", row.Allocs, exp.Allocs)
			case !w.kernel && math.Abs(row.Allocs-exp.Allocs) > allocBand*exp.Allocs:
				t.Errorf("allocs = %v, want %v within ±%.0f%%", row.Allocs, exp.Allocs, allocBand*100)
			}
		})
	}

	// Cross-cell batching is bitwise-neutral: the batched proposed-only
	// Fig. 5 makes the same solves, to the same figure, as the unbatched
	// one on a single worker.
	if b, ok := got["multicell"]; ok {
		cfg := benchsuite.MulticellConfig()
		cfg.CrossCellBatch, cfg.Workers = false, 1
		op := benchsuite.FigureOp(5, cfg)
		if err := op.Run(); err != nil {
			t.Fatal(err)
		}
		u := op.Sample()
		if b.Solver != u.Solver || len(metricDrift(b.Metrics, u.Metrics)) > 0 {
			t.Errorf("batched multicell %+v differs from the unbatched figure %+v", b.Sample, u)
		}
	}

	if *updateGolden && !t.Failed() {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err) // a NaN metric cannot be recorded
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// measure runs op once at the ambient GOMAXPROCS for its sample, then
// counts its allocations, and requires the sample of the counted runs
// to match.
func measure(t *testing.T, op benchsuite.Op) goldenRow {
	t.Helper()
	if err := op.Run(); err != nil {
		t.Fatal(err)
	}
	first := op.Sample()
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		if err := op.Run(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if again := op.Sample(); again.Solver != first.Solver || len(metricDrift(again.Metrics, first.Metrics)) > 0 {
		t.Errorf("sample at GOMAXPROCS=1 %+v differs from the ambient run's %+v", again, first)
	}
	return goldenRow{Sample: first, Allocs: allocs}
}

// metricDrift lists every metric that is not bit-identical to its
// recorded value, or present on one side only.
func metricDrift(got, want map[string]float64) []string {
	var out []string
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("metric %s missing, want %v", name, w))
		case math.Float64bits(g) != math.Float64bits(w):
			out = append(out, fmt.Sprintf("metric %s = %v, want %v (bits %#x, want %#x)", name, g, w, math.Float64bits(g), math.Float64bits(w)))
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			out = append(out, fmt.Sprintf("metric %s = %v is not recorded", name, g))
		}
	}
	sort.Strings(out)
	return out
}
