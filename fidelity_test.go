package mmwalign

// The fidelity smoke test is the cheap always-on counterpart of
// cmd/benchdiff: it re-runs the regression-guarded workloads once and
// asserts their fidelity metrics (not their speed) against the seeded
// BENCH_<name>.json baselines. A solver "optimization" that changes the
// numbers the paper's figures are made of fails here in plain
// `go test ./...`, without anyone having to run the benchmark tool.

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"mmwalign/internal/benchsuite"
)

// benchBaseline mirrors the cmd/benchdiff baseline file schema (only
// the fields the smoke test needs).
type benchBaseline struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

func loadBaseline(t *testing.T, name string) benchBaseline {
	t.Helper()
	raw, err := os.ReadFile("BENCH_" + name + ".json")
	if err != nil {
		t.Skipf("no recorded baseline for %s: %v (run `go run ./cmd/benchdiff -record`)", name, err)
	}
	var b benchBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("baseline %s: %v", name, err)
	}
	return b
}

// checkMetric applies benchdiff's default fidelity tolerance: within 5%
// relative or 0.05 absolute of the baseline value.
func checkMetric(t *testing.T, workload, metric string, got, want float64) {
	t.Helper()
	const relTol, absTol = 0.05, 0.05
	diff := math.Abs(got - want)
	if diff <= absTol || diff <= relTol*math.Abs(want) {
		return
	}
	t.Errorf("%s %s = %g, baseline %g (drift %g exceeds %g%% rel / %g abs)",
		workload, metric, got, want, diff, relTol*100, absTol)
}

func TestFidelitySmokeEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("fidelity smoke in -short mode")
	}
	base := loadBaseline(t, "estimate")
	est, obs := benchsuite.EstimateFixture()
	_, stats, err := est.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMetric(t, "estimate", "objective", stats.Objective, base.Metrics["objective"])
	checkMetric(t, "estimate", "iters", float64(stats.Iters), base.Metrics["iters"])
	checkMetric(t, "estimate", "eig_decomps", float64(stats.EigenDecomps), base.Metrics["eig_decomps"])
	checkMetric(t, "estimate", "eigen_iters", float64(stats.EigenIters), base.Metrics["eigen_iters"])
}

func TestFidelitySmokeFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("fidelity smoke in -short mode")
	}
	for _, tc := range []struct {
		figure int
		name   string
		metric string
	}{
		{5, "fig5", "loss_dB"},
		{7, "fig7", "rate_at_3dB"},
	} {
		base := loadBaseline(t, tc.name)
		got, err := benchsuite.RunFigure(tc.figure)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkMetric(t, tc.name, tc.metric, got, base.Metrics[tc.metric])
	}
}
