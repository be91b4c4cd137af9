package mmwalign

// The benchmark harness regenerates every result figure of the paper
// (Fig. 5-8, there are no result tables) plus the ablations DESIGN.md
// calls out. Each figure bench runs the corresponding generator on a
// reduced drop count (benchmarks measure cost; cmd/figgen produces the
// full-fidelity curves) and reports the headline metric — the proposed
// scheme's mean SNR loss, or its required search rate — via
// b.ReportMetric so regressions in result quality show up alongside
// regressions in speed.

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"mmwalign/internal/align"
	"mmwalign/internal/antenna"
	"mmwalign/internal/benchsuite"
	"mmwalign/internal/channel"
	"mmwalign/internal/covest"
	"mmwalign/internal/experiment"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
)

// benchConfig is the reduced-size figure configuration used by the
// benches: the paper's arrays and codebooks with fewer drops.
func benchConfig(multipath bool) experiment.Config {
	return experiment.Config{
		Seed:      1,
		Drops:     4,
		Multipath: multipath,
	}
}

// reportProposed extracts the proposed scheme's value at the last sweep
// point and attaches it to the benchmark output.
func reportProposed(b *testing.B, fig experiment.Figure, metric string) {
	b.Helper()
	for _, s := range fig.Series {
		if s.Name == "proposed" && len(s.Y) > 0 {
			b.ReportMetric(s.Y[len(s.Y)-1], metric)
			return
		}
	}
}

// BenchmarkFig5SearchEffectivenessSinglepath regenerates Fig. 5: SNR
// loss vs search rate on the single-path channel.
func BenchmarkFig5SearchEffectivenessSinglepath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.GenerateContext(context.Background(), 5, benchConfig(false))
		if err != nil {
			b.Fatal(err)
		}
		reportProposed(b, fig, "loss_dB")
	}
}

// BenchmarkFig6SearchEffectivenessMultipath regenerates Fig. 6: SNR loss
// vs search rate on the NYC multipath channel.
func BenchmarkFig6SearchEffectivenessMultipath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.GenerateContext(context.Background(), 6, benchConfig(true))
		if err != nil {
			b.Fatal(err)
		}
		reportProposed(b, fig, "loss_dB")
	}
}

// BenchmarkFig7CostEfficiencySinglepath regenerates Fig. 7: required
// search rate vs target loss on the single-path channel.
func BenchmarkFig7CostEfficiencySinglepath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.GenerateContext(context.Background(), 7, benchConfig(false))
		if err != nil {
			b.Fatal(err)
		}
		reportProposed(b, fig, "rate_at_3dB")
	}
}

// BenchmarkFig8CostEfficiencyMultipath regenerates Fig. 8: required
// search rate vs target loss on the NYC multipath channel.
func BenchmarkFig8CostEfficiencyMultipath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiment.GenerateContext(context.Background(), 8, benchConfig(true))
		if err != nil {
			b.Fatal(err)
		}
		reportProposed(b, fig, "rate_at_3dB")
	}
}

// BenchmarkAblationEstimatorKind compares the exact per-measurement
// likelihood against the paper's aggregate-statistic form (Eq. 18) on
// the Fig. 5 workload.
func BenchmarkAblationEstimatorKind(b *testing.B) {
	kinds := map[string]covest.ObjectiveKind{
		"per-measurement": covest.PerMeasurement,
		"aggregate":       covest.Aggregate,
	}
	for name, kind := range kinds {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(false)
				cfg.EstimatorKind = kind
				cfg.Schemes = []string{"proposed"}
				cfg.SearchRates = []float64{0.2}
				fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportProposed(b, fig, "loss_dB")
			}
		})
	}
}

// BenchmarkAblationMu sweeps the nuclear-norm regularization weight —
// the estimator's key hyperparameter.
func BenchmarkAblationMu(b *testing.B) {
	for _, mu := range []float64{0.3, 1, 3} {
		b.Run(formatFloat(mu), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(false)
				cfg.Mu = mu
				cfg.Schemes = []string{"proposed"}
				cfg.SearchRates = []float64{0.2}
				fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportProposed(b, fig, "loss_dB")
			}
		})
	}
}

// BenchmarkAblationJ sweeps the per-TX-slot measurement count J, the
// exploration/exploitation knob of Algorithm 1.
func BenchmarkAblationJ(b *testing.B) {
	for _, j := range []int{4, 8, 16} {
		b.Run(formatInt(j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(false)
				cfg.J = j
				cfg.Schemes = []string{"proposed"}
				cfg.SearchRates = []float64{0.2}
				fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportProposed(b, fig, "loss_dB")
			}
		})
	}
}

// BenchmarkAblationWindow compares bounded estimation windows against
// full history (window = whole budget), the flat-cost design choice.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{32, 96, 100000} {
		b.Run(formatInt(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(false)
				cfg.Window = w
				cfg.Schemes = []string{"proposed"}
				cfg.SearchRates = []float64{0.2}
				fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportProposed(b, fig, "loss_dB")
			}
		})
	}
}

// BenchmarkAblationHierarchical compares the hierarchical-codebook
// extension against the paper's schemes on the Fig. 6 workload.
func BenchmarkAblationHierarchical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(true)
		cfg.Schemes = []string{"hierarchical", "proposed"}
		cfg.SearchRates = []float64{0.2}
		fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportProposed(b, fig, "loss_dB")
	}
}

// BenchmarkAblationTwoSided compares the future-work two-sided extension
// (feedback-driven TX selection) against the paper's proposed scheme.
func BenchmarkAblationTwoSided(b *testing.B) {
	for _, scheme := range []string{"proposed", "two-sided"} {
		b.Run(scheme, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(false)
				cfg.Schemes = []string{scheme}
				cfg.SearchRates = []float64{0.2}
				fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Series) > 0 && len(fig.Series[0].Y) > 0 {
					b.ReportMetric(fig.Series[0].Y[0], "loss_dB")
				}
			}
		})
	}
}

// BenchmarkAblationPhaseBits quantifies the cost of finite-resolution
// analog phase shifters on the Fig. 5 workload.
func BenchmarkAblationPhaseBits(b *testing.B) {
	for _, bits := range []int{1, 2, 3, 0} {
		name := "ideal"
		if bits > 0 {
			name = strconv.Itoa(bits) + "bit"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(false)
				cfg.PhaseBits = bits
				cfg.Schemes = []string{"proposed"}
				cfg.SearchRates = []float64{0.2}
				fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportProposed(b, fig, "loss_dB")
			}
		})
	}
}

// BenchmarkAblationDigital compares the fully-digital receiver upper
// bound against the paper's analog proposed scheme on the Fig. 5
// workload — the hardware-cost trade the paper's Sec. III frames.
func BenchmarkAblationDigital(b *testing.B) {
	for _, scheme := range []string{"proposed", "digital"} {
		b.Run(scheme, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(false)
				cfg.Schemes = []string{scheme}
				cfg.SearchRates = []float64{0.1}
				fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Series) > 0 && len(fig.Series[0].Y) > 0 {
					b.ReportMetric(fig.Series[0].Y[0], "loss_dB")
				}
			}
		})
	}
}

// BenchmarkAblationLocalRefine compares the divide-and-conquer
// hill-climbing baseline (reference [13] style) against the proposed
// scheme on the Fig. 6 workload.
func BenchmarkAblationLocalRefine(b *testing.B) {
	for _, scheme := range []string{"proposed", "local-refine"} {
		b.Run(scheme, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(true)
				cfg.Schemes = []string{scheme}
				cfg.SearchRates = []float64{0.2}
				fig, err := experiment.SearchEffectivenessContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(fig.Series) > 0 && len(fig.Series[0].Y) > 0 {
					b.ReportMetric(fig.Series[0].Y[0], "loss_dB")
				}
			}
		})
	}
}

// --- micro-benchmarks of the hot kernels ---

// BenchmarkEstimate is the canonical regression-guarded estimator
// benchmark (shared with cmd/benchdiff via internal/benchsuite): one
// full nuclear-norm ML covariance estimation with allocation reporting
// and the solver's Stats counters attached as metrics. Compare against
// BENCH_estimate.json with cmd/benchdiff.
func BenchmarkEstimate(b *testing.B) {
	benchsuite.BenchEstimate(b)
}

// BenchmarkEigen is the canonical regression-guarded eigendecomposition
// benchmark (shared with cmd/benchdiff): a 64x64 Hermitian
// decomposition (Householder tridiagonalization + implicit QL) through a
// reused EigenWorkspace. Compare against BENCH_eigen.json with
// cmd/benchdiff; `go test -bench EigHermitian ./internal/cmat` covers
// the solver's other working dimensions.
func BenchmarkEigen(b *testing.B) {
	benchsuite.BenchEigen(b)
}

// BenchmarkGEMM is the canonical regression-guarded batched-kernel
// benchmark (shared with cmd/benchdiff): one Q·V product plus column
// dots at the solver's 64x56 problem size. Compare against
// BENCH_gemm.json with cmd/benchdiff.
func BenchmarkGEMM(b *testing.B) {
	benchsuite.BenchGEMM(b)
}

// BenchmarkCodebookScore is the canonical regression-guarded codebook
// scoring benchmark (shared with cmd/benchdiff): one whole-codebook
// GEMM scoring pass plus a Top-8 ranking. Compare against
// BENCH_codebook.json with cmd/benchdiff.
func BenchmarkCodebookScore(b *testing.B) {
	benchsuite.BenchCodebookScore(b)
}

// BenchmarkServeLoad is the canonical regression-guarded alignment-
// server load benchmark (shared with cmd/benchdiff): a 16-request burst
// from 8 client workers against a 4-slot server, reporting p50/p95/p99
// request latency and the deterministic best-beam score. Compare
// against BENCH_serve.json with cmd/benchdiff.
func BenchmarkServeLoad(b *testing.B) {
	benchsuite.BenchServeLoad(b)
}

// BenchmarkOverloadLoad is the canonical regression-guarded overload
// benchmark (shared with cmd/benchdiff): a 32-request burst from 16
// client workers against a 2-slot, 2-queue server — 4x capacity — so
// the backpressure rejection path dominates. Compare against
// BENCH_overload.json with cmd/benchdiff.
func BenchmarkOverloadLoad(b *testing.B) {
	benchsuite.BenchOverloadLoad(b)
}

// BenchmarkMulticell is the canonical regression-guarded cross-cell
// batching benchmark (shared with cmd/benchdiff): the proposed-only
// Fig. 5 regeneration with 8 concurrent drop workers routing their
// solver GEMMs through the batch scheduler. Compare against
// BENCH_multicell.json with cmd/benchdiff.
func BenchmarkMulticell(b *testing.B) {
	benchsuite.BenchMulticell(b)
}

// BenchmarkScenario is the canonical regression-guarded mobility
// benchmark (shared with cmd/benchdiff): a reduced two-speed trajectory
// sweep of the cold and warm proposed schemes, reporting their
// delivered/genie efficiency at the top speed. Compare against
// BENCH_scenario.json with cmd/benchdiff.
func BenchmarkScenario(b *testing.B) {
	benchsuite.BenchScenario(b)
}

// BenchmarkCovarianceEstimate measures one full nuclear-norm-regularized
// ML estimation from 56 energy measurements on a 64-antenna receiver —
// the per-TX-slot cost of the proposed scheme.
func BenchmarkCovarianceEstimate(b *testing.B) {
	src := rng.New(2)
	rx := antenna.NewUPA(8, 8)
	cb := antenna.NewGridCodebook(rx, 8, 8, 3.14159, 1.5708)
	truth := cb.Beam(20).Weights.Outer(cb.Beam(20).Weights).Scale(64).Hermitianize()
	var obs []covest.Observation
	for j := 0; j < 56; j++ {
		v := cb.Beam(j).Weights
		lambda := truth.QuadForm(v) + 1
		z := src.ComplexNormal(lambda)
		obs = append(obs, covest.Observation{V: v, Energy: real(z)*real(z) + imag(z)*imag(z)})
	}
	est, err := covest.NewEstimator(64, covest.Options{Gamma: 1, MaxIters: 25})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := est.Estimate(obs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorSolver compares the plain (ISTA) and accelerated
// (FISTA) proximal solvers on one covariance estimation instance.
func BenchmarkEstimatorSolver(b *testing.B) {
	src := rng.New(5)
	rx := antenna.NewUPA(8, 8)
	cb := antenna.NewGridCodebook(rx, 8, 8, 3.14159, 1.5708)
	truth := cb.Beam(12).Weights.Outer(cb.Beam(12).Weights).Scale(64).Hermitianize()
	var obs []covest.Observation
	for j := 0; j < 48; j++ {
		v := cb.Beam(j).Weights
		lambda := truth.QuadForm(v) + 1
		z := src.ComplexNormal(lambda)
		obs = append(obs, covest.Observation{V: v, Energy: real(z)*real(z) + imag(z)*imag(z)})
	}
	for _, accel := range []bool{false, true} {
		name := "ista"
		if accel {
			name = "fista"
		}
		b.Run(name, func(b *testing.B) {
			est, err := covest.NewEstimator(64, covest.Options{Gamma: 1, MaxIters: 40, Accelerated: accel})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_, stats, err := est.Estimate(obs, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Iters), "iters")
				b.ReportMetric(stats.Objective, "objective")
			}
		})
	}
}

// BenchmarkSounderMeasure measures one 4-snapshot pair sounding on the
// NYC multipath channel.
func BenchmarkSounderMeasure(b *testing.B) {
	src := rng.New(3)
	tx, rx := antenna.NewUPA(4, 4), antenna.NewUPA(8, 8)
	ch, err := channel.NewNYCMultipath(src.Split("ch"), tx, rx, channel.DefaultNYC28())
	if err != nil {
		b.Fatal(err)
	}
	s, err := meas.NewSounder(ch, 1, src.Split("noise"))
	if err != nil {
		b.Fatal(err)
	}
	s.SetSnapshots(4)
	u := tx.Steering(antenna.Direction{Az: 0.2})
	v := rx.Steering(antenna.Direction{Az: -0.1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Measure(0, 0, u, v)
	}
}

// BenchmarkOracle measures the ground-truth optimal-pair sweep over all
// 1024 codebook pairs on a multipath channel.
func BenchmarkOracle(b *testing.B) {
	src := rng.New(4)
	tx, rx := antenna.NewUPA(4, 4), antenna.NewUPA(8, 8)
	ch, err := channel.NewNYCMultipath(src.Split("ch"), tx, rx, channel.DefaultNYC28())
	if err != nil {
		b.Fatal(err)
	}
	s, err := meas.NewSounder(ch, 1, src.Split("noise"))
	if err != nil {
		b.Fatal(err)
	}
	env := &align.Env{
		TXBook:  antenna.NewGridCodebook(tx, 4, 4, 3.14159, 1.5708),
		RXBook:  antenna.NewGridCodebook(rx, 8, 8, 3.14159, 1.5708),
		Sounder: s,
		Src:     src.Split("strategy"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Oracle(env)
	}
}

// BenchmarkAlignProposedRun measures one complete proposed-scheme run at
// a 15% search rate on the paper-sized problem.
func BenchmarkAlignProposedRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		link, err := NewLink(LinkSpec{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := link.Align(SchemeProposed, 154)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LossDB, "loss_dB")
	}
}

func formatFloat(f float64) string {
	return fmt.Sprintf("mu=%g", f)
}

func formatInt(n int) string {
	if n >= 100000 {
		return "full"
	}
	return strconv.Itoa(n)
}
