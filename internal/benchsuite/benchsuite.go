// Package benchsuite defines the canonical benchmark workloads for the
// solver hot path and the figure regenerations, shared between the
// `go test -bench` entry points (bench_test.go) and the cmd/benchdiff
// regression tool. Each workload is a self-contained testing.B function
// that reports allocations and attaches its fidelity metrics (the
// figure benchmarks' loss_dB / rate_at_3dB, the estimator's final
// objective) via b.ReportMetric, so a single definition yields both
// human-readable benchmark output and machine-comparable baselines.
package benchsuite

import (
	"context"
	"math"
	"testing"

	"mmwalign/internal/align"
	"mmwalign/internal/antenna"
	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
	"mmwalign/internal/experiment"
	"mmwalign/internal/rng"
	"mmwalign/internal/scenario"
)

// Workload is one named benchmark: Func drives a testing.B loop,
// reporting allocations and fidelity metrics.
type Workload struct {
	// Name keys the BENCH_<Name>.json baseline file.
	Name string
	// Desc is a one-line description for tool output.
	Desc string
	// Func runs the benchmark body (including fixture setup, excluded
	// from timing via b.ResetTimer).
	Func func(b *testing.B)
}

// All returns every registered workload, hot-path kernels first.
func All() []Workload {
	return []Workload{
		{
			Name: "estimate",
			Desc: "one nuclear-norm ML covariance estimation (64 antennas, 56 observations)",
			Func: BenchEstimate,
		},
		{
			Name: "eigen",
			Desc: "one 64x64 Hermitian eigendecomposition (Householder tridiagonalization + implicit QL)",
			Func: BenchEigen,
		},
		{
			Name: "gemm",
			Desc: "one blocked 64x64 x 64x56 complex GEMM + column dots (the solver's Q·V λ-vector kernel)",
			Func: BenchGEMM,
		},
		{
			Name: "codebook",
			Desc: "one whole-codebook GEMM scoring pass (64 beams, 64 antennas) plus Top-8 ranking",
			Func: BenchCodebookScore,
		},
		{
			Name: "serve",
			Desc: "alignment-server load burst (16 requests, 8 clients, 4 slots) with p50/p95/p99 latency",
			Func: BenchServeLoad,
		},
		{
			Name: "overload",
			Desc: "alignment-server rejection path at 4x capacity (32 requests, 16 clients, 2 slots + 2 queued) with p50/p95/p99 latency",
			Func: BenchOverloadLoad,
		},
		{
			Name: "multicell",
			Desc: "Fig. 5 proposed-only regeneration through the cross-cell batched GEMM engine (8 workers)",
			Func: BenchMulticell,
		},
		{
			Name: "scenario",
			Desc: "mobility scenario sweep (2 speeds x 1 UE x 8 superframes, cold and warm proposed) with effective-throughput fidelity",
			Func: BenchScenario,
		},
		{
			Name: "fig5",
			Desc: "Fig. 5 regeneration (SNR loss vs search rate, single-path, reduced drops)",
			Func: figureFunc(5, "loss_dB"),
		},
		{
			Name: "fig6",
			Desc: "Fig. 6 regeneration (SNR loss vs search rate, NYC multipath, reduced drops)",
			Func: figureFunc(6, "loss_dB"),
		},
		{
			Name: "fig7",
			Desc: "Fig. 7 regeneration (required search rate vs target loss, single-path, reduced drops)",
			Func: figureFunc(7, "rate_at_3dB"),
		},
		{
			Name: "fig8",
			Desc: "Fig. 8 regeneration (required search rate vs target loss, NYC multipath, reduced drops)",
			Func: figureFunc(8, "rate_at_3dB"),
		},
	}
}

// ByName returns the workload with the given name.
func ByName(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// EstimateFixture builds the canonical estimator workload: a 64-antenna
// receiver sounding 56 codebook beams against a planted rank-one
// covariance, the per-TX-slot problem size of the proposed scheme.
func EstimateFixture() (*covest.Estimator, []covest.Observation) {
	src := rng.New(2)
	rx := antenna.NewUPA(8, 8)
	cb := antenna.NewGridCodebook(rx, 8, 8, math.Pi, math.Pi/2)
	truth := cb.Beam(20).Weights.Outer(cb.Beam(20).Weights).Scale(64).Hermitianize()
	obs := make([]covest.Observation, 0, 56)
	for j := 0; j < 56; j++ {
		v := cb.Beam(j).Weights
		lambda := truth.QuadForm(v) + 1
		z := src.ComplexNormal(lambda)
		obs = append(obs, covest.Observation{V: v, Energy: real(z)*real(z) + imag(z)*imag(z)})
	}
	opts := align.SchemeSpec{}.WithDefaults().Estimator
	opts.Gamma = 1
	est, err := covest.NewEstimator(64, opts)
	if err != nil {
		panic(err) // fixture construction is deterministic; cannot fail
	}
	return est, obs
}

// BenchEstimate measures one full regularized ML covariance estimation,
// the per-TX-slot cost of the proposed scheme. Reported metrics:
// objective (final penalized NLL), iters, eig_decomps and eigen_iters
// (implicit-QL iterations, the exact eigensolve work) per call. The
// estimator is Reset before every call: it carries its measurement
// subspace across calls, and repeating the same observations would
// otherwise measure only the solve, without its subspace setup.
func BenchEstimate(b *testing.B) {
	est, obs := EstimateFixture()
	b.ReportAllocs()
	b.ResetTimer()
	var stats covest.Stats
	for i := 0; i < b.N; i++ {
		var err error
		est.Reset()
		_, stats, err = est.Estimate(obs, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Objective, "objective")
	b.ReportMetric(float64(stats.Iters), "iters")
	if stats.EigenDecomps > 0 {
		b.ReportMetric(float64(stats.EigenDecomps), "eig_decomps")
		b.ReportMetric(float64(stats.EigenIters), "eigen_iters")
	}
}

// EigenFixture builds the canonical 64x64 Hermitian eigendecomposition
// input.
func EigenFixture() *cmat.Matrix {
	src := rng.New(1)
	m := cmat.New(64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			m.Set(i, j, src.ComplexNormal(1))
		}
	}
	return m.Hermitianize()
}

// BenchEigen measures the 64x64 Hermitian eigendecomposition,
// the inner kernel of every covariance estimation. Reports the top
// eigenvalue as its fidelity metric.
func BenchEigen(b *testing.B) {
	h := EigenFixture()
	ws := cmat.NewEigenWorkspace(64)
	b.ReportAllocs()
	b.ResetTimer()
	var top float64
	for i := 0; i < b.N; i++ {
		e, err := ws.EigHermitian(h)
		if err != nil {
			b.Fatal(err)
		}
		top = e.Values[0]
	}
	b.ReportMetric(top, "top_eig")
}

// GEMMFixture builds the solver's λ-vector kernel input at the canonical
// problem size: a 64x64 Hermitian Q and the 64x56 packed observation
// matrix V.
func GEMMFixture() (q, v *cmat.Matrix) {
	src := rng.New(3)
	q = cmat.New(64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			q.Set(i, j, src.ComplexNormal(1))
		}
	}
	q.HermitianizeInPlace()
	v = cmat.New(64, 56)
	for i := 0; i < 64; i++ {
		for j := 0; j < 56; j++ {
			v.Set(i, j, src.ComplexNormal(1))
		}
	}
	return q, v
}

// BenchGEMM measures one Q·V product plus the column dots that turn it
// into the λ vector — the batched kernel executed once per objective or
// gradient evaluation inside the solver. Reports the checksum Σ_j λ_j
// as its fidelity metric.
func BenchGEMM(b *testing.B) {
	q, v := GEMMFixture()
	qv := cmat.New(64, 56)
	dots := make([]complex128, 56)
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		qv.MulInto(q, v)
		cmat.ColumnDotsInto(dots, v, qv)
		sum = 0
		for _, d := range dots {
			sum += real(d)
		}
	}
	b.ReportMetric(sum, "lambda_sum")
}

// CodebookFixture builds the whole-codebook scoring input: the paper's
// 64-beam RX codebook over an 8x8 UPA and a planted rank-one covariance
// estimate.
func CodebookFixture() (*antenna.Codebook, *cmat.Matrix) {
	rx := antenna.NewUPA(8, 8)
	cb := antenna.NewGridCodebook(rx, 8, 8, math.Pi, math.Pi/2)
	q := cb.Beam(20).Weights.Outer(cb.Beam(20).Weights).Scale(64).Hermitianize()
	return cb, q
}

// BenchCodebookScore measures one batched whole-codebook scoring pass
// followed by a Top-8 ranking — the per-slot beam-selection cost of the
// proposed strategy. Reports the best beam's score as its fidelity
// metric.
func BenchCodebookScore(b *testing.B) {
	cb, q := CodebookFixture()
	scores := make([]float64, cb.Size())
	topk := make([]int, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	var best float64
	for i := 0; i < b.N; i++ {
		cb.QuadFormScoresInto(q, scores)
		topk = cb.TopKQuadFormInto(q, 8, topk)
		best = scores[topk[0]]
	}
	b.ReportMetric(best, "best_score")
}

// MulticellConfig is the cross-cell batching workload: the Fig. 5
// regeneration restricted to the estimator-heavy proposed scheme, run
// on 8 concurrent drop workers with CrossCellBatch enabled so the batch
// scheduler actually coalesces same-shape solver GEMMs across cells.
// Batching is bitwise-neutral, so the loss_dB fidelity metric must
// equal the unbatched figure's.
func MulticellConfig() experiment.Config {
	cfg := FigureConfig(5)
	cfg.Schemes = []string{"proposed"}
	cfg.Workers = 8
	cfg.CrossCellBatch = true
	return cfg
}

// BenchMulticell measures the proposed-only Fig. 5 regeneration through
// the cross-cell batched GEMM engine. Reports the proposed scheme's
// final loss_dB as its fidelity metric.
func BenchMulticell(b *testing.B) {
	b.ReportAllocs()
	var m float64
	for i := 0; i < b.N; i++ {
		fig, err := experiment.GenerateContext(context.Background(), 5, MulticellConfig())
		if err != nil {
			b.Fatal(err)
		}
		var ok bool
		m, ok = FigureMetric(fig)
		if !ok {
			b.Fatal(errNoProposedSeries)
		}
	}
	b.ReportMetric(m, "loss_dB")
}

// ScenarioConfig is the reduced mobility workload: one UE per speed at
// 5 and 20 m/s over 8 superframes, running the cold and warm proposed
// schemes — the trajectory engine's hot path (periodic re-alignment,
// oracle scoring, channel evolution) at benchmark size.
func ScenarioConfig() scenario.Config {
	return scenario.Config{
		Seed:      1,
		UEs:       1,
		Frames:    8,
		SpeedsMPS: []float64{5, 20},
		Schemes:   []string{"proposed", "proposed-warm"},
		Workers:   2,
	}
}

// BenchScenario measures the mobility sweep. The sweep is
// deterministic, so the delivered/genie efficiencies of the cold and
// warm proposed schemes at the top speed are exact fidelity metrics.
func BenchScenario(b *testing.B) {
	b.ReportAllocs()
	var res scenario.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = scenario.RunContext(context.Background(), ScenarioConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	names := map[string]string{"proposed": "eff_cold", "proposed-warm": "eff_warm"}
	for _, s := range res.Speed.Series {
		if metric, ok := names[s.Name]; ok && len(s.Y) > 0 {
			b.ReportMetric(s.Y[len(s.Y)-1], metric)
		}
	}
}

// FigureConfig is the reduced-size figure configuration used by the
// figure benchmarks: the paper's arrays and codebooks with fewer drops.
func FigureConfig(figure int) experiment.Config {
	return experiment.Config{
		Seed:      1,
		Drops:     4,
		Multipath: figure == 6 || figure == 8,
	}
}

// FigureMetric extracts the proposed scheme's value at the last sweep
// point of a figure — the fidelity number guarded by benchdiff and the
// smoke test.
func FigureMetric(fig experiment.Figure) (float64, bool) {
	for _, s := range fig.Series {
		if s.Name == "proposed" && len(s.Y) > 0 {
			return s.Y[len(s.Y)-1], true
		}
	}
	return 0, false
}

// RunFigure regenerates the given paper figure on the reduced benchmark
// configuration and returns its fidelity metric.
func RunFigure(figure int) (float64, error) {
	fig, err := experiment.GenerateContext(context.Background(), figure, FigureConfig(figure))
	if err != nil {
		return 0, err
	}
	m, ok := FigureMetric(fig)
	if !ok {
		return 0, errNoProposedSeries
	}
	return m, nil
}

type figureError string

func (e figureError) Error() string { return string(e) }

const errNoProposedSeries = figureError("benchsuite: figure has no proposed series")

func figureFunc(figure int, metric string) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var m float64
		for i := 0; i < b.N; i++ {
			var err error
			m, err = RunFigure(figure)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(m, metric)
	}
}
