// Package benchsuite defines the canonical benchmark workloads: the
// solver kernels at the proposed scheme's problem size, the reduced
// paper figures, the cross-cell batching and mobility sweeps, and a
// served burst. Each is an Op: fixture state built once, an operation
// to repeat, and the Sample of counters and fidelity metrics the last
// operation yielded. The `go test -bench` entry points in bench_test.go
// time the ops through Bench, and the root package's TestBenchGolden
// pins every op's exact solver counters, fidelity metrics and
// allocations in testdata/bench_golden.json. Wall time is perfbench's
// to measure.
package benchsuite

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mmwalign/internal/align"
	"mmwalign/internal/antenna"
	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
	"mmwalign/internal/experiment"
	"mmwalign/internal/obs"
	"mmwalign/internal/rng"
	"mmwalign/internal/scenario"
)

// Sample is what one operation yields: the solver cost counters
// totalled over every solve it made, and its fidelity metrics by name.
// Both are deterministic.
type Sample struct {
	Solver  obs.SolverStats    `json:"solver"`
	Metrics map[string]float64 `json:"metrics"`
}

// Op is one prepared workload. Run performs one operation on fixture
// state built beforehand, so a loop over Run measures the operation
// alone; Sample reads the counters and metrics of the last Run.
type Op struct {
	Run    func() error
	Sample func() Sample
}

// Bench times op.Run in b's loop and reports the last sample's
// metrics, with the solver's iterations, eigendecompositions and QL
// iterations per operation when it solved anything.
func Bench(b *testing.B, op Op) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := op.Sample()
	for name, v := range s.Metrics {
		b.ReportMetric(v, name)
	}
	if s.Solver.EigenDecomps > 0 {
		b.ReportMetric(float64(s.Solver.Iters), "iters")
		b.ReportMetric(float64(s.Solver.EigenDecomps), "eig_decomps")
		b.ReportMetric(float64(s.Solver.EigenIters), "eigen_iters")
	}
}

// whole is the Op of a workload that builds its own state on every run
// and yields its sample as it finishes.
func whole(run func() (Sample, error)) Op {
	var last Sample
	return Op{
		Run: func() (err error) {
			last, err = run()
			return err
		},
		Sample: func() Sample { return last },
	}
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

// EstimateOp is one full regularized ML covariance estimation on
// EstimateFixture, the per-TX-slot cost of the proposed scheme. Its
// metric is the final penalized NLL, objective. The estimator is Reset
// before every call: it carries its measurement subspace across calls,
// and repeating the same observations would otherwise measure only the
// solve, without its subspace setup.
func EstimateOp() Op {
	est, window := EstimateFixture()
	var stats covest.Stats
	return Op{
		Run: func() (err error) {
			est.Reset()
			_, stats, err = est.Estimate(window, nil)
			return err
		},
		Sample: func() Sample {
			rec := obs.New()
			rec.AddSolve(align.SolveSample(stats))
			return Sample{Solver: rec.Snapshot().Solver, Metrics: map[string]float64{"objective": stats.Objective}}
		},
	}
}

// EigenOp is one 64x64 Hermitian eigendecomposition (Householder
// tridiagonalization + implicit QL) through a reused workspace, the
// inner kernel of every covariance estimation. Its counters are the one
// decomposition and its QL iterations, and its metric is the top
// eigenvalue, top_eig.
func EigenOp() Op {
	src := rng.New(1)
	h := cmat.New(64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			h.Set(i, j, src.ComplexNormal(1))
		}
	}
	h = h.Hermitianize()
	ws := cmat.NewEigenWorkspace(64)
	var top float64
	return Op{
		Run: func() error {
			e, err := ws.EigHermitian(h)
			if err == nil {
				top = e.Values[0]
			}
			return err
		},
		Sample: func() Sample {
			return Sample{
				Solver:  obs.SolverStats{EigenDecomps: 1, EigenIters: int64(ws.Iters())},
				Metrics: map[string]float64{"top_eig": top},
			}
		},
	}
}

// GEMMOp is one Q·V product plus the column dots that turn it into the
// λ vector, at the solver's 64x56 problem size — the batched kernel
// executed once per objective or gradient evaluation inside the solver.
// Its metric is the checksum Σ_j λ_j, lambda_sum.
func GEMMOp() Op {
	src := rng.New(3)
	q := cmat.New(64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			q.Set(i, j, src.ComplexNormal(1))
		}
	}
	q.HermitianizeInPlace()
	v := cmat.New(64, 56)
	for i := 0; i < 64; i++ {
		for j := 0; j < 56; j++ {
			v.Set(i, j, src.ComplexNormal(1))
		}
	}
	qv := cmat.New(64, 56)
	dots := make([]complex128, 56)
	var sum float64
	return Op{
		Run: func() error {
			qv.MulInto(q, v)
			cmat.ColumnDotsInto(dots, v, qv)
			sum = 0
			for _, d := range dots {
				sum += real(d)
			}
			return nil
		},
		Sample: func() Sample { return Sample{Metrics: map[string]float64{"lambda_sum": sum}} },
	}
}

// CodebookOp is one batched whole-codebook scoring pass over the
// paper's 64-beam RX codebook against a planted rank-one covariance,
// followed by a Top-8 ranking — the per-slot beam-selection cost of the
// proposed strategy. Its metric is the best beam's score, best_score.
func CodebookOp() Op {
	rx := antenna.NewUPA(8, 8)
	cb := antenna.NewGridCodebook(rx, 8, 8, math.Pi, math.Pi/2)
	q := cb.Beam(20).Weights.Outer(cb.Beam(20).Weights).Scale(64).Hermitianize()
	scores := make([]float64, cb.Size())
	topk := make([]int, 0, 8)
	var best float64
	return Op{
		Run: func() error {
			cb.QuadFormScoresInto(q, scores)
			topk = cb.TopKQuadFormInto(q, 8, topk)
			best = scores[topk[0]]
			return nil
		},
		Sample: func() Sample { return Sample{Metrics: map[string]float64{"best_score": best}} },
	}
}

// FigureConfig is the reduced-size configuration of the figure
// workloads: the paper's arrays and codebooks with fewer drops.
func FigureConfig(figure int) experiment.Config {
	return experiment.Config{
		Seed:      1,
		Drops:     4,
		Multipath: figure == 6 || figure == 8,
	}
}

// MulticellConfig is the cross-cell batching workload: the Fig. 5
// regeneration restricted to the estimator-heavy proposed scheme, run
// on 8 concurrent drop workers with CrossCellBatch enabled so the batch
// scheduler actually coalesces same-shape solver GEMMs across cells.
// Batching is bitwise-neutral, so its sample must equal the unbatched
// proposed-only figure's.
func MulticellConfig() experiment.Config {
	cfg := FigureConfig(5)
	cfg.Schemes = []string{"proposed"}
	cfg.Workers = 8
	cfg.CrossCellBatch = true
	return cfg
}

// FigureOp regenerates a paper figure (5–8) under cfg. Its metric is
// the proposed scheme's value at the last sweep point: loss_dB for the
// search-effectiveness figures 5 and 6, rate_at_3dB for the
// cost-efficiency figures 7 and 8.
func FigureOp(figure int, cfg experiment.Config) Op {
	metric := "loss_dB"
	if figure == 7 || figure == 8 {
		metric = "rate_at_3dB"
	}
	return whole(func() (Sample, error) {
		rec := obs.New()
		fig, err := experiment.GenerateContext(obs.Into(context.Background(), rec), figure, cfg)
		if err != nil {
			return Sample{}, err
		}
		for _, s := range fig.Series {
			if s.Name == "proposed" && len(s.Y) > 0 {
				return Sample{Solver: rec.Snapshot().Solver, Metrics: map[string]float64{metric: s.Y[len(s.Y)-1]}}, nil
			}
		}
		return Sample{}, fmt.Errorf("benchsuite: figure %d has no proposed series", figure)
	})
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

// ScenarioOp runs the mobility sweep. Its metrics are the
// delivered/genie efficiencies of the cold and warm proposed schemes at
// the top speed, eff_cold and eff_warm.
func ScenarioOp() Op {
	return whole(func() (Sample, error) {
		rec := obs.New()
		res, err := scenario.RunContext(obs.Into(context.Background(), rec), ScenarioConfig())
		if err != nil {
			return Sample{}, err
		}
		names := map[string]string{"proposed": "eff_cold", "proposed-warm": "eff_warm"}
		metrics := make(map[string]float64, len(names))
		for _, s := range res.Speed.Series {
			if metric, ok := names[s.Name]; ok && len(s.Y) > 0 {
				metrics[metric] = s.Y[len(s.Y)-1]
			}
		}
		return Sample{Solver: rec.Snapshot().Solver, Metrics: metrics}, nil
	})
}
