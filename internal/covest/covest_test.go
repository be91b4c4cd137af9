package covest

import (
	"errors"
	"math"
	"testing"

	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/cmat"
	"mmwalign/internal/rng"
)

// synthObservations draws energy measurements from the true model:
// z ~ CN(0, γ·vᴴQv + 1), w = |z|².
func synthObservations(src *rng.Source, q *cmat.Matrix, beams []cmat.Vector, gamma float64) []Observation {
	obs := make([]Observation, len(beams))
	for j, v := range beams {
		lambda := gamma*q.QuadForm(v) + 1
		z := src.ComplexNormal(lambda)
		obs[j] = Observation{V: v, Energy: real(z)*real(z) + imag(z)*imag(z)}
	}
	return obs
}

// rank1Fixture builds a rank-1 covariance aligned to a known direction
// plus a codebook of candidate beams.
func rank1Fixture(n int) (*cmat.Matrix, []cmat.Vector, int) {
	ar := antenna.NewULA(n)
	cb := antenna.NewDFTCodebook(ar)
	target := 3
	u := cb.Beam(target).Weights
	q := u.Outer(u).Scale(complex(float64(n), 0)) // tr(Q)=N convention
	var beams []cmat.Vector
	for i := 0; i < cb.Size(); i++ {
		beams = append(beams, cb.Beam(i).Weights)
	}
	return q.Hermitianize(), beams, target
}

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(0, Options{Gamma: 1}); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := NewEstimator(4, Options{}); err == nil {
		t.Error("expected error for missing gamma")
	}
	if _, err := NewEstimator(4, Options{Gamma: 1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestEstimateInputValidation(t *testing.T) {
	e, err := NewEstimator(4, Options{Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Estimate(nil, nil); !errors.Is(err, ErrNoObservations) {
		t.Errorf("err = %v, want ErrNoObservations", err)
	}
	if _, _, err := e.Estimate([]Observation{{V: cmat.NewVector(3), Energy: 1}}, nil); err == nil {
		t.Error("expected error for wrong beam dimension")
	}
	if _, _, err := e.Estimate([]Observation{{V: cmat.NewVector(4), Energy: -1}}, nil); err == nil {
		t.Error("expected error for negative energy")
	}
}

func TestEstimateRecoversDominantDirection(t *testing.T) {
	// The estimator's job in the algorithm: after sounding a subset of
	// beams, vᴴQ̂v must rank the true best beam at (or near) the top.
	n := 16
	q, beams, target := rank1Fixture(n)
	gamma := 1.0
	src := rng.New(200)

	// Average several noisy energy draws per beam to emulate the
	// information content of a few TX slots.
	var obs []Observation
	for rep := 0; rep < 6; rep++ {
		obs = append(obs, synthObservations(src, q, beams, gamma)...)
	}

	e, err := NewEstimator(n, Options{Gamma: gamma, Mu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	qhat, stats, err := e.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iters == 0 {
		t.Error("solver took no iterations")
	}
	best, bestVal := -1, math.Inf(-1)
	for i, v := range beams {
		if g := qhat.QuadForm(v); g > bestVal {
			best, bestVal = i, g
		}
	}
	if best != target {
		t.Errorf("estimated best beam = %d, want %d", best, target)
	}
}

func TestEstimateLowRankUnderRegularization(t *testing.T) {
	n := 16
	q, beams, _ := rank1Fixture(n)
	src := rng.New(201)
	var obs []Observation
	for rep := 0; rep < 4; rep++ {
		obs = append(obs, synthObservations(src, q, beams, 1.0)...)
	}
	e, err := NewEstimator(n, Options{Gamma: 1, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	qhat, stats, err := e.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rank > 4 {
		t.Errorf("estimate rank = %d; regularization should keep it low", stats.Rank)
	}
	if !qhat.IsHermitian(1e-9) {
		t.Error("estimate is not Hermitian")
	}
	// PSD check.
	eig, err := cmat.EigHermitian(qhat)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if v < -1e-9 {
			t.Errorf("estimate has negative eigenvalue %g", v)
		}
	}
}

func TestEstimateSubspaceMatchesFull(t *testing.T) {
	// The subspace reduction must be exact: same observations, same
	// options → (numerically) the same estimate with and without it.
	n := 12
	q, beams, _ := rank1Fixture(n)
	src := rng.New(202)
	obs := synthObservations(src, q, beams[:7], 1.0) // few beams → small subspace

	mk := func(disable bool) *cmat.Matrix {
		e, err := NewEstimator(n, Options{Gamma: 1, Mu: 0.5, DisableReduction: disable, MaxIters: 60, Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		qhat, stats, err := e.Estimate(obs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if disable && stats.SubspaceDim != n {
			t.Errorf("full solve reports subspace %d, want %d", stats.SubspaceDim, n)
		}
		if !disable && stats.SubspaceDim > 7 {
			t.Errorf("reduced solve reports subspace %d, want ≤7", stats.SubspaceDim)
		}
		return qhat
	}
	qr, qf := mk(false), mk(true)
	diff := qr.Sub(qf).FrobeniusNorm() / (1 + qf.FrobeniusNorm())
	if diff > 0.05 {
		t.Errorf("subspace and full estimates differ by %g (relative)", diff)
	}
}

func TestEstimateWarmStartConverges(t *testing.T) {
	n := 16
	q, beams, target := rank1Fixture(n)
	src := rng.New(203)
	obs := synthObservations(src, q, beams, 1.0)
	e, err := NewEstimator(n, Options{Gamma: 1, Mu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	q1, _, err := e.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-started second estimate with more data must not be worse at
	// identifying the target direction.
	obs2 := append(obs, synthObservations(src, q, beams, 1.0)...)
	q2, _, err := e.Estimate(obs2, q1)
	if err != nil {
		t.Fatal(err)
	}
	best, bestVal := -1, math.Inf(-1)
	for i, v := range beams {
		if g := q2.QuadForm(v); g > bestVal {
			best, bestVal = i, g
		}
	}
	if best != target {
		t.Errorf("warm-started best beam = %d, want %d", best, target)
	}
}

func TestEstimateAggregateKindRuns(t *testing.T) {
	n := 8
	q, beams, _ := rank1Fixture(n)
	src := rng.New(204)
	obs := synthObservations(src, q, beams, 1.0)
	e, err := NewEstimator(n, Options{Gamma: 1, Kind: Aggregate})
	if err != nil {
		t.Fatal(err)
	}
	qhat, _, err := e.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !qhat.IsHermitian(1e-9) {
		t.Error("aggregate estimate not Hermitian")
	}
}

func TestEstimatePerMeasurementBeatsAggregate(t *testing.T) {
	// Design-choice check (ablation): the per-measurement likelihood
	// identifies the planted direction at least as reliably as the
	// aggregate statistic.
	n := 16
	q, beams, target := rank1Fixture(n)
	gamma := 1.0
	score := func(kind ObjectiveKind) int {
		hits := 0
		for trial := 0; trial < 12; trial++ {
			src := rng.New(int64(300 + trial))
			obs := synthObservations(src, q, beams, gamma)
			e, err := NewEstimator(n, Options{Gamma: gamma, Kind: kind, Mu: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			qhat, _, err := e.Estimate(obs, nil)
			if err != nil {
				t.Fatal(err)
			}
			best, bestVal := -1, math.Inf(-1)
			for i, v := range beams {
				if g := qhat.QuadForm(v); g > bestVal {
					best, bestVal = i, g
				}
			}
			if best == target {
				hits++
			}
		}
		return hits
	}
	pm, ag := score(PerMeasurement), score(Aggregate)
	if pm < ag {
		t.Errorf("per-measurement hits %d < aggregate hits %d", pm, ag)
	}
}

func TestEstimateOnChannelCovariance(t *testing.T) {
	// End-to-end against the channel substrate: estimate the RX
	// covariance of a single-path channel from beamformed energy
	// measurements and verify the top estimated direction is the true
	// AoA's codeword.
	tx, rx := antenna.NewUPA(4, 4), antenna.NewUPA(8, 8)
	ch, err := channel.NewSinglePath(rng.New(205), tx, rx, channel.SinglePathSpec{})
	if err != nil {
		t.Fatal(err)
	}
	cb := antenna.NewGridCodebook(rx, 8, 8, math.Pi, math.Pi/2)
	q := ch.RXCovarianceIsotropic()
	wantBeam, _ := antenna.BestScore(cb.QuadFormScoresInto(q, make([]float64, cb.Size())))

	gamma := 0.5
	src := rng.New(206)
	var beams []cmat.Vector
	for i := 0; i < cb.Size(); i++ {
		beams = append(beams, cb.Beam(i).Weights)
	}
	var obs []Observation
	for rep := 0; rep < 4; rep++ {
		obs = append(obs, synthObservations(src, q, beams, gamma)...)
	}
	e, err := NewEstimator(rx.Elements(), Options{Gamma: gamma, Mu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	qhat, _, err := e.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotBeam, _ := antenna.BestScore(cb.QuadFormScoresInto(qhat, make([]float64, cb.Size())))
	// Accept the true best or one of its grid neighbors (the noisy
	// estimate may land on an adjacent codeword with near-equal gain).
	ok := gotBeam == wantBeam
	for _, nb := range cb.Neighbors(wantBeam) {
		if gotBeam == nb {
			ok = true
		}
	}
	if !ok {
		t.Errorf("estimated best beam %d not at/adjacent to true best %d", gotBeam, wantBeam)
	}
}

func TestEstimateAcceleratedMatchesISTA(t *testing.T) {
	// FISTA and ISTA solve the same problem; their estimates must agree
	// on what matters — the ranking of candidate beams — and land at
	// comparable objective values.
	n := 16
	q, beams, target := rank1Fixture(n)
	src := rng.New(210)
	var obs []Observation
	for rep := 0; rep < 4; rep++ {
		obs = append(obs, synthObservations(src, q, beams, 1.0)...)
	}
	run := func(accel bool) (*cmat.Matrix, Stats) {
		e, err := NewEstimator(n, Options{Gamma: 1, Mu: 0.5, Accelerated: accel, MaxIters: 80, Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		qhat, stats, err := e.Estimate(obs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return qhat, stats
	}
	qi, si := run(false)
	qf, sf := run(true)
	if sf.Iters == 0 {
		t.Fatal("FISTA took no iterations")
	}
	bestOf := func(m *cmat.Matrix) int {
		best, bestVal := -1, math.Inf(-1)
		for i, v := range beams {
			if g := m.QuadForm(v); g > bestVal {
				best, bestVal = i, g
			}
		}
		return best
	}
	if bi, bf := bestOf(qi), bestOf(qf); bi != bf || bi != target {
		t.Errorf("ISTA best=%d, FISTA best=%d, want %d", bi, bf, target)
	}
	if math.Abs(si.Objective-sf.Objective) > 0.05*(1+math.Abs(si.Objective)) {
		t.Errorf("objectives diverge: ISTA %g vs FISTA %g", si.Objective, sf.Objective)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Gamma: 1}.withDefaults()
	if o.Mu != 1 || o.MaxIters != 40 || o.Tol != 1e-5 || o.InitStep != 1 || o.Kind != PerMeasurement {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

// TestStatsEigenIters pins the eigensolve work counter: a solve reports
// its implicit-QL iterations, at least one per decomposition of a
// non-diagonal iterate, and the same input always reports the same
// count.
func TestStatsEigenIters(t *testing.T) {
	q, beams, _ := rank1Fixture(16)
	obs := synthObservations(rng.New(31), q, beams, 10)
	est, err := NewEstimator(16, Options{Gamma: 10, MaxIters: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := est.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.EigenIters < first.EigenDecomps {
		t.Errorf("EigenIters = %d for %d decompositions", first.EigenIters, first.EigenDecomps)
	}
	_, again, err := est.Estimate(obs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.EigenIters != first.EigenIters || again.EigenDecomps != first.EigenDecomps {
		t.Errorf("repeat solve: %d iterations over %d decompositions, first %d over %d",
			again.EigenIters, again.EigenDecomps, first.EigenIters, first.EigenDecomps)
	}
}
