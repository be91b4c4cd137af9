package covest

import (
	"math"
	"testing"

	"mmwalign/internal/antenna"
	"mmwalign/internal/cmat"
	"mmwalign/internal/rng"
)

// denseLambdas is the reference λ_j(Q) = γ·ṽ_jᴴQṽ_j + 1 over the packed
// directions, by scalar quadratic forms.
func denseLambdas(gamma float64, q, vmat *cmat.Matrix) []float64 {
	out := make([]float64, vmat.Cols())
	for j := range out {
		out[j] = flooredLambda(gamma, q.QuadForm(vmat.Col(j)))
	}
	return out
}

// lambdasClose reports whether got matches want to 1e-12 relative.
func lambdasClose(got, want []float64) (int, bool) {
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-12*math.Abs(want[j]) {
			return j, false
		}
	}
	return -1, true
}

// lambdaSpy is a Batcher that checks every λ vector the solver reads
// off a prox factor. At each factor product (a == wk.uh) it records the
// dense λ of the tagged candidate; at the next product, or at flush, it
// compares them with the solver's memoized λ vector, provided that
// vector still describes the candidate.
type lambdaSpy struct {
	t                 *testing.T
	e                 *Estimator
	want              []float64
	wantFor           *cmat.Matrix
	factored, checked int
}

func (s *lambdaSpy) MulInto(dst, a, b *cmat.Matrix) {
	s.flush()
	dst.MulInto(a, b)
	wk := s.e.wk
	if a == wk.uh {
		if wk.factorFor == nil {
			s.t.Fatal("factor product without a tagged candidate")
		}
		s.factored++
		s.wantFor = wk.factorFor
		s.want = denseLambdas(s.e.opts.Gamma, wk.factorFor, wk.vmat)
	}
}

func (s *lambdaSpy) flush() {
	wk := s.e.wk
	if s.want != nil && wk.lamFor == s.wantFor {
		if j, ok := lambdasClose(wk.lambdas, s.want); !ok {
			s.t.Fatalf("factored λ[%d] = %v, dense %v", j, wk.lambdas[j], s.want[j])
		}
		s.checked++
	}
	s.want = nil
}

// gridProblem is a 64-antenna receiver sounding count codebook beams
// against a planted rank-two covariance.
func gridProblem(seed int64, count int) []Observation {
	src := rng.New(seed)
	cb := antenna.NewGridCodebook(antenna.NewUPA(8, 8), 8, 8, math.Pi, math.Pi/2)
	a, b := cb.Beam(20).Weights, cb.Beam(43).Weights
	truth := a.Outer(a).Scale(48).Add(b.Outer(b).Scale(12)).Hermitianize()
	var beams []cmat.Vector
	for j := 0; j < count; j++ {
		beams = append(beams, cb.Beam((j*5)%cb.Size()).Weights)
	}
	return synthObservations(src, truth, beams, 1)
}

// TestFactoredLambdasMatchDense checks every factored λ vector of real
// ISTA and FISTA solves against the dense quadratic form, including a
// solve after Reset on a reused estimator (the pooled-lease path),
// which must also equal a fresh estimator's solve bit for bit.
func TestFactoredLambdasMatchDense(t *testing.T) {
	for _, accel := range []bool{false, true} {
		spy := &lambdaSpy{t: t}
		e, err := NewEstimator(64, Options{Gamma: 1, MaxIters: 25, Accelerated: accel, Batcher: spy})
		if err != nil {
			t.Fatal(err)
		}
		spy.e = e
		if _, _, err := e.Estimate(gridProblem(1, 56), nil); err != nil {
			t.Fatal(err)
		}
		spy.flush()
		first := spy.checked

		// Reset, then lease the estimator for another problem.
		e.Reset()
		if e.wk.factorFor != nil || e.wk.lamFor != nil {
			t.Fatal("Reset left a λ or factor tag behind")
		}
		obs := gridProblem(2, 40)
		got, gotStats, err := e.Estimate(obs, nil)
		if err != nil {
			t.Fatal(err)
		}
		spy.flush()
		if first == 0 || spy.checked == first {
			t.Fatalf("accelerated=%v: checked %d factored λ vectors (%d before Reset), want some on both solves", accel, spy.checked, first)
		}
		freshEst, err := NewEstimator(64, Options{Gamma: 1, MaxIters: 25, Accelerated: accel})
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := freshEst.Estimate(obs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || gotStats != wantStats {
			t.Fatalf("accelerated=%v: solve after Reset differs from a fresh estimator's", accel)
		}
	}
}

// proxFixture prepares a packed workspace and a base point whose prox
// step keeps all, or none, of the eigenpairs.
func proxFixture(t *testing.T, keepAll bool) (*Estimator, *solverWork) {
	t.Helper()
	const dim, l = 9, 14
	est, wk, _, q, _ := randBatchFixture(t, 21, dim, l)
	// p = q·q + I is positive definite with every eigenvalue ≥ 1.
	p := q.Mul(q)
	for i := 0; i < dim; i++ {
		p.AddAt(i, i, 1)
	}
	p.HermitianizeInPlace()
	if keepAll {
		// A tiny step thresholds at 1e-3·µ, below every eigenvalue.
		wk.grad.Zero()
		wk.cur.CopyFrom(p)
	} else {
		// base − step·grad = −p is negative definite: nothing survives.
		wk.grad.CopyFrom(p)
		wk.cur.Zero()
	}
	return est, wk
}

// TestFactoredLambdasKeptBounds covers the two ends of the factor: all
// eigenpairs kept (kept = dim) and none (kept = 0, which must run no
// product and report every λ as the floor-free 1).
func TestFactoredLambdasKeptBounds(t *testing.T) {
	for _, keepAll := range []bool{true, false} {
		est, wk := proxFixture(t, keepAll)
		var calls int
		est.opts.Batcher = batcherFunc(func(dst, a, b *cmat.Matrix) { calls++; dst.MulInto(a, b) })
		var st Stats
		step := 1e-3
		if !keepAll {
			step = 1
		}
		if err := est.proxStepInto(wk, wk.cur, step, &st); err != nil {
			t.Fatal(err)
		}
		dim, l := wk.vmat.Rows(), wk.vmat.Cols()
		kept := wk.uh.Rows()
		if keepAll && kept != dim || !keepAll && kept != 0 {
			t.Fatalf("keepAll=%v: kept %d of %d", keepAll, kept, dim)
		}
		if wk.factorFor != wk.nxt {
			t.Fatal("prox step did not tag its candidate")
		}
		got := est.lambdasFor(wk.nxt, wk, &st)
		want := denseLambdas(est.opts.Gamma, wk.nxt, wk.vmat)
		if j, ok := lambdasClose(got, want); !ok {
			t.Fatalf("keepAll=%v: factored λ[%d] = %v, dense %v", keepAll, j, got[j], want[j])
		}
		if st.LambdaMadds != kept*dim*l {
			t.Fatalf("keepAll=%v: LambdaMadds %d, want %d", keepAll, st.LambdaMadds, kept*dim*l)
		}
		if !keepAll {
			if calls != 0 {
				t.Fatalf("kept = 0 ran %d products, want none", calls)
			}
			for j, v := range got {
				if v != 1 {
					t.Fatalf("kept = 0: λ[%d] = %v, want 1", j, v)
				}
			}
		}
		// An untagged copy takes the dense product.
		cp := wk.nxt.Clone()
		calls = 0
		dense := est.lambdasFor(cp, wk, &st)
		if j, ok := lambdasClose(dense, want); !ok || calls != 1 {
			t.Fatalf("keepAll=%v: dense λ[%d] = %v (products %d), want %v", keepAll, j, dense[j], calls, want[j])
		}
	}
}

type batcherFunc func(dst, a, b *cmat.Matrix)

func (f batcherFunc) MulInto(dst, a, b *cmat.Matrix) { f(dst, a, b) }

// TestFactorBuffersAllocationFree pins that prox steps whose kept count
// changes from trial to trial, and the factored λ that follow, allocate
// nothing once the workspace is sized.
func TestFactorBuffersAllocationFree(t *testing.T) {
	est, wk, _, q, _ := randBatchFixture(t, 8, 12, 20)
	wk.grad.CopyFrom(q)
	p := q.Mul(q)
	wk.cur.CopyFrom(p)
	var st Stats
	steps := []float64{1e-3, 0.5, 4, 40}
	kepts := map[int]bool{}
	run := func() {
		for _, step := range steps {
			if err := est.proxStepInto(wk, wk.cur, step, &st); err != nil {
				t.Fatal(err)
			}
			kepts[wk.uh.Rows()] = true
			est.lambdasFor(wk.nxt, wk, &st)
		}
	}
	run()
	if len(kepts) < 3 {
		t.Fatalf("steps produced kept counts %v, want at least three distinct", kepts)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("prox + factored λ allocate %.1f per pass, want 0", allocs)
	}
}
