package covest

import (
	"context"
	"math"
	"testing"

	"mmwalign/internal/cmat"
)

// liftFidelity holds the factored result f of e's last solve to the
// dense estimate that lifting every positive eigenpair of the final
// reduced iterate gives: the difference in Frobenius norm must be at
// most the sum of the positive eigenvalues the factor leaves out plus
// 1e-12·‖Q̂‖_F, and the penalized objective over obs must agree to
// 1e-12 relative. It returns how many eigenvalues the factor left out.
func liftFidelity(t testing.TB, e *Estimator, obs []Observation, f *Factor) int {
	t.Helper()
	wk := e.wk
	final := wk.cur
	if e.opts.Accelerated {
		final = wk.best
	}
	eig, err := cmat.EigHermitian(final)
	if err != nil {
		t.Fatal(err)
	}
	n := e.n
	ref := cmat.New(n, n)
	c := cmat.NewVector(n)
	var dropped float64
	var left int
	for k, v := range eig.Values {
		if v <= 0 {
			continue
		}
		if k >= len(f.S) {
			dropped += v
			left++
		}
		c.Zero()
		for i := 0; i < wk.dim; i++ {
			c.AddScaledInPlace(eig.Vectors.At(i, k), wk.basis.RowView(i).Conj())
		}
		ref.AddScaledOuter(complex(v, 0), c)
	}
	ref = ref.Hermitianize()
	got := f.Dense()
	if diff, bound := got.Sub(ref).FrobeniusNorm(), dropped+1e-12*ref.FrobeniusNorm(); diff > bound {
		t.Fatalf("‖Q̂_factor − Q̂_lift‖_F = %g, above the dropped eigenvalues' %g plus 1e-12·‖Q̂‖_F", diff, dropped)
	}
	objective := func(q *cmat.Matrix) float64 {
		var s float64
		for _, o := range obs {
			l := flooredLambda(e.opts.Gamma, q.QuadForm(o.V))
			s += math.Log(l) + o.Energy/l
		}
		return s + e.opts.Mu*real(q.Trace())
	}
	if a, b := objective(got), objective(ref); math.Abs(a-b) > 1e-12*math.Abs(b) {
		t.Fatalf("objective at the factor %v, at the full lift %v", a, b)
	}
	return left
}

// TestFactorMatchesFullLift checks the factored result against the
// lift of every positive eigenpair of the final iterate over the
// alignment sequences, Algorithm 1's and random: ISTA and FISTA, cold and
// warm-started from the previous factor, at every prefix.
func TestFactorMatchesFullLift(t *testing.T) {
	for _, random := range []bool{false, true} {
		factorMatchesFullLift(t, alignmentObservations(t, 11, random))
	}
}

func factorMatchesFullLift(t *testing.T, obs []Observation) {
	for _, accel := range []bool{false, true} {
		for _, warm := range []bool{false, true} {
			e := newAlignEstimator(t, accel)
			var prev *Factor
			var left, solves int
			for l := alignStep; l <= alignMax; l += alignStep {
				f, _, err := e.EstimateFactor(context.Background(), obs[:l], prev)
				if err != nil {
					t.Fatal(err)
				}
				left += liftFidelity(t, e, obs[:l], f)
				solves++
				if warm {
					prev = f
				}
			}
			t.Logf("accel=%v warm=%v: %d noise eigenvalues left out over %d solves", accel, warm, left, solves)
		}
	}
}

// TestReconfiguredEstimatorMatchesFresh reuses one estimator across
// alignments whose γ differs, as a strategy does between realignments,
// and holds every factor to a fresh estimator's under ==.
func TestReconfiguredEstimatorMatchesFresh(t *testing.T) {
	obs := alignmentObservations(t, 15, false)
	reused := newAlignEstimator(t, false)
	for round, gamma := range []float64{1, 0.5, 2.5, 1} {
		opts := Options{Gamma: gamma, MaxIters: 25}
		if err := reused.Reconfigure(opts); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEstimator(alignN, opts)
		if err != nil {
			t.Fatal(err)
		}
		var warmR, warmF *Factor
		for l := alignStep; l <= alignMax; l += alignStep {
			got, gotSt, err := reused.EstimateFactor(context.Background(), obs[:l], warmR)
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := fresh.EstimateFactor(context.Background(), obs[:l], warmF)
			if err != nil {
				t.Fatal(err)
			}
			if !got.UH.Equal(want.UH) || len(got.S) != len(want.S) || gotSt != wantSt {
				t.Fatalf("round %d L=%d: reused estimator's factor or stats differ from a fresh one's", round, l)
			}
			for k := range want.S {
				if got.S[k] != want.S[k] {
					t.Fatalf("round %d L=%d: weight %d = %v, fresh %v", round, l, k, got.S[k], want.S[k])
				}
			}
			warmR, warmF = got, want
		}
	}
	if err := reused.Reconfigure(Options{}); err == nil {
		t.Fatal("Reconfigure accepted a zero γ")
	}
	accel := newAlignEstimator(t, false)
	if err := accel.Reconfigure(Options{Gamma: 1, MaxIters: 25, Accelerated: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := accel.Estimate(obs[:alignMax], nil); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonedDenseWarmStartRecovers hands Estimate a warm start full
// of NaN: the solve must start from zero, flag the recovery and return
// a finite estimate, as it does for a factor warm start whose objective
// is not finite.
func TestPoisonedDenseWarmStartRecovers(t *testing.T) {
	obs := alignmentObservations(t, 16, false)[:alignMax]
	warm := cmat.New(alignN, alignN)
	for i := 0; i < alignN; i++ {
		warm.Set(i, i, complex(math.NaN(), 0))
	}
	for _, dense := range []bool{true, false} {
		e := newAlignEstimator(t, false)
		var q *cmat.Matrix
		var st Stats
		var err error
		if dense {
			q, st, err = e.Estimate(obs, warm)
		} else {
			uh := cmat.New(1, alignN)
			uh.Set(0, 0, complex(math.NaN(), 0))
			var f *Factor
			f, st, err = e.EstimateFactor(context.Background(), obs, &Factor{UH: uh, S: []float64{1}})
			if f != nil {
				q = f.Dense()
			}
		}
		if err != nil || q == nil {
			t.Fatalf("dense=%v: poisoned warm start failed the solve: %v", dense, err)
		}
		if !st.Diagnostics.Recovered {
			t.Errorf("dense=%v: recovery not flagged", dense)
		}
		for _, v := range q.Raw() {
			if v-v != 0 {
				t.Fatalf("dense=%v: estimate holds %v", dense, v)
			}
		}
	}
}
