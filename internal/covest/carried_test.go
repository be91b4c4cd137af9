package covest

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"mmwalign/internal/antenna"
	"mmwalign/internal/cmat"
	"mmwalign/internal/rng"
)

// The estimator carries its measurement subspace across calls. These
// tests drive one estimator over the growing observation sequence of an
// alignment (8 measurements per TX slot, up to 96: the shape Algorithm
// 1 produces) and hold it to a fresh estimator per call, bit for bit.

const (
	alignN    = 64
	alignStep = 8
	alignMax  = 96
)

// alignmentObservations draws alignMax+alignStep measurements of a
// rank-two covariance on the 8×8 receiver's 64-beam grid codebook, in
// TX slots of alignStep RX beams each, as Algorithm 1 picks them: the
// first slot at random, every later one the top scorers vᴴQ̂v under the
// estimate from the slots before, skipping beams already sounded with
// the slot's TX beam (four TX beams, visited in turn, each with its own
// gain). With random set, every beam is drawn at random instead, with
// repeats. Every observation gets its own copy of its beam so a test
// can mutate one in place.
func alignmentObservations(t testing.TB, seed int64, random bool) []Observation {
	t.Helper()
	src := rng.New(seed)
	cb := antenna.NewGridCodebook(antenna.NewUPA(8, 8), 8, 8, math.Pi, math.Pi/2)
	a, b := cb.Beam(20).Weights, cb.Beam(43).Weights
	truth := a.Outer(a).Scale(40).Add(b.Outer(b).Scale(12)).Hermitianize()
	const txBeams = 4
	txGain := [txBeams]float64{1, 0.5, 0.2, 0.05}
	sounded := make(map[[2]int]bool)
	var obs []Observation
	var qhat *cmat.Matrix
	for slot := 0; len(obs) < alignMax+alignStep; slot++ {
		tx := slot % txBeams
		var picks []int
		switch {
		case random:
			for k := 0; k < alignStep; k++ {
				picks = append(picks, src.Intn(cb.Size()))
			}
		case qhat == nil:
			picks = src.Perm(cb.Size())[:alignStep]
		default:
			scores := make([]float64, cb.Size())
			for i := range scores {
				scores[i] = qhat.QuadForm(cb.Beam(i).Weights)
			}
			for len(picks) < alignStep {
				best := -1
				for i, sc := range scores {
					if !sounded[[2]int{tx, i}] && (best < 0 || sc > scores[best]) {
						best = i
					}
				}
				sounded[[2]int{tx, best}] = true
				picks = append(picks, best)
			}
		}
		for _, i := range picks {
			sounded[[2]int{tx, i}] = true
			v := cb.Beam(i).Weights.Clone()
			z := src.ComplexNormal(txGain[tx]*truth.QuadForm(v) + 1)
			obs = append(obs, Observation{V: v, Energy: real(z)*real(z) + imag(z)*imag(z)})
		}
		if !random {
			var err error
			if qhat, _, err = newAlignEstimator(t, false).Estimate(obs, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return obs
}

func newAlignEstimator(t testing.TB, accel bool) *Estimator {
	t.Helper()
	e, err := NewEstimator(alignN, Options{Gamma: 1, MaxIters: 25, Accelerated: accel})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sameEstimate fails the test unless q and the fresh estimator's want
// agree at every entry under ==, and the stats agree in every field but
// SetupMadds.
func sameEstimate(t *testing.T, what string, q, want *cmat.Matrix, st, wantSt Stats) {
	t.Helper()
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if q.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: Q[%d,%d] = %v, fresh estimator %v", what, i, j, q.At(i, j), want.At(i, j))
			}
		}
	}
	st.SetupMadds, wantSt.SetupMadds = 0, 0
	if st != wantSt {
		t.Fatalf("%s: stats\n got %+v\nwant %+v", what, st, wantSt)
	}
}

// TestCarriedSubspaceMatchesFresh drives one estimator over an
// alignment's growing sequence, ISTA and FISTA, cold and with each
// estimate warm-starting the next, and checks every call against a
// fresh estimator. The carried run must also spend at most half the
// setup multiply-adds.
func TestCarriedSubspaceMatchesFresh(t *testing.T) {
	for _, random := range []bool{false, true} {
		t.Run(map[bool]string{false: "algorithm1", true: "random"}[random], func(t *testing.T) {
			carriedMatchesFresh(t, alignmentObservations(t, 11, random), !random)
		})
	}
	t.Run("algorithm1-shared-beams", func(t *testing.T) {
		carriedMatchesFresh(t, shareBeams(alignmentObservations(t, 11, false)), true)
	})
}

// shareBeams points every observation whose beam has the same bits as
// an earlier one at that earlier observation's storage, as Algorithm 1
// does when it sounds one codebook beam under several TX beams.
func shareBeams(obs []Observation) []Observation {
	out := append([]Observation(nil), obs...)
	for j := range out {
		for i := 0; i < j; i++ {
			if sameBeam(out[j].V, out[i].V) {
				out[j].V = out[i].V
				break
			}
		}
	}
	return out
}

// TestCarriedBeamsKeptOncePerStorage checks that beams shared between
// observations are remembered once, and that each observation's entry
// holds its beam's bits.
func TestCarriedBeamsKeptOncePerStorage(t *testing.T) {
	obs := shareBeams(alignmentObservations(t, 11, false))
	distinct := map[*complex128]bool{}
	for _, o := range obs[:alignMax] {
		distinct[&o.V[0]] = true
	}
	if len(distinct) == alignMax {
		t.Fatal("fixture shares no beams")
	}
	wk := newAlignEstimator(t, false).work()
	for l := alignStep; l <= alignMax; l += alignStep {
		wk.subspace(obs[:l])
	}
	if len(wk.beamAt) != len(distinct) {
		t.Errorf("%d remembered beams for %d distinct beam slices", len(wk.beamAt), len(distinct))
	}
	for j, o := range obs[:alignMax] {
		if k := wk.carried[j].beam; wk.beamAt[k] != &o.V[0] || !sameBeam(o.V, wk.beam(k)) {
			t.Fatalf("observation %d: entry %d does not hold its beam", j, k)
		}
	}
}

// carriedMatchesFresh runs the four solver variants over obs's growing
// prefixes; with checkSetup, the carried runs must spend at most half
// the setup multiply-adds of fresh ones.
func carriedMatchesFresh(t *testing.T, obs []Observation, checkSetup bool) {
	for _, accel := range []bool{false, true} {
		for _, warm := range []bool{false, true} {
			carried := newAlignEstimator(t, accel)
			var warmC, warmF *cmat.Matrix
			var setupC, setupF int
			for l := alignStep; l <= alignMax; l += alignStep {
				q, st, err := carried.Estimate(obs[:l], warmC)
				if err != nil {
					t.Fatal(err)
				}
				want, wantSt, err := newAlignEstimator(t, accel).Estimate(obs[:l], warmF)
				if err != nil {
					t.Fatal(err)
				}
				what := "accel=" + map[bool]string{false: "false", true: "true"}[accel] +
					" warm=" + map[bool]string{false: "false", true: "true"}[warm]
				sameEstimate(t, what, q, want, st, wantSt)
				setupC += st.SetupMadds
				setupF += wantSt.SetupMadds
				if warm {
					warmC, warmF = q, want
				}
			}
			t.Logf("accel=%v warm=%v: SetupMadds carried %d, fresh %d (%.1f×)", accel, warm, setupC, setupF, float64(setupF)/float64(setupC))
			if checkSetup && setupC*2 > setupF {
				t.Errorf("accel=%v warm=%v: carried SetupMadds %d, fresh %d: not 2× below", accel, warm, setupC, setupF)
			}
		}
	}
}

// TestCarriedSubspaceRebuilds covers the three ways the carried state
// must be dropped: a slid window (the first beam changes), a beam
// mutated in place between calls (same pointer, new values) and Reset.
// Each must give exactly the fresh estimator's answer.
func TestCarriedSubspaceRebuilds(t *testing.T) {
	obs := alignmentObservations(t, 12, true)
	prime := func(e *Estimator) {
		for l := alignStep; l <= alignMax; l += alignStep {
			if _, _, err := e.Estimate(obs[:l], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, e *Estimator, in []Observation) {
		t.Helper()
		q, st, err := e.Estimate(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := newAlignEstimator(t, false).Estimate(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimate(t, what, q, want, st, wantSt)
	}

	e := newAlignEstimator(t, false)
	prime(e)
	check("slid window", e, obs[alignStep:alignMax+alignStep])

	e = newAlignEstimator(t, false)
	prime(e)
	mutated := append([]Observation(nil), obs[:alignMax]...)
	mutated[3].V = mutated[3].V.Clone()
	v := mutated[3].V
	// Equal values behind a new pointer: the carried state is reused and
	// now describes v.
	if _, _, err := e.Estimate(mutated, nil); err != nil {
		t.Fatal(err)
	}
	v[5] *= cmplx.Rect(1, 0.3)
	check("beam mutated in place", e, mutated)

	// A shared beam mutated in place: every observation of that beam
	// changes, and the first one ends the prefix.
	shared := shareBeams(alignmentObservations(t, 12, false))
	e = newAlignEstimator(t, false)
	for l := alignStep; l <= alignMax; l += alignStep {
		if _, _, err := e.Estimate(shared[:l], nil); err != nil {
			t.Fatal(err)
		}
	}
	shared[1].V[2] *= cmplx.Rect(1, 0.3)
	check("shared beam mutated in place", e, shared[:alignMax])

	// A remembered beam's storage reused with new bits by an observation
	// past the prefix, while the prefix keeps the old bits under another
	// pointer: the new observation must not take the stale copy, or
	// restoring the old bits would later pass it off as unchanged.
	e = newAlignEstimator(t, false)
	base := shareBeams(alignmentObservations(t, 12, false))[:alignStep]
	if _, _, err := e.Estimate(base, nil); err != nil {
		t.Fatal(err)
	}
	moved := append([]Observation(nil), base...)
	moved[0].V = base[0].V.Clone()
	reused := base[0]
	old := reused.V[4]
	reused.V[4] *= cmplx.Rect(1, -0.7)
	check("storage reused with new bits", e, append(moved, reused))
	reused.V[4] = old
	check("storage restored", e, append(moved, reused))

	e = newAlignEstimator(t, false)
	prime(e)
	e.Reset()
	if e.wk.nobs != 0 || e.wk.nb != 0 {
		t.Fatalf("Reset kept %d carried beams, %d basis vectors", e.wk.nobs, e.wk.nb)
	}
	check("after Reset", e, obs[:alignMax])
}

// referenceBasis is modified Gram-Schmidt as a from-scratch run builds
// it: every beam in order, two projection passes, capped at n vectors.
func referenceBasis(obs []Observation, n int) []cmat.Vector {
	var basis []cmat.Vector
	for _, o := range obs {
		if len(basis) >= n {
			break
		}
		v := o.V.Clone()
		for pass := 0; pass < 2; pass++ {
			for _, b := range basis {
				v.AddScaledInPlace(-b.Dot(v), b)
			}
		}
		if v.Norm() > 1e-9 {
			basis = append(basis, v.Normalize())
		}
	}
	return basis
}

// sameBits reports whether two complex values are identical bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestSubspaceWorkFallsOverAnAlignment checks the carried basis and
// reductions bit for bit against a from-scratch build at every call of
// the growing sequence, and that carrying them cuts the Gram-Schmidt
// plus reduction multiply-adds of the alignment at least 4×.
func TestSubspaceWorkFallsOverAnAlignment(t *testing.T) {
	obs := alignmentObservations(t, 13, false)
	carried := newAlignEstimator(t, false).work()
	var madds, fresh int
	for l := alignStep; l <= alignMax; l += alignStep {
		madds += carried.subspace(obs[:l])
		fresh += newAlignEstimator(t, false).work().subspace(obs[:l])
		ref := referenceBasis(obs[:l], alignN)
		if carried.nb != len(ref) {
			t.Fatalf("L=%d: basis has %d vectors, from scratch %d", l, carried.nb, len(ref))
		}
		for i, b := range ref {
			for x, bx := range b {
				if !sameBits(cmplx.Conj(carried.basis.At(i, x)), bx) {
					t.Fatalf("L=%d: b_%d[%d] = %v, from scratch %v", l, i, x, cmplx.Conj(carried.basis.At(i, x)), bx)
				}
			}
		}
		for j, o := range obs[:l] {
			for i, b := range ref {
				if got := carried.vmat.At(i, j); !sameBits(got, b.Dot(o.V)) {
					t.Fatalf("L=%d: reduced beam %d entry %d = %v, want %v", l, j, i, got, b.Dot(o.V))
				}
			}
		}
	}
	if madds*4 > fresh {
		t.Errorf("Gram-Schmidt + reduction: carried %d multiply-adds, fresh %d: not 4× below", madds, fresh)
	}
	t.Logf("Gram-Schmidt + reduction multiply-adds per alignment: carried %d, fresh %d (%.1f×)", madds, fresh, float64(fresh)/float64(madds))
}

// TestLiftAndWarmProjectionMatchScalarForms pins the two factor GEMMs
// against the per-vector forms they replace. The lift's row k must be
// (Σ_i u_k[i]·b_i)ᴴ accumulated column at a time, and the warm
// projection's uh·B must hold (b_iᴴ·c_k)*, both under == (the same
// products and order, conjugated, so only the sign of an exact zero may
// differ); and the
// projected start Σ_k s_k·(Bᴴc_k)(Bᴴc_k)ᴴ must match the dense Bᴴ·Q·B
// to rounding. Real-valued inputs, whose products produce exact zeros,
// are included.
func TestLiftAndWarmProjectionMatchScalarForms(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(24)
		realOnly := trial%4 == 3
		draw := func() complex128 {
			if realOnly {
				return complex(r.NormFloat64(), 0)
			}
			return complex(r.NormFloat64(), r.NormFloat64())
		}
		obs := make([]Observation, 1+r.Intn(n+4))
		for j := range obs {
			obs[j].V = cmat.NewVector(n)
			for x := range obs[j].V {
				obs[j].V[x] = draw()
			}
		}
		est, err := NewEstimator(n, Options{Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		wk := est.work()
		wk.subspace(obs)
		dim := wk.nb
		basis := referenceBasis(obs, n)

		// A warm factor of 1–4 random (not necessarily orthonormal) rows.
		k := 1 + r.Intn(4)
		uh := cmat.New(k, n)
		s := make([]float64, k)
		cs := make([]cmat.Vector, k)
		dense := cmat.New(n, n)
		for i := range cs {
			cs[i] = cmat.NewVector(n)
			for x := range cs[i] {
				cs[i][x] = draw()
				uh.Set(i, x, cmplx.Conj(cs[i][x]))
			}
			s[i] = 1 + 9*r.Float64()
			dense.AddScaledOuter(complex(s[i], 0), cs[i])
		}
		got := cmat.New(dim, dim)
		if madds := wk.warmInto(got, uh, s, true); madds != k*n*dim+dim*(dim+1)/2*k {
			t.Fatalf("trial %d: warm projection counted %d multiply-adds", trial, madds)
		}
		for i := 0; i < k; i++ {
			for j, b := range basis {
				if wk.acc.At(i, j) != cmplx.Conj(b.Dot(cs[i])) {
					t.Fatalf("trial %d: (uh·B)[%d,%d] = %v, want conj(b_%dᴴc_%d) = %v", trial, i, j, wk.acc.At(i, j), j, i, cmplx.Conj(b.Dot(cs[i])))
				}
			}
		}
		buf := cmat.NewVector(n)
		for j := 0; j < dim; j++ {
			dense.MulVecInto(buf, basis[j])
			for i := 0; i < dim; i++ {
				want := basis[i].Dot(buf)
				if d := cmplx.Abs(got.At(i, j) - want); d > 1e-12*(1+dense.FrobeniusNorm()) {
					t.Fatalf("trial %d: warm projection (%d,%d) = %v, dense form %v", trial, i, j, got.At(i, j), want)
				}
			}
		}

		// Lift a random reduced factor.
		kept := 1 + r.Intn(dim)
		wk.acc = fit(wk.acc, kept, dim)
		for i := 0; i < kept; i++ {
			for j := 0; j < dim; j++ {
				wk.acc.Set(i, j, draw())
			}
		}
		lifted := wk.liftFactor()
		col := cmat.NewVector(n)
		for i := 0; i < kept; i++ {
			col.Zero()
			for j, b := range basis {
				col.AddScaledInPlace(cmplx.Conj(wk.acc.At(i, j)), b)
			}
			for x := 0; x < n; x++ {
				if lifted.At(i, x) != cmplx.Conj(col[x]) {
					t.Fatalf("trial %d: lift (%d,%d) = %v, want %v", trial, i, x, lifted.At(i, x), cmplx.Conj(col[x]))
				}
			}
		}
	}
}

// TestCarriedEstimateAllocatesOnlyResult pins that once a workspace has
// held an alignment, Estimate over a growing sequence allocates only the
// matrix it returns. GEMM fan-out allocates its goroutines, so the
// check runs on one CPU; and the runtime's post-GC cleanups allocate
// too (they count toward the process-wide malloc total AllocsPerRun
// reads), so the check runs with the collector off.
func TestCarriedEstimateAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	obs := alignmentObservations(t, 14, false)
	e := newAlignEstimator(t, false)
	var q *cmat.Matrix
	pass := func() {
		e.Reset()
		q = nil
		for l := alignStep; l <= alignMax; l += alignStep {
			var err error
			if q, _, err = e.Estimate(obs[:l], q); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	result := testing.AllocsPerRun(5, func() { _ = cmat.New(alignN, alignN) })
	calls := float64(alignMax / alignStep)
	if allocs := testing.AllocsPerRun(3, pass); allocs > calls*result {
		t.Fatalf("a growing sequence of %v estimates allocates %v, want %v (the results only)", calls, allocs, calls*result)
	}
}

// BenchmarkEstimateAlignment runs one alignment's estimates: the growing
// sequence of 8 to 96 observations, each estimate warm-starting the
// next, on one estimator Reset per alignment. setup_madds is the setup
// work of the whole alignment.
func BenchmarkEstimateAlignment(b *testing.B) {
	obs := alignmentObservations(b, 11, false)
	e := newAlignEstimator(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	var setup int
	for i := 0; i < b.N; i++ {
		e.Reset()
		setup = 0
		var q *cmat.Matrix
		for l := alignStep; l <= alignMax; l += alignStep {
			var st Stats
			var err error
			if q, st, err = e.Estimate(obs[:l], q); err != nil {
				b.Fatal(err)
			}
			setup += st.SetupMadds
		}
	}
	b.ReportMetric(float64(setup), "setup_madds")
}

// TestReusedEstimatorRetainedBytes pins the live heap an estimator
// keeps after an Algorithm 1 alignment (8 to 96 observations, each
// estimate warm-starting the next) when it is reused across alignments
// the way a strategy reuses it, Reconfigured in between: the heap a
// forced collection frees once the estimator is dropped. On one CPU
// with the collector off except for the forced collections.
func TestReusedEstimatorRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	obs := alignmentObservations(t, 14, false)
	e := newAlignEstimator(t, false)
	for round := 0; round < 2; round++ {
		if err := e.Reconfigure(Options{Gamma: 1, MaxIters: 25}); err != nil {
			t.Fatal(err)
		}
		var warm *Factor
		for l := alignStep; l <= alignMax; l += alignStep {
			f, _, err := e.EstimateFactor(context.Background(), obs[:l], warm)
			if err != nil {
				t.Fatal(err)
			}
			warm = f
		}
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(e)
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(obs)
	retained := int64(with.HeapAlloc) - int64(without.HeapAlloc)
	t.Logf("estimator retains %d bytes after an alignment", retained)
	// 577 KB is what the estimator retained when it built a dense lift
	// and warm projection; the factored estimate must not need more.
	const bound = 577 << 10
	if retained > bound {
		t.Errorf("estimator retains %d bytes, above the pinned %d", retained, bound)
	}
}
