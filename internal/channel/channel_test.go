package channel

import (
	"math"
	"testing"

	"mmwalign/internal/antenna"
	"mmwalign/internal/cmat"
	"mmwalign/internal/rng"
)

func testArrays() (antenna.Array, antenna.Array) {
	return antenna.NewUPA(4, 4), antenna.NewUPA(8, 8)
}

func singlePathFixture(t *testing.T, seed int64) *Channel {
	t.Helper()
	tx, rx := testArrays()
	ch, err := NewSinglePath(rng.New(seed), tx, rx, SinglePathSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestNewNormalizesPowers(t *testing.T) {
	tx, rx := testArrays()
	ch, err := New(tx, rx, []Path{
		{Power: 2, AoD: antenna.Direction{Az: 0.1}, AoA: antenna.Direction{Az: 0.2}},
		{Power: 6, AoD: antenna.Direction{Az: -0.3}, AoA: antenna.Direction{Az: 0.4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range ch.Paths {
		total += p.Power
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("total power = %g, want 1", total)
	}
	if math.Abs(ch.Paths[1].Power-0.75) > 1e-12 {
		t.Errorf("path 1 power = %g, want 0.75", ch.Paths[1].Power)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	tx, rx := testArrays()
	if _, err := New(tx, rx, nil); err == nil {
		t.Error("expected error for empty path list")
	}
	if _, err := New(tx, rx, []Path{{Power: -1}}); err == nil {
		t.Error("expected error for negative power")
	}
	if _, err := New(tx, rx, []Path{{Power: 0}}); err == nil {
		t.Error("expected error for zero total power")
	}
}

func TestSampleShapeAndVariation(t *testing.T) {
	ch := singlePathFixture(t, 1)
	src := rng.New(2)
	h1 := ch.Sample(src)
	h2 := ch.Sample(src)
	if h1.Rows() != 64 || h1.Cols() != 16 {
		t.Fatalf("H shape = %dx%d, want 64x16", h1.Rows(), h1.Cols())
	}
	if h1.ApproxEqual(h2, 1e-9) {
		t.Error("consecutive samples are identical; fading is not refreshing")
	}
}

func TestSampleMeanPower(t *testing.T) {
	// E‖H‖_F² = M·N for normalized powers and unit-norm steering vectors.
	ch := singlePathFixture(t, 3)
	src := rng.New(4)
	const trials = 2000
	var sum float64
	for i := 0; i < trials; i++ {
		h := ch.Sample(src)
		f := h.FrobeniusNorm()
		sum += f * f
	}
	want := float64(16 * 64)
	got := sum / trials
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("E‖H‖² = %g, want %g ±10%%", got, want)
	}
}

func TestMeanPairGainMatchesEmpirical(t *testing.T) {
	ch := singlePathFixture(t, 5)
	u := ch.TX.Steering(ch.Paths[0].AoD)
	v := ch.RX.Steering(ch.Paths[0].AoA)
	want := ch.MeanPairGain(u, v)

	src := rng.New(6)
	const trials = 4000
	var sum float64
	for i := 0; i < trials; i++ {
		h := ch.Sample(src)
		z := v.Dot(h.MulVec(u))
		sum += real(z)*real(z) + imag(z)*imag(z)
	}
	got := sum / trials
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("empirical gain %g vs analytic %g", got, want)
	}
}

func TestMeanPairGainMaximalAtTruePath(t *testing.T) {
	ch := singlePathFixture(t, 7)
	uStar := ch.TX.Steering(ch.Paths[0].AoD)
	vStar := ch.RX.Steering(ch.Paths[0].AoA)
	best := ch.MeanPairGain(uStar, vStar)
	// The matched single path gives gain M·N.
	if want := float64(16 * 64); math.Abs(best-want)/want > 1e-9 {
		t.Errorf("matched gain = %g, want %g", best, want)
	}
	// Any mismatched pair must be no better.
	for _, az := range []float64{-1, -0.3, 0.4, 1.2} {
		u := ch.TX.Steering(antenna.Direction{Az: az})
		v := ch.RX.Steering(antenna.Direction{Az: -az / 2})
		if g := ch.MeanPairGain(u, v); g > best+1e-9 {
			t.Errorf("pair at az %g beats matched pair: %g > %g", az, g, best)
		}
	}
}

func TestRXCovarianceProperties(t *testing.T) {
	ch := singlePathFixture(t, 8)
	u := ch.TX.Steering(ch.Paths[0].AoD)
	q := ch.RXCovariance(u)
	if !q.IsHermitian(1e-10) {
		t.Error("Q is not Hermitian")
	}
	// Rank: eigenvalues above 1e-9 of the largest magnitude.
	eig, err := cmat.EigHermitian(q)
	if err != nil {
		t.Fatal(err)
	}
	var max float64
	for _, lam := range eig.Values {
		max = math.Max(max, math.Abs(lam))
	}
	rank := 0
	for _, lam := range eig.Values {
		if math.Abs(lam) > 1e-9*max {
			rank++
		}
	}
	if rank != 1 {
		t.Errorf("single-path covariance rank = %d, want 1", rank)
	}
	// Q's quadratic form at the true AoA must dominate any other direction.
	vStar := ch.RX.Steering(ch.Paths[0].AoA)
	best := q.QuadForm(vStar)
	for _, az := range []float64{-1.2, -0.4, 0.5, 1.3} {
		v := ch.RX.Steering(antenna.Direction{Az: az})
		if g := q.QuadForm(v); g > best+1e-9 {
			t.Errorf("direction az=%g beats true AoA in Q", az)
		}
	}
}

func TestRXCovarianceMatchesEmpirical(t *testing.T) {
	ch := singlePathFixture(t, 9)
	u := ch.TX.Steering(antenna.Direction{Az: 0.2}) // deliberately mismatched
	want := ch.RXCovariance(u)

	src := rng.New(10)
	n := ch.RX.Elements()
	acc := cmat.New(n, n)
	const trials = 3000
	for i := 0; i < trials; i++ {
		hu := ch.Sample(src).MulVec(u)
		acc.AddInPlace(complex(1.0/trials, 0), hu.Outer(hu))
	}
	if diff := acc.Sub(want).FrobeniusNorm() / (1 + want.FrobeniusNorm()); diff > 0.1 {
		t.Errorf("empirical covariance differs by %g (relative)", diff)
	}
}

func TestRXCovarianceIsotropicTrace(t *testing.T) {
	// tr(Q) = N·Σ P_p = N.
	ch := singlePathFixture(t, 11)
	q := ch.RXCovarianceIsotropic()
	if got, want := real(q.Trace()), float64(64); math.Abs(got-want) > 1e-9 {
		t.Errorf("tr(Q) = %g, want %g", got, want)
	}
}

func TestSampleCorrelatedExtremes(t *testing.T) {
	ch := singlePathFixture(t, 12)
	src := rng.New(13)
	// rho=1 freezes the channel.
	h1 := ch.SampleCorrelated(src, 1)
	h2 := ch.SampleCorrelated(src, 1)
	if !h1.ApproxEqual(h2, 1e-12) {
		t.Error("rho=1 did not freeze the channel")
	}
	// rho=0 refreshes it.
	h3 := ch.SampleCorrelated(src, 0)
	if h1.ApproxEqual(h3, 1e-9) {
		t.Error("rho=0 did not refresh the channel")
	}
}

func TestSampleCorrelatedMixing(t *testing.T) {
	// With rho close to 1 consecutive samples stay close.
	ch := singlePathFixture(t, 14)
	src := rng.New(15)
	h1 := ch.SampleCorrelated(src, 0.99)
	h2 := ch.SampleCorrelated(src, 0.99)
	rel := h1.Sub(h2).FrobeniusNorm() / (1 + h1.FrobeniusNorm())
	if rel > 0.5 {
		t.Errorf("rho=0.99 moved channel by %g (relative)", rel)
	}
}

func TestSampleResponseMatchesFullSample(t *testing.T) {
	// SampleResponse must be statistically identical to forming H and
	// projecting: compare second moments.
	ch := singlePathFixture(t, 20)
	u := ch.TX.Steering(ch.Paths[0].AoD)
	v := ch.RX.Steering(antenna.Direction{Az: 0.3})
	want := ch.MeanPairGain(u, v)
	src := rng.New(21)
	const trials = 4000
	var sum float64
	for i := 0; i < trials; i++ {
		z := ch.SampleResponse(src, u, v)
		sum += real(z)*real(z) + imag(z)*imag(z)
	}
	got := sum / trials
	if math.Abs(got-want)/(want+1e-12) > 0.1 {
		t.Errorf("E|SampleResponse|² = %g, want %g", got, want)
	}
}

func TestResponseSamplerMatchesSampleResponse(t *testing.T) {
	ch := singlePathFixture(t, 22)
	u := ch.TX.Steering(ch.Paths[0].AoD)
	v := ch.RX.Steering(ch.Paths[0].AoA)
	// Same seed must give the identical draw sequence for both paths
	// through the code (they consume randomness identically).
	a, b := rng.New(23), rng.New(23)
	sampler := ch.ResponseSampler(u, v)
	for i := 0; i < 20; i++ {
		z1 := ch.SampleResponse(a, u, v)
		z2 := sampler(b)
		if cmplxAbs(z1-z2) > 1e-12*(1+cmplxAbs(z1)) {
			t.Fatalf("draw %d: %v vs %v", i, z1, z2)
		}
	}
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

func TestDriftChangesGeometryPreservesPower(t *testing.T) {
	ch := singlePathFixture(t, 24)
	before := ch.Paths[0]
	u := ch.TX.Steering(before.AoD)
	v := ch.RX.Steering(before.AoA)
	gainBefore := ch.MeanPairGain(u, v)

	src := rng.New(25)
	var total float64
	for i := 0; i < 50; i++ {
		ch.Drift(src, 0.02)
	}
	for _, p := range ch.Paths {
		total += p.Power
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("drift changed total power to %g", total)
	}
	if ch.Paths[0].AoA == before.AoA && ch.Paths[0].AoD == before.AoD {
		t.Error("drift did not move the path")
	}
	// Stale beams must lose gain after substantial drift.
	if gainAfter := ch.MeanPairGain(u, v); gainAfter >= gainBefore {
		t.Errorf("stale beam gain %g did not degrade from %g", gainAfter, gainBefore)
	}
}

func TestDriftClampsToVisibleRegion(t *testing.T) {
	ch := singlePathFixture(t, 26)
	src := rng.New(27)
	for i := 0; i < 200; i++ {
		ch.Drift(src, 0.5)
	}
	for _, p := range ch.Paths {
		if math.Abs(p.AoA.Az) > math.Pi/2 || math.Abs(p.AoA.El) > math.Pi/4 {
			t.Fatalf("AoA %+v escaped clamp", p.AoA)
		}
	}
}

func TestRotateDeterministicAndClamped(t *testing.T) {
	ch := singlePathFixture(t, 30)
	before := ch.Paths[0]
	u := ch.TX.Steering(before.AoD)
	v := ch.RX.Steering(before.AoA)
	gainBefore := ch.MeanPairGain(u, v)

	ch.Rotate(0.05, 0.01)
	p := ch.Paths[0]
	if math.Abs(p.AoA.Az-(before.AoA.Az+0.05)) > 1e-15 || math.Abs(p.AoD.Az-(before.AoD.Az-0.05)) > 1e-15 {
		t.Errorf("azimuth rotation wrong: AoA %v AoD %v from %v/%v", p.AoA, p.AoD, before.AoA, before.AoD)
	}
	if math.Abs(p.AoA.El-(before.AoA.El+0.01)) > 1e-15 || math.Abs(p.AoD.El-(before.AoD.El-0.01)) > 1e-15 {
		t.Errorf("elevation rotation wrong: AoA %v AoD %v", p.AoA, p.AoD)
	}
	// Steering caches must follow the geometry: stale beams lose gain.
	if gainAfter := ch.MeanPairGain(u, v); gainAfter >= gainBefore {
		t.Errorf("stale beam gain %g did not degrade from %g after rotation", gainAfter, gainBefore)
	}
	// Total power is untouched.
	var total float64
	for _, pp := range ch.Paths {
		total += pp.Power
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("rotation changed total power to %g", total)
	}

	// Two channels from the same seed rotated identically stay
	// identical — Rotate consumes no randomness.
	a := singlePathFixture(t, 31)
	b := singlePathFixture(t, 31)
	for i := 0; i < 10; i++ {
		a.Rotate(0.02, -0.005)
		b.Rotate(0.02, -0.005)
	}
	if a.Paths[0] != b.Paths[0] {
		t.Errorf("identical rotations diverged: %+v vs %+v", a.Paths[0], b.Paths[0])
	}

	// Sustained rotation clamps to the visible hemisphere.
	for i := 0; i < 200; i++ {
		a.Rotate(0.5, 0.25)
	}
	pp := a.Paths[0]
	if math.Abs(pp.AoA.Az) > math.Pi/2 || math.Abs(pp.AoA.El) > math.Pi/4 ||
		math.Abs(pp.AoD.Az) > math.Pi/2 || math.Abs(pp.AoD.El) > math.Pi/4 {
		t.Fatalf("rotation escaped clamp: %+v", pp)
	}
}

func TestDominantPaths(t *testing.T) {
	tx, rx := testArrays()
	ch, err := New(tx, rx, []Path{
		{Power: 0.7, AoA: antenna.Direction{Az: 0.1}},
		{Power: 0.05, AoA: antenna.Direction{Az: 0.3}},
		{Power: 0.25, AoA: antenna.Direction{Az: -0.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ch.DominantPaths(0.1)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("DominantPaths = %v, want [0 2]", got)
	}
}

func TestDBConversions(t *testing.T) {
	if got := DBToLinear(10); math.Abs(got-10) > 1e-12 {
		t.Errorf("DBToLinear(10) = %g", got)
	}
	if got := LinearToDB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("LinearToDB(100) = %g", got)
	}
	if !math.IsInf(LinearToDB(0), -1) {
		t.Error("LinearToDB(0) should be -Inf")
	}
	// Round trip.
	for _, db := range []float64{-30, -3, 0, 12.5} {
		if got := LinearToDB(DBToLinear(db)); math.Abs(got-db) > 1e-9 {
			t.Errorf("round trip %g -> %g", db, got)
		}
	}
}
