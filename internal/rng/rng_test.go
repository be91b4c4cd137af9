package rng

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitDeterministicAndIndependent(t *testing.T) {
	mk := func() (*Source, *Source) {
		p := New(7)
		return p.Split("channel"), p.Split("noise")
	}
	c1, n1 := mk()
	c2, n2 := mk()
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() || n1.Float64() != n2.Float64() {
			t.Fatal("split streams are not reproducible")
		}
	}
	// Streams with different names must differ.
	p := New(7)
	x, y := p.Split("a"), p.Split("b")
	same := 0
	for i := 0; i < 100; i++ {
		if x.Float64() == y.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sibling splits produced %d/100 identical draws", same)
	}
}

func TestSplitIsPure(t *testing.T) {
	// Same (seed, name) must give the same stream regardless of parent
	// consumption or sibling splits taken in between.
	p1 := New(9)
	a := p1.Split("channel")

	p2 := New(9)
	p2.Float64() // consume parent entropy
	_ = p2.Split("something-else")
	b := p2.Split("channel")

	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split is not a pure function of (seed, name)")
		}
	}
}

func TestSplitRepeatableWithinParent(t *testing.T) {
	p := New(10)
	a, b := p.Split("x"), p.Split("x")
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("two Split calls with the same name diverged")
		}
	}
}

func TestSplitIndexedDistinct(t *testing.T) {
	p := New(3)
	a := p.SplitIndexed("drop", 0)
	p2 := New(3)
	b := p2.SplitIndexed("drop", 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("indexed splits produced %d/100 identical draws", same)
	}
}

func TestComplexNormalMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	variance := 3.0
	var sum complex128
	var pow float64
	for i := 0; i < n; i++ {
		z := s.ComplexNormal(variance)
		sum += z
		pow += real(z)*real(z) + imag(z)*imag(z)
	}
	mean := cmplx.Abs(sum) / n
	if mean > 0.02 {
		t.Errorf("mean modulus = %g, want ~0", mean)
	}
	if got := pow / n; math.Abs(got-variance) > 0.05 {
		t.Errorf("E|z|² = %g, want %g", got, variance)
	}
}

func TestComplexNormalVec(t *testing.T) {
	s := New(12)
	v := s.ComplexNormalVec(16, 1)
	if len(v) != 16 {
		t.Fatalf("len = %d", len(v))
	}
	allZero := true
	for _, z := range v {
		if z != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("vector is all zeros")
	}
}

func TestUnitPhaseOnCircle(t *testing.T) {
	s := New(13)
	for i := 0; i < 100; i++ {
		z := s.UnitPhase()
		if math.Abs(cmplx.Abs(z)-1) > 1e-12 {
			t.Fatalf("|z| = %g, want 1", cmplx.Abs(z))
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	s := New(16)
	const n = 100000
	lambda := 1.8 // the NYC cluster-count rate
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		k := s.Poisson(lambda)
		if k < 0 {
			t.Fatal("negative poisson draw")
		}
		f := float64(k)
		sum += f
		sum2 += f * f
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-lambda) > 0.03 {
		t.Errorf("mean = %g, want %g", mean, lambda)
	}
	if math.Abs(variance-lambda) > 0.06 {
		t.Errorf("var = %g, want %g", variance, lambda)
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	s := New(17)
	if got := s.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	// Large-rate branch: mean should be near lambda.
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(s.Poisson(100))
	}
	if got := sum / n; math.Abs(got-100) > 1 {
		t.Errorf("Poisson(100) mean = %g", got)
	}
}

func TestLaplaceMoments(t *testing.T) {
	s := New(18)
	const n = 200000
	b := 1.5
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.Laplace(b)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %g, want 0", mean)
	}
	if want := 2 * b * b; math.Abs(variance-want) > 0.1 {
		t.Errorf("var = %g, want %g", variance, want)
	}
}

func TestLognormalMedian(t *testing.T) {
	s := New(19)
	const n = 100001
	mu := 0.7
	draws := make([]float64, n)
	for i := range draws {
		draws[i] = s.Lognormal(mu, 0.5)
	}
	// Median of lognormal is e^mu; use a quickselect-free approach: count
	// how many draws fall below e^mu — should be about half.
	below := 0
	for _, d := range draws {
		if d < math.Exp(mu) {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below median = %g, want 0.5", frac)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(20)
	lo, hi := -3.0, 5.0
	for i := 0; i < 1000; i++ {
		x := s.Uniform(lo, hi)
		if x < lo || x >= hi {
			t.Fatalf("draw %g outside [%g, %g)", x, lo, hi)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(21)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestPanicsOnInvalidParameters(t *testing.T) {
	s := New(22)
	cases := []struct {
		name string
		fn   func()
	}{
		{"poisson negative", func() { s.Poisson(-1) }},
		{"laplace b=0", func() { s.Laplace(0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}
