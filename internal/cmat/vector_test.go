package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return v
}

func TestNewVector(t *testing.T) {
	v := NewVector(5)
	if len(v) != 5 {
		t.Fatalf("len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("v[%d] = %v, want 0", i, x)
		}
	}
}

func TestNewVectorNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative length")
		}
	}()
	NewVector(-1)
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1 + 2i, 3}
	w := Vector{2 - 1i, -3}
	got := v.Add(w)
	want := Vector{3 + 1i, 0}
	if !got.ApproxEqual(want, 0) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if diff := v.Add(w).Sub(w); !diff.ApproxEqual(v, 1e-15) {
		t.Errorf("(v+w)-w = %v, want %v", diff, v)
	}
}

func TestVectorAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestVectorDotConjugateLinearity(t *testing.T) {
	v := Vector{1 + 1i, 2}
	w := Vector{0 + 1i, 1}
	// <v, w> should conjugate the left argument.
	got := v.Dot(w)
	want := cmplx.Conj(1+1i)*(0+1i) + 2*1
	if cmplx.Abs(got-want) > 1e-15 {
		t.Errorf("Dot = %v, want %v", got, want)
	}
}

func TestVectorNorm(t *testing.T) {
	v := Vector{3, 4i}
	if got := v.Norm(); math.Abs(got-5) > 1e-15 {
		t.Errorf("Norm = %g, want 5", got)
	}
}

func TestVectorNormalize(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		v := randVec(r, 1+r.Intn(16))
		u := v.Normalize()
		if math.Abs(u.Norm()-1) > 1e-12 {
			t.Fatalf("normalized norm = %g", u.Norm())
		}
	}
	zero := NewVector(3)
	if got := zero.Normalize(); got.Norm() != 0 {
		t.Errorf("Normalize(0) changed the zero vector: %v", got)
	}
}

func TestVectorDotPropertyNormConsistency(t *testing.T) {
	// Property: <v,v> is real, non-negative, and equals ‖v‖².
	f := func(re, im []float64) bool {
		n := len(re)
		if len(im) < n {
			n = len(im)
		}
		v := make(Vector, n)
		for i := 0; i < n; i++ {
			v[i] = complex(clampF(re[i]), clampF(im[i]))
		}
		d := v.Dot(v)
		nrm := v.Norm()
		return math.Abs(imag(d)) <= 1e-9*(1+real(d)) &&
			real(d) >= 0 &&
			math.Abs(real(d)-nrm*nrm) <= 1e-9*(1+real(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// clampF maps arbitrary float64 quick-check inputs into a sane range so
// properties are not dominated by Inf/NaN/overflow artifacts.
func clampF(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestVectorOuter(t *testing.T) {
	v := Vector{1, 2i}
	w := Vector{1 + 1i}
	m := v.Outer(w)
	if m.Rows() != 2 || m.Cols() != 1 {
		t.Fatalf("shape = %dx%d, want 2x1", m.Rows(), m.Cols())
	}
	if got, want := m.At(0, 0), 1*cmplx.Conj(1+1i); cmplx.Abs(got-want) > 1e-15 {
		t.Errorf("m[0,0] = %v, want %v", got, want)
	}
	if got, want := m.At(1, 0), 2i*cmplx.Conj(1+1i); cmplx.Abs(got-want) > 1e-15 {
		t.Errorf("m[1,0] = %v, want %v", got, want)
	}
}

func TestVectorMaxAbsIndex(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want int
	}{
		{"empty", Vector{}, -1},
		{"single", Vector{5}, 0},
		{"middle", Vector{1, 10i, 2}, 1},
		{"ties pick first", Vector{3, 3}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.MaxAbsIndex(); got != tt.want {
				t.Errorf("MaxAbsIndex = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases the original storage")
	}
}

func TestVectorConj(t *testing.T) {
	v := Vector{1 + 2i, -3i}
	got := v.Conj()
	want := Vector{1 - 2i, 3i}
	if !got.ApproxEqual(want, 0) {
		t.Errorf("Conj = %v, want %v", got, want)
	}
}

func TestScaleInPlaceMatchesScale(t *testing.T) {
	v := Vector{complex(1.5, -2), complex(-0.0, 3), complex(7e-300, 0), complex(-1, -1e300)}
	for _, a := range []complex128{complex(0.3, 0), complex(-2, 0.5), 0} {
		want := v.Scale(a)
		got := v.Clone()
		got.ScaleInPlace(a)
		for i := range v {
			if !bitEqualComplex(got[i], want[i]) {
				t.Fatalf("a=%v: entry %d = %v, Scale gives %v", a, i, got[i], want[i])
			}
		}
	}
}
