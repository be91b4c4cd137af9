package cmat

import (
	"math"
	"math/rand"
	"testing"
)

// TestCaxpyMatchesGoBitwise pins the active caxpyInto kernel (SSE2
// assembly on amd64) against the portable Go reference, including odd
// lengths that exercise the unroll tail.
func TestCaxpyMatchesGoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	randVal := func() complex128 {
		scale := math.Pow(10, float64(rng.Intn(40)-20))
		return complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
	}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 15, 64, 127, 128} {
		for trial := 0; trial < 20; trial++ {
			x := make([]complex128, n)
			dst := make([]complex128, n)
			for i := range x {
				x[i] = randVal()
				dst[i] = randVal()
			}
			a := randVal()
			want := append([]complex128(nil), dst...)
			caxpyIntoGo(want, x, a)
			caxpyInto(dst, x, a)
			for i := range dst {
				if !bitEqualComplex(dst[i], want[i]) {
					t.Fatalf("n=%d trial %d: dst[%d] = %v, Go reference %v", n, trial, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestMulIntoMatchesPerTermLoop pins that the caxpy-kernel GEMM inner
// loop is bitwise identical to the literal per-term accumulation it
// replaced.
func TestMulIntoMatchesPerTermLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {33, 17, 129}, {56, 64, 56}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		for i := range a.data {
			a.data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := range b.data {
			b.data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got := New(m, n)
		got.MulInto(a, b)
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s complex128
				for kk := 0; kk < k; kk++ {
					s += a.data[i*k+kk] * b.data[kk*n+j]
				}
				want.data[i*n+j] = s
			}
		}
		// The blocked kernel accumulates per entry in ascending k with a
		// memory accumulator — same order as the reference triple loop.
		for i := range got.data {
			if !bitEqualComplex(got.data[i], want.data[i]) {
				t.Fatalf("%dx%dx%d: entry %d = %v, want %v", m, k, n, i, got.data[i], want.data[i])
			}
		}
	}
}

func bitEqualComplex(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}
