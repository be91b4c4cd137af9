package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestCdotDiagHerm2MatchesGoBitwise pins the active cdotDiagHerm2
// kernel (SSE2 assembly on amd64) against the portable Go reference,
// and the Go reference against the literal single-entry expression.
func TestCdotDiagHerm2MatchesGoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randVal := func() complex128 {
		scale := math.Pow(10, float64(rng.Intn(40)-20))
		return complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
	}
	for _, n := range []int{0, 1, 2, 3, 7, 31, 56, 64} {
		for trial := 0; trial < 20; trial++ {
			a := make([]complex128, n)
			d := make([]complex128, n)
			b0 := make([]complex128, n)
			b1 := make([]complex128, n)
			for i := 0; i < n; i++ {
				a[i], d[i], b0[i], b1[i] = randVal(), randVal(), randVal(), randVal()
			}
			want0, want1 := cdotDiagHerm2Go(a, d, b0, b1)
			// The Go reference must itself match the literal per-entry
			// loop it abbreviates.
			var lit0, lit1 complex128
			for j := range a {
				lit0 += d[j] * (a[j] * cmplx.Conj(b0[j]))
				lit1 += d[j] * (a[j] * cmplx.Conj(b1[j]))
			}
			if !bitEqualComplex(want0, lit0) || !bitEqualComplex(want1, lit1) {
				t.Fatalf("n=%d: Go reference diverges from literal loop", n)
			}
			got0, got1 := cdotDiagHerm2(a, d, b0, b1)
			if !bitEqualComplex(got0, want0) || !bitEqualComplex(got1, want1) {
				t.Fatalf("n=%d trial %d: kernel (%v, %v), Go reference (%v, %v)",
					n, trial, got0, got1, want0, want1)
			}
		}
	}
}

// TestMulDiagGramIntoOddColumns exercises the paired kernel's odd-tail
// path and the mirrored lower triangle against a naive reference at odd
// and even dimensions (300 shapes), with exact zeros in the operand and
// the diagonal. Entries on and above the diagonal must match bit for bit;
// mirrored entries must match under == (only the sign of an exact zero
// may differ). The test runs under both the SSE2 build and -tags
// purego.
func TestMulDiagGramIntoOddColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := [][2]int{{1, 1}, {2, 3}, {3, 5}, {5, 4}, {7, 9}, {8, 8}, {33, 40}, {56, 56}}
	for len(shapes) < 300 {
		shapes = append(shapes, [2]int{1 + rng.Intn(24), 1 + rng.Intn(30)})
	}
	for _, dims := range shapes {
		rows, inner := dims[0], dims[1]
		for trial := 0; trial < 2; trial++ {
			a := New(rows, inner)
			d := make([]complex128, inner)
			for i := range a.data {
				if rng.Intn(5) == 0 {
					continue // exact zero
				}
				a.data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for i := range d {
				if rng.Intn(4) != 0 {
					d[i] = complex(rng.NormFloat64(), 0)
				}
			}
			got := New(rows, rows)
			got.MulDiagGramInto(a, d)
			for i := 0; i < rows; i++ {
				for k := 0; k < rows; k++ {
					var want complex128
					for j := 0; j < inner; j++ {
						want += d[j] * (a.data[i*inner+j] * cmplx.Conj(a.data[k*inner+j]))
					}
					g := got.data[i*rows+k]
					if k >= i && !bitEqualComplex(g, want) || g != want {
						t.Fatalf("rows=%d inner=%d trial %d: entry (%d,%d) = %v, want %v", rows, inner, trial, i, k, g, want)
					}
				}
			}
		}
	}
}
