package cmat

import (
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
)

// mulRef is the scalar reference MulInto replaces: one MulVecInto per
// column of b. The batched kernel's contract is bitwise equality with
// this path, not approximate equality.
func mulRef(a, b *Matrix) *Matrix {
	out := New(a.Rows(), b.Cols())
	col := NewVector(b.Rows())
	res := NewVector(a.Rows())
	for j := 0; j < b.Cols(); j++ {
		for i := 0; i < b.Rows(); i++ {
			col[i] = b.At(i, j)
		}
		a.MulVecInto(res, col)
		for i := 0; i < a.Rows(); i++ {
			out.Set(i, j, res[i])
		}
	}
	return out
}

func requireBitEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: entry (%d,%d) = %v, want %v (bitwise)", name, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMulIntoMatchesMulVecBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, shape := range [][3]int{{1, 1, 1}, {3, 5, 4}, {17, 9, 31}, {56, 56, 56}, {129, 64, 200}} {
		a := randMat(r, shape[0], shape[1])
		b := randMat(r, shape[1], shape[2])
		got := New(shape[0], shape[2])
		got.MulInto(a, b)
		requireBitEqual(t, "MulInto", got, mulRef(a, b))
	}
}

func TestMulIntoParallelMatchesSerialBitwise(t *testing.T) {
	// Force the goroutine fan-out even on single-CPU runners: the
	// parallel path must be bitwise identical to the serial one for any
	// worker count.
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	r := rand.New(rand.NewSource(12))
	// 48·48·64 multiply-adds exceed gemmParallelOps with ≥32 rows, so
	// this shape takes the parallel path.
	a := randMat(r, 48, 48)
	b := randMat(r, 48, 64)
	if !gemmParallel(48, 48*48*64) {
		t.Fatal("fixture does not reach the parallel path; thresholds changed?")
	}
	got := New(48, 64)
	got.MulInto(a, b)
	requireBitEqual(t, "parallel MulInto", got, mulRef(a, b))

	herm := New(48, 48)
	herm.MulHermInto(a, a)
	ref := New(48, 48)
	mulHermIntoRows(ref, a, a, 0, 48)
	requireBitEqual(t, "parallel MulHermInto", herm, ref)
}

func TestMulHermIntoMatchesDotReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randMat(r, 7, 11)
	b := randMat(r, 5, 11)
	got := New(7, 5)
	got.MulHermInto(a, b)
	// Reference: dst[i][k] = <conj-free row dot> = conj(b-row) paired
	// with a-row in ascending j — exactly Vector.Dot(brow, arow)
	// conjugate-swapped, written as an explicit ordered loop.
	want := New(7, 5)
	for i := 0; i < 7; i++ {
		for k := 0; k < 5; k++ {
			var s complex128
			for j := 0; j < 11; j++ {
				s += a.At(i, j) * conj(b.At(k, j))
			}
			want.Set(i, k, s)
		}
	}
	requireBitEqual(t, "MulHermInto", got, want)
}

func TestMulDiagGramIntoMatchesRankOneAccumulation(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	const dim, l = 9, 13
	vm := randMat(r, dim, l)
	d := make([]complex128, l)
	for j := range d {
		d[j] = complex(r.NormFloat64(), 0)
	}
	got := New(dim, dim)
	got.MulDiagGramInto(vm, d)

	// Reference: the outer-product accumulation the solver used before
	// batching — ref += d[j]·(col_j·col_jᴴ) in ascending j, with the
	// same d·(a·conj(b)) grouping.
	ref := New(dim, dim)
	outer := New(dim, dim)
	for j := 0; j < l; j++ {
		c := vm.Col(j)
		outer.SetOuter(c, c)
		ref.AddInPlace(d[j], outer)
	}
	// The upper triangle is computed and must match bit for bit; the
	// lower one is mirrored and must match under ==.
	for i := 0; i < dim; i++ {
		for k := 0; k < dim; k++ {
			g, w := got.At(i, k), ref.At(i, k)
			if k >= i && !bitEqualComplex(g, w) || g != w {
				t.Fatalf("MulDiagGramInto (%d,%d) = %v, want %v", i, k, g, w)
			}
		}
	}
}

func TestColumnDotsIntoMatchesVectorDot(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	a := randMat(r, 12, 7)
	b := randMat(r, 12, 7)
	got := make([]complex128, 7)
	ColumnDotsInto(got, a, b)
	for j := 0; j < 7; j++ {
		if want := a.Col(j).Dot(b.Col(j)); got[j] != want {
			t.Fatalf("column %d: %v, want %v (bitwise)", j, got[j], want)
		}
	}
}

func TestGEMMShapeAndAliasPanics(t *testing.T) {
	a := New(3, 4)
	b := New(4, 2)
	dst := New(3, 2)
	cases := []struct {
		name string
		f    func()
	}{
		{"MulInto shape", func() { New(2, 2).MulInto(a, b) }},
		{"MulInto alias", func() { sq := New(3, 3); sq.MulInto(sq, New(3, 3)) }},
		{"MulHermInto shape", func() { dst.MulHermInto(a, New(5, 9)) }},
		{"MulHermInto dst alias", func() { sq := New(3, 3); sq.MulHermInto(sq, sq) }},
		{"MulDiagGramInto diag len", func() { New(3, 3).MulDiagGramInto(a, make([]complex128, 2)) }},
		{"MulDiagGramInto shape", func() { New(4, 4).MulDiagGramInto(a, make([]complex128, 4)) }},
		{"MulDiagGramInto alias", func() { sq := New(3, 3); sq.MulDiagGramInto(sq, make([]complex128, 3)) }},
		{"Reshape over capacity", func() { New(2, 2).Reshape(3, 2) }},
		{"ColumnDotsInto short dst", func() { ColumnDotsInto(make([]complex128, 3), a, a) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// TestLowRankIntoMatchesOuterSum checks the factor-to-dense kernel
// against the rank-one sum Σ_k s_k·u_k·u_kᴴ it replaces, to rounding,
// and that its result is exactly Hermitian with a real diagonal.
func TestLowRankIntoMatchesOuterSum(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n, k := 1+r.Intn(20), r.Intn(5)
		uh := New(k, n)
		s := make([]float64, k)
		ref := New(n, n)
		for i := 0; i < k; i++ {
			u := NewVector(n)
			for x := range u {
				u[x] = complex(r.NormFloat64(), r.NormFloat64())
				uh.Set(i, x, cmplx.Conj(u[x]))
			}
			s[i] = r.Float64() * 10
			ref.AddScaledOuter(complex(s[i], 0), u)
		}
		got := New(n, n)
		got.LowRankInto(uh, s)
		for x := 0; x < n; x++ {
			if imag(got.At(x, x)) != 0 {
				t.Fatalf("trial %d: diagonal (%d,%d) = %v, not real", trial, x, x, got.At(x, x))
			}
			for y := 0; y < n; y++ {
				if got.At(y, x) != cmplx.Conj(got.At(x, y)) {
					t.Fatalf("trial %d: (%d,%d) is not the conjugate of its mirror", trial, y, x)
				}
				if d := cmplx.Abs(got.At(x, y) - ref.At(x, y)); d > 1e-12*(1+cmplx.Abs(ref.At(x, y))) {
					t.Fatalf("trial %d: (%d,%d) = %v, outer sum %v", trial, x, y, got.At(x, y), ref.At(x, y))
				}
			}
		}
	}
}
