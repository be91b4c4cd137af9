package cmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randMat(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, complex(r.NormFloat64(), r.NormFloat64()))
		}
	}
	return m
}

// randHermitian returns a random Hermitian matrix.
func randHermitian(r *rand.Rand, n int) *Matrix {
	return randMat(r, n, n).Hermitianize()
}

// randPSD returns a random Hermitian PSD matrix of the given rank.
func randPSD(r *rand.Rand, n, rank int) *Matrix {
	m := New(n, n)
	for k := 0; k < rank; k++ {
		v := randVec(r, n)
		m.AddInPlace(1, v.Outer(v))
	}
	return m.Hermitianize()
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randMat(r, 4, 6)
	if got := Identity(4).Mul(a); !got.ApproxEqual(a, 1e-14) {
		t.Error("I·A != A")
	}
	if got := a.Mul(Identity(6)); !got.ApproxEqual(a, 1e-14) {
		t.Error("A·I != A")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]complex128{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Errorf("shape = %dx%d", m.Rows(), m.Cols())
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]complex128{{1, 2}, {3}})
}

func TestMulAssociativity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b, c := randMat(r, 3, 5), randMat(r, 5, 4), randMat(r, 4, 2)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	if !left.ApproxEqual(right, 1e-11) {
		t.Error("(AB)C != A(BC)")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := randMat(r, 5, 3)
	v := randVec(r, 3)
	col := New(3, 1)
	col.SetCol(0, v)
	want := a.Mul(col).Col(0)
	if got := a.MulVec(v); !got.ApproxEqual(want, 1e-12) {
		t.Error("MulVec disagrees with Mul on a column matrix")
	}
}

func TestConjTransposeInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randMat(r, 4, 7)
	if !a.ConjTranspose().ConjTranspose().ApproxEqual(a, 0) {
		t.Error("(Aᴴ)ᴴ != A")
	}
}

func TestConjTransposeProduct(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	a, b := randMat(r, 3, 4), randMat(r, 4, 5)
	left := a.Mul(b).ConjTranspose()
	right := b.ConjTranspose().Mul(a.ConjTranspose())
	if !left.ApproxEqual(right, 1e-12) {
		t.Error("(AB)ᴴ != BᴴAᴴ")
	}
}

func TestTraceCyclic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a, b := randMat(r, 4, 6), randMat(r, 6, 4)
	tr1 := a.Mul(b).Trace()
	tr2 := b.Mul(a).Trace()
	if cmplx.Abs(tr1-tr2) > 1e-11 {
		t.Errorf("tr(AB)=%v, tr(BA)=%v", tr1, tr2)
	}
}

func TestHermitianizeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := randMat(r, 6, 6)
	h := a.Hermitianize()
	if !h.IsHermitian(1e-14) {
		t.Error("Hermitianize result is not Hermitian")
	}
	// Hermitianize must be idempotent.
	if !h.Hermitianize().ApproxEqual(h, 1e-14) {
		t.Error("Hermitianize is not idempotent")
	}
	// A Hermitian matrix must be a fixed point.
	if !h.Hermitianize().ApproxEqual(h, 0) {
		t.Error("Hermitian input was modified")
	}
}

func TestQuadFormRealForHermitian(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 25; i++ {
		n := 1 + r.Intn(8)
		h := randHermitian(r, n)
		v := randVec(r, n)
		got := h.QuadForm(v)
		// Cross-check against explicit vᴴ·(H·v).
		want := real(v.Dot(h.MulVec(v)))
		if math.Abs(got-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("QuadForm = %g, want %g", got, want)
		}
	}
}

func TestQuadFormPSDNonNegative(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 25; i++ {
		n := 2 + r.Intn(8)
		p := randPSD(r, n, 1+r.Intn(n))
		v := randVec(r, n)
		if q := p.QuadForm(v); q < -1e-9 {
			t.Fatalf("PSD quadratic form is negative: %g", q)
		}
	}
}

func TestFrobeniusNormUnitaryInvariance(t *testing.T) {
	// The Frobenius norm must be invariant under multiplication by the
	// eigenvector matrix of a Hermitian matrix (which is unitary).
	r := rand.New(rand.NewSource(11))
	h := randHermitian(r, 6)
	e, err := EigHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	a := randMat(r, 6, 6)
	if got, want := e.Vectors.Mul(a).FrobeniusNorm(), a.FrobeniusNorm(); math.Abs(got-want) > 1e-10 {
		t.Errorf("‖UA‖=%g, ‖A‖=%g", got, want)
	}
}

func TestRowColRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := randMat(r, 5, 4)
	for j := 0; j < 4; j++ {
		col := a.Col(j)
		b := a.Clone()
		b.SetCol(j, col)
		if !b.ApproxEqual(a, 0) {
			t.Fatalf("SetCol(Col) changed the matrix at column %d", j)
		}
	}
	for i := 0; i < 5; i++ {
		row := a.Row(i)
		for j := 0; j < 4; j++ {
			if row[j] != a.At(i, j) {
				t.Fatalf("Row(%d)[%d] mismatch", i, j)
			}
		}
	}
}

func TestAddInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randMat(r, 3, 3)
	b := randMat(r, 3, 3)
	want := a.Add(b.Scale(2 + 1i))
	got := a.Clone()
	got.AddInPlace(2+1i, b)
	if !got.ApproxEqual(want, 1e-14) {
		t.Error("AddInPlace disagrees with Add/Scale")
	}
}

func TestOffDiagNorm(t *testing.T) {
	m := FromRows([][]complex128{{5, 3}, {4i, -2}})
	want := math.Sqrt(9 + 16)
	if got := m.OffDiagNorm(); math.Abs(got-want) > 1e-14 {
		t.Errorf("OffDiagNorm = %g, want %g", got, want)
	}
	if d := Diag([]complex128{1, 2, 3}).OffDiagNorm(); d != 0 {
		t.Errorf("diagonal matrix OffDiagNorm = %g, want 0", d)
	}
}

func TestShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(3, 2)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Add mismatch", func() { a.Add(b) }},
		{"Mul mismatch", func() { a.Mul(a) }},
		{"Trace non-square", func() { a.Trace() }},
		{"At out of range", func() { a.At(2, 0) }},
		{"Set out of range", func() { a.Set(0, 3, 1) }},
		{"MulVec mismatch", func() { a.MulVec(NewVector(2)) }},
		{"QuadForm non-square", func() { a.QuadForm(NewVector(3)) }},
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

func TestDiagAndTrace(t *testing.T) {
	d := Diag([]complex128{1, 2i, -3})
	if got := d.Trace(); got != complex(-2, 2) {
		t.Errorf("Trace = %v, want (-2+2i)", got)
	}
}

func TestMatrixStringSmoke(t *testing.T) {
	s := FromRows([][]complex128{{1, 2}}).String()
	if s == "" {
		t.Error("String returned empty output")
	}
}

func TestRowViewAndRawShareStorage(t *testing.T) {
	m := New(3, 4)
	m.RowView(1)[2] = 5
	if m.At(1, 2) != 5 {
		t.Fatalf("write through RowView not seen: At(1,2) = %v", m.At(1, 2))
	}
	m.Reshape(2, 3)
	raw := m.Raw()
	if len(raw) != 12 || raw[6] != 5 {
		t.Fatalf("Raw has %d entries, raw[6] = %v; want the 12 stored entries with the old (1,2) at 6", len(raw), raw[6])
	}
	raw[4] = 7
	if m.At(1, 1) != 7 {
		t.Fatalf("write through Raw not seen at the reshaped (1,1): %v", m.At(1, 1))
	}
}
