package cmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

// reconstruct rebuilds V·diag(vals)·Vᴴ from an eigendecomposition.
func reconstruct(e Eigen) *Matrix {
	n := len(e.Values)
	out := New(n, n)
	for j := 0; j < n; j++ {
		v := e.Vectors.Col(j)
		out.AddInPlace(complex(e.Values[j], 0), v.Outer(v))
	}
	return out
}

func TestEigHermitianReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33} {
		h := randHermitian(r, n)
		e, err := EigHermitian(h)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := reconstruct(e)
		if !rec.ApproxEqual(h, 1e-9*(1+h.FrobeniusNorm())) {
			t.Errorf("n=%d: VΛVᴴ != A (err %g)", n, rec.Sub(h).FrobeniusNorm())
		}
	}
}

func TestEigHermitianOrthonormalVectors(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	h := randHermitian(r, 12)
	e, err := EigHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	gram := e.Vectors.ConjTranspose().Mul(e.Vectors)
	if !gram.ApproxEqual(Identity(12), 1e-10) {
		t.Error("eigenvectors are not orthonormal")
	}
}

func TestEigHermitianSortedDescending(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	h := randHermitian(r, 10)
	e, err := EigHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
		t.Errorf("eigenvalues not descending: %v", e.Values)
	}
}

func TestEigHermitianKnownDiagonal(t *testing.T) {
	h := Diag([]complex128{3, -1, 7})
	e, err := EigHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 3, -1}
	for i := range want {
		if math.Abs(e.Values[i]-want[i]) > 1e-12 {
			t.Errorf("value[%d] = %g, want %g", i, e.Values[i], want[i])
		}
	}
}

func TestEigHermitianKnown2x2(t *testing.T) {
	// [[2, i],[-i, 2]] has eigenvalues 3 and 1.
	h := FromRows([][]complex128{{2, 1i}, {-1i, 2}})
	e, err := EigHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-12 || math.Abs(e.Values[1]-1) > 1e-12 {
		t.Errorf("values = %v, want [3 1]", e.Values)
	}
	// Verify the eigenvector equation A v = λ v.
	for j := 0; j < 2; j++ {
		v := e.Vectors.Col(j)
		lhs := h.MulVec(v)
		rhs := v.Scale(complex(e.Values[j], 0))
		if !lhs.ApproxEqual(rhs, 1e-12) {
			t.Errorf("Av != λv for eigenpair %d", j)
		}
	}
}

func TestEigHermitianTraceInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		n := 2 + r.Intn(14)
		h := randHermitian(r, n)
		e, err := EigHermitian(h)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range e.Values {
			sum += v
		}
		if math.Abs(sum-real(h.Trace())) > 1e-9*(1+math.Abs(sum)) {
			t.Fatalf("n=%d: eigenvalue sum %g != trace %g", n, sum, real(h.Trace()))
		}
	}
}

func TestEigHermitianPSDRank(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	n, rank := 10, 3
	p := randPSD(r, n, rank)
	e, err := EigHermitian(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rank; i++ {
		if e.Values[i] <= 1e-9 {
			t.Errorf("eigenvalue %d = %g should be positive", i, e.Values[i])
		}
	}
	for i := rank; i < n; i++ {
		if math.Abs(e.Values[i]) > 1e-8*e.Values[0] {
			t.Errorf("eigenvalue %d = %g should be ~0 for rank-%d matrix", i, e.Values[i], rank)
		}
	}
}

func TestEigHermitianZeroAndEmpty(t *testing.T) {
	e, err := EigHermitian(New(0, 0))
	if err != nil || len(e.Values) != 0 {
		t.Errorf("empty: %v %v", e.Values, err)
	}
	e, err = EigHermitian(New(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Errorf("zero matrix eigenvalue %g", v)
		}
	}
}

func TestTopEigenvector(t *testing.T) {
	// Rank-1 PSD: Q = u uᴴ — the top eigenvector must align with u.
	u := Vector{1, 1i, -1}.Normalize()
	q := u.Outer(u)
	e, err := EigHermitian(q)
	if err != nil {
		t.Fatal(err)
	}
	v, lambda := e.Vectors.Col(0), e.Values[0]
	if math.Abs(lambda-1) > 1e-10 {
		t.Errorf("top eigenvalue = %g, want 1", lambda)
	}
	// Alignment up to a global phase: |<u,v>| ≈ 1.
	if a := cmplx.Abs(u.Dot(v)); math.Abs(a-1) > 1e-10 {
		t.Errorf("|<u,v>| = %g, want 1", a)
	}
}

func TestEigHermitianLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large eigendecomposition in -short mode")
	}
	r := rand.New(rand.NewSource(26))
	h := randHermitian(r, 64)
	e, err := EigHermitian(h)
	if err != nil {
		t.Fatal(err)
	}
	if !reconstruct(e).ApproxEqual(h, 1e-8*(1+h.FrobeniusNorm())) {
		t.Error("64x64 reconstruction failed")
	}
}

// eigenCaseKinds names the structured inputs of the accuracy table and
// of both eigen fuzz corpora; eigenCase builds them by index.
var eigenCaseKinds = []string{
	"random", "rank1+σI", "c·I", "diagonal", "tridiagonal-split", "zero", "scaled-1e150", "scaled-1e-150",
}

// eigenCase returns an n×n Hermitian input of the given kind (modulo
// the number of kinds).
func eigenCase(kind int, r *rand.Rand, n int) *Matrix {
	switch kind % len(eigenCaseKinds) {
	case 1:
		// A rank-one signal over a noise floor: the prox's typical
		// input, with σ repeated n−1 times.
		v := randVec(r, n)
		m := v.Outer(v)
		for i := 0; i < n; i++ {
			m.AddAt(i, i, 0.5)
		}
		return m.Hermitianize()
	case 2:
		return Identity(n).Scale(3)
	case 3:
		d := make([]complex128, n)
		for i := range d {
			d[i] = complex(r.NormFloat64(), 0)
		}
		return Diag(d)
	case 4:
		// Tridiagonal with the coupling of n/2−1 and n/2 zero, so QL
		// starts on two independent blocks.
		m := New(n, n)
		for i := 0; i < n; i++ {
			m.Set(i, i, complex(r.NormFloat64(), 0))
			if i+1 < n && i+1 != n/2 {
				c := complex(r.NormFloat64(), r.NormFloat64())
				m.Set(i+1, i, c)
				m.Set(i, i+1, cmplx.Conj(c))
			}
		}
		return m
	case 5:
		return New(n, n)
	case 6:
		return randHermitian(r, n).Scale(1e150)
	case 7:
		return randHermitian(r, n).Scale(1e-150)
	}
	return randHermitian(r, n)
}

// eigenCaseSizes are the accuracy table's dimensions: the small edge
// cases and the working dimensions the solver sees.
var eigenCaseSizes = []int{1, 2, 3, 4, 16, 24, 56, 64}

// frobenius is ‖m‖_F computed without overflow or underflow at any
// magnitude, so the 1e±150 cases measure real residuals.
func frobenius(m *Matrix) float64 {
	s := m.MaxAbs()
	if s == 0 {
		return 0
	}
	var sum float64
	for _, v := range m.data {
		sum += real(v)/s*(real(v)/s) + imag(v)/s*(imag(v)/s)
	}
	return s * math.Sqrt(sum)
}

// TestEigHermitianAccuracy holds the solver to backward-stable bounds,
// ‖AV − VΛ‖_F ≤ 100·n·ε·‖A‖_F and ‖VᴴV − I‖_F ≤ 100·n·ε, on every
// structured input at every working dimension.
func TestEigHermitianAccuracy(t *testing.T) {
	const eps = 0x1p-52
	for kind, name := range eigenCaseKinds {
		for _, n := range eigenCaseSizes {
			a := eigenCase(kind, rand.New(rand.NewSource(int64(100*kind+n))), n)
			e, err := EigHermitian(a)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if !sort.IsSorted(sort.Reverse(sort.Float64Slice(e.Values))) {
				t.Errorf("%s n=%d: eigenvalues not descending: %v", name, n, e.Values)
			}
			res := a.Mul(e.Vectors)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					res.AddAt(i, j, -e.Vectors.At(i, j)*complex(e.Values[j], 0))
				}
			}
			bound := 100 * float64(n) * eps
			if r, lim := frobenius(res), bound*frobenius(a); r > lim {
				t.Errorf("%s n=%d: ‖AV − VΛ‖_F = %g exceeds %g", name, n, r, lim)
			}
			gram := e.Vectors.ConjTranspose().Mul(e.Vectors).Sub(Identity(n))
			if r := frobenius(gram); r > bound {
				t.Errorf("%s n=%d: ‖VᴴV − I‖_F = %g exceeds %g", name, n, r, bound)
			}
		}
	}
}

// TestEigenRejectsNonFinite pins both entry points to a typed error on
// NaN or ±Inf input — in either part of an entry, diagonal included —
// instead of NaN eigenvalues.
func TestEigenRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		row, col int
		v        complex128
	}{
		{2, 1, complex(math.NaN(), 0)},
		{0, 2, complex(0, math.Inf(1))},
		{1, 1, complex(math.Inf(-1), 0)},
		{1, 1, complex(1, math.NaN())},
	} {
		a := randHermitian(rand.New(rand.NewSource(5)), 3)
		a.Set(tc.row, tc.col, tc.v)
		check := func(entry string, err error) {
			t.Helper()
			var nf *NonFiniteError
			if !errors.Is(err, ErrNonFinite) || !errors.As(err, &nf) {
				t.Fatalf("%s with %v at (%d,%d): err = %v, want a NonFiniteError", entry, tc.v, tc.row, tc.col, err)
			}
			if nf.Row != tc.row || nf.Col != tc.col {
				t.Errorf("%s: error locates (%d,%d), want (%d,%d)", entry, nf.Row, nf.Col, tc.row, tc.col)
			}
		}
		_, err := EigHermitian(a)
		check("EigHermitian", err)
		_, err = NewEigenWorkspace(3).EigHermitian(a)
		check("EigenWorkspace.EigHermitian", err)
		_, err = EigenSoftThresholdPSD(a, 0.1)
		check("EigenSoftThresholdPSD", err)
		dst := Identity(3)
		_, err = EigenSoftThresholdPSDInto(NewEigenWorkspace(3), dst, nil, nil, a, 0.1)
		check("EigenSoftThresholdPSDInto", err)
		if !dst.Equal(Identity(3)) {
			t.Error("EigenSoftThresholdPSDInto wrote dst despite rejecting its input")
		}
	}
}

// TestEigHermitianNearOverflow checks the top of the float64 range:
// entries within a factor 2¹⁰ of MaxFloat64 still decompose accurately,
// and a spectrum beyond MaxFloat64 fails with a typed error — never a
// garbage spectrum. (Such a failure is ErrNonFinite when the reduction
// overflows, ErrNoConvergence when a QL block turns NaN and never splits.)
func TestEigHermitianNearOverflow(t *testing.T) {
	const n = 8
	a := randHermitian(rand.New(rand.NewSource(6)), n).Scale(complex(math.MaxFloat64/1024, 0))
	e, err := EigHermitian(a)
	if err != nil {
		t.Fatalf("entries near MaxFloat64/1024: %v", err)
	}
	res := a.Mul(e.Vectors)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			res.AddAt(i, j, -e.Vectors.At(i, j)*complex(e.Values[j], 0))
		}
	}
	if r, lim := frobenius(res), 100*n*0x1p-52*frobenius(a); !(r <= lim) {
		t.Errorf("‖AV − VΛ‖_F = %g exceeds %g", r, lim)
	}

	ones := New(n, n)
	for i := range ones.data {
		ones.data[i] = complex(math.MaxFloat64/4, 0) // top eigenvalue 2·MaxFloat64
	}
	if _, err := EigHermitian(ones); !errors.Is(err, ErrNonFinite) && !errors.Is(err, ErrNoConvergence) {
		t.Errorf("spectrum beyond MaxFloat64: err = %v, want ErrNonFinite or ErrNoConvergence", err)
	}
}

// TestQLIterationCap drives the QL loop on a tridiagonal that can never
// split — a NaN coupling — and expects ErrNoConvergence after exactly
// maxQLIters iterations rather than a silent NaN spectrum.
func TestQLIterationCap(t *testing.T) {
	ws := NewEigenWorkspace(4)
	copy(ws.d, []float64{1, 2, 3, 4})
	copy(ws.e, []float64{math.NaN(), 1, 1, 0})
	if err := ws.ql(); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if ws.Iters() != maxQLIters {
		t.Errorf("Iters() = %d, want %d", ws.Iters(), maxQLIters)
	}
}

// TestEigenItersDeterministic pins Iters as an exact counter: the same
// input always costs the same iterations, a diagonal input none.
func TestEigenItersDeterministic(t *testing.T) {
	a := randHermitian(rand.New(rand.NewSource(8)), 24)
	ws := NewEigenWorkspace(24)
	if _, err := ws.EigHermitian(a); err != nil {
		t.Fatal(err)
	}
	first := ws.Iters()
	if first == 0 {
		t.Fatal("a dense 24×24 input took no QL iterations")
	}
	if _, err := ws.EigHermitian(eigenCase(3, rand.New(rand.NewSource(9)), 24)); err != nil || ws.Iters() != 0 {
		t.Fatalf("diagonal input: %d iterations, err %v; want 0", ws.Iters(), err)
	}
	if _, err := ws.EigHermitian(a); err != nil || ws.Iters() != first {
		t.Fatalf("repeat: %d iterations, err %v; want %d", ws.Iters(), err, first)
	}
}

// eigenBenchSizes are the working dimensions the solver decomposes: the
// serve 4×4 panel, the mobility sweep's mean reduced basis (16–24), the
// estimate fixture's 56 observations and the full 64-antenna receiver.
var eigenBenchSizes = []int{4, 16, 24, 56, 64}

func BenchmarkEigHermitian(b *testing.B) {
	for _, n := range eigenBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := randHermitian(rand.New(rand.NewSource(int64(n))), n)
			ws := NewEigenWorkspace(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.EigHermitian(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEigenSoftThresholdPSD runs the prox on its typical input: a
// rank-2 signal plus a small full-rank perturbation, thresholded so
// only the signal survives.
func BenchmarkEigenSoftThresholdPSD(b *testing.B) {
	for _, n := range eigenBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(int64(n)))
			h := randPSD(r, n, 2)
			h.AddInPlace(complex(1e-2, 0), randHermitian(r, n))
			ws := NewEigenWorkspace(n)
			dst := New(n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EigenSoftThresholdPSDInto(ws, dst, nil, nil, h, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPSDSqrtRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	// Works on singular PSD matrices.
	p := randPSD(r, 7, 2)
	s, err := PSDSqrt(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Mul(s.ConjTranspose()).ApproxEqual(p, 1e-9*(1+p.FrobeniusNorm())) {
		t.Error("SSᴴ != A")
	}
	if !s.IsHermitian(1e-10) {
		t.Error("PSDSqrt result is not Hermitian")
	}
}

func TestProjectPSD(t *testing.T) {
	m := Diag([]complex128{2, -3, 0.5})
	p, err := ProjectPSD(m)
	if err != nil {
		t.Fatal(err)
	}
	want := Diag([]complex128{2, 0, 0.5})
	if !p.ApproxEqual(want, 1e-10) {
		t.Errorf("ProjectPSD = %v, want %v", p, want)
	}
}

func TestProjectPSDIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	h := randHermitian(r, 8)
	p1, err := ProjectPSD(h)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProjectPSD(p1)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.ApproxEqual(p1, 1e-8*(1+p1.FrobeniusNorm())) {
		t.Error("projection is not idempotent")
	}
}

func TestEigenSoftThresholdPSD(t *testing.T) {
	m := Diag([]complex128{5, 1, 0.2})
	got, err := EigenSoftThresholdPSD(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := Diag([]complex128{4.5, 0.5, 0})
	if !got.ApproxEqual(want, 1e-10) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEigenSoftThresholdReducesRank(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	// Dominant rank-1 component plus small noise; thresholding should
	// recover something close to rank 1.
	v := randVec(r, 8).Normalize()
	q := v.Outer(v).Scale(10).Add(randPSD(r, 8, 8).Scale(complex(0.01, 0))).Hermitianize()
	th, err := EigenSoftThresholdPSD(q, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rank := eigRank(t, th, 1e-6); rank != 1 {
		t.Errorf("thresholded rank = %d, want 1", rank)
	}
}

// eigRank counts the eigenvalues of the Hermitian matrix m whose
// magnitude exceeds tol times the largest magnitude.
func eigRank(t *testing.T, m *Matrix, tol float64) int {
	t.Helper()
	e, err := EigHermitian(m)
	if err != nil {
		t.Fatal(err)
	}
	var max float64
	for _, v := range e.Values {
		max = math.Max(max, math.Abs(v))
	}
	n := 0
	for _, v := range e.Values {
		if max > 0 && math.Abs(v) > tol*max {
			n++
		}
	}
	return n
}

// TestEigenWorkspaceReusesStorageAcrossSizes decomposes matrices of
// shrinking and regrowing size on one workspace: every result must equal
// a fresh workspace's bit for bit, and sizes up to the largest held
// must allocate nothing.
func TestEigenWorkspaceReusesStorageAcrossSizes(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ws := NewEigenWorkspace(0)
	for _, n := range []int{24, 8, 17, 1, 24, 3} {
		a := randHermitian(r, n)
		got, err := ws.EigHermitian(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEigenWorkspace(n).EigHermitian(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("n=%d: value %d = %v, fresh workspace %v", n, i, got.Values[i], want.Values[i])
			}
			for j := 0; j < n; j++ {
				if !bitEqualComplex(got.Vectors.At(i, j), want.Vectors.At(i, j)) {
					t.Fatalf("n=%d: vector entry (%d,%d) = %v, fresh workspace %v", n, i, j, got.Vectors.At(i, j), want.Vectors.At(i, j))
				}
			}
		}
	}
	small := randHermitian(r, 11)
	if allocs := testing.AllocsPerRun(5, func() { ws.EigHermitian(small) }); allocs != 0 {
		t.Fatalf("decomposing below the held size allocates %v, want 0", allocs)
	}
}
