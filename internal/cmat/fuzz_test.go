package cmat

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// fuzzHermitian derives a deterministic Hermitian test matrix from fuzz
// inputs: dimension from n (1 to 64), structure from kind (one of
// eigenCaseKinds), entries from seed, overall magnitude from scale
// (spanning tiny to large matrices so tolerance scaling is exercised
// too).
func fuzzHermitian(seed int64, n, kind uint8, scale float64) *Matrix {
	dim := 1 + int(n)%64
	r := rand.New(rand.NewSource(seed))
	h := eigenCase(int(kind), r, dim)
	if !math.IsInf(scale, 0) && !math.IsNaN(scale) && scale != 0 {
		h = h.Scale(complex(scale, 0))
	}
	return h.Hermitianize()
}

// addEigenCaseSeeds seeds a corpus with every structured kind at every
// accuracy-table dimension, through add(seed, n, kind).
func addEigenCaseSeeds(add func(seed int64, n, kind uint8)) {
	for kind := range eigenCaseKinds {
		for _, dim := range eigenCaseSizes {
			add(int64(100*kind+dim), uint8(dim-1), uint8(kind))
		}
	}
}

// overflowed reports whether a decomposition of h may legitimately
// fail: entries within a few orders of MaxFloat64 (or already
// overflowed to ±Inf by the fuzzer's scale) can overflow inside the
// reduction or a QL sweep, which must then surface as a typed error.
func overflowed(h *Matrix, err error) bool {
	return h.MaxAbs() > 1e300 && (errors.Is(err, ErrNonFinite) || errors.Is(err, ErrNoConvergence))
}

// FuzzEigHermitian asserts the eigensolver contract on arbitrary
// Hermitian inputs: A = V·diag(λ)·Vᴴ within tolerance, eigenvalues
// sorted descending, eigenvectors orthonormal, and the workspace path
// bitwise identical to the package-level entry point.
func FuzzEigHermitian(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), 1.0)
	f.Add(int64(7), uint8(0), uint8(0), 1e-8)
	f.Add(int64(42), uint8(15), uint8(0), 1e6)
	f.Add(int64(-3), uint8(63), uint8(0), -2.5)
	f.Add(int64(99), uint8(8), uint8(0), 0.0)
	addEigenCaseSeeds(func(seed int64, n, kind uint8) { f.Add(seed, n, kind, 1.0) })
	f.Fuzz(func(t *testing.T, seed int64, n, kind uint8, scale float64) {
		h := fuzzHermitian(seed, n, kind, scale)
		dim := h.Rows()
		e, err := EigHermitian(h)
		if overflowed(h, err) {
			return
		}
		if err != nil {
			t.Fatalf("dim=%d scale=%g: %v", dim, scale, err)
		}
		for i := 1; i < dim; i++ {
			if e.Values[i] > e.Values[i-1] {
				t.Fatalf("eigenvalues not descending at %d: %v", i, e.Values)
			}
		}
		norm := h.FrobeniusNorm()
		tol := 1e-9 * (1 + norm)
		if rec := reconstruct(e); !rec.ApproxEqual(h, tol) {
			t.Errorf("dim=%d: reconstruction error %g exceeds %g",
				dim, rec.Sub(h).FrobeniusNorm(), tol)
		}
		gram := e.Vectors.ConjTranspose().Mul(e.Vectors)
		if !gram.ApproxEqual(Identity(dim), 1e-9) {
			t.Errorf("dim=%d: eigenvectors not orthonormal", dim)
		}
		// The workspace entry point must agree bitwise with the
		// package-level one — the solver hot path depends on it.
		ws := NewEigenWorkspace(dim)
		we, err := ws.EigHermitian(h)
		if err != nil {
			t.Fatalf("workspace path failed where fresh path succeeded: %v", err)
		}
		for i := range e.Values {
			if e.Values[i] != we.Values[i] {
				t.Fatalf("workspace eigenvalue %d differs bitwise: %v vs %v", i, e.Values[i], we.Values[i])
			}
		}
		if !e.Vectors.Equal(we.Vectors) {
			t.Fatal("workspace eigenvectors differ bitwise from fresh path")
		}
	})
}

// FuzzEigenSoftThresholdPSD asserts the prox contract: the output is
// PSD, its spectrum is the soft-thresholded input spectrum, and the
// allocation-free Into variant matches the allocating one bitwise —
// including when dst aliases the input.
func FuzzEigenSoftThresholdPSD(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), 1.0, 0.5)
	f.Add(int64(2), uint8(7), uint8(0), -1.0, 0.0)
	f.Add(int64(5), uint8(11), uint8(0), 100.0, 7.5)
	f.Add(int64(8), uint8(2), uint8(0), 1e-6, 1e-9)
	addEigenCaseSeeds(func(seed int64, n, kind uint8) { f.Add(seed, n, kind, 1.0, 0.75) })
	f.Fuzz(func(t *testing.T, seed int64, n, kind uint8, scale, tau float64) {
		if math.IsNaN(tau) || math.IsInf(tau, 0) {
			return
		}
		tau = math.Abs(tau)
		h := fuzzHermitian(seed, n, kind, scale)
		dim := h.Rows()
		out, err := EigenSoftThresholdPSD(h, tau)
		if overflowed(h, err) {
			return
		}
		if err != nil {
			t.Fatalf("dim=%d tau=%g: %v", dim, tau, err)
		}
		norm := h.FrobeniusNorm()
		tol := 1e-8 * (1 + norm)
		oe, err := EigHermitian(out)
		if err != nil {
			t.Fatal(err)
		}
		for i, lambda := range oe.Values {
			if lambda < -tol {
				t.Errorf("output eigenvalue %d = %g is negative beyond tolerance", i, lambda)
			}
		}
		// Spectrum mapping: λ_out,i = max(λ_in,i − tau, 0) pairwise in
		// sorted order (soft-threshold is order-preserving).
		ie, err := EigHermitian(h)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ie.Values {
			want := math.Max(ie.Values[i]-tau, 0)
			if math.Abs(oe.Values[i]-want) > tol {
				t.Errorf("eigenvalue %d: got %g, want max(%g-%g,0)=%g",
					i, oe.Values[i], ie.Values[i], tau, want)
			}
		}
		// Into variant, dst aliasing the input, must match bitwise.
		alias := h.Clone()
		if _, err := EigenSoftThresholdPSDInto(NewEigenWorkspace(dim), alias, nil, nil, alias, tau); err != nil {
			t.Fatal(err)
		}
		if !alias.Equal(out) {
			t.Error("aliased Into variant differs bitwise from allocating variant")
		}
		// The factor describes the same matrix: Σ_k s_k·u_k·u_kᴴ with
		// u_kᴴ the rows of uh, and asking for it leaves dst's bits alone.
		fdst, uh, sv := New(dim, dim), New(dim, dim), make([]float64, dim)
		kept, err := EigenSoftThresholdPSDInto(NewEigenWorkspace(dim), fdst, uh, sv, h, tau)
		if err != nil {
			t.Fatal(err)
		}
		if !fdst.Equal(out) {
			t.Error("factor-returning call differs bitwise from allocating variant")
		}
		if uh.Rows() != kept || uh.Cols() != dim {
			t.Fatalf("factor shape %dx%d, want %dx%d", uh.Rows(), uh.Cols(), kept, dim)
		}
		rec := New(dim, dim)
		for k := 0; k < kept; k++ {
			if !(sv[k] > 0) {
				t.Errorf("kept value %d = %g, want positive", k, sv[k])
			}
			u := uh.Row(k)
			for i := range u {
				u[i] = cmplx.Conj(u[i])
			}
			rec.AddScaledOuter(complex(sv[k], 0), u)
		}
		if !rec.ApproxEqual(out, tol) {
			t.Error("factor reconstruction differs from the thresholded matrix")
		}
	})
}

// TestEigenWorkspaceReuse pins the workspace reuse contract: one
// workspace decomposing a stream of different matrices — including a
// dimension change mid-stream — produces bitwise the same results as a
// fresh decomposition per matrix.
func TestEigenWorkspaceReuse(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	ws := NewEigenWorkspace(4)
	for trial := 0; trial < 20; trial++ {
		dim := 1 + r.Intn(12)
		h := randHermitian(r, dim)
		fresh, err := EigHermitian(h)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := ws.EigHermitian(h)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.Values {
			if fresh.Values[i] != reused.Values[i] {
				t.Fatalf("trial %d dim %d: eigenvalue %d differs bitwise", trial, dim, i)
			}
		}
		if !fresh.Vectors.Equal(reused.Vectors) {
			t.Fatalf("trial %d dim %d: eigenvectors differ bitwise", trial, dim)
		}
	}
}

// TestEigHermitianInputSymmetrizationInvariance checks that the solver
// sees only the Hermitian part of its input: decomposing a and its
// explicit symmetrization (a+aᴴ)/2 must agree bitwise.
func TestEigHermitianInputSymmetrizationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for _, n := range []int{2, 5, 9} {
		a := randMat(r, n, n) // deliberately non-Hermitian
		e1, err := EigHermitian(a)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := EigHermitian(a.Hermitianize())
		if err != nil {
			t.Fatal(err)
		}
		for i := range e1.Values {
			if e1.Values[i] != e2.Values[i] {
				t.Fatalf("n=%d: eigenvalue %d differs between a and herm(a)", n, i)
			}
		}
		if !e1.Vectors.Equal(e2.Vectors) {
			t.Fatalf("n=%d: eigenvectors differ between a and herm(a)", n)
		}
	}
}
