package cmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) Hermitian positive definite.
var ErrNotPositiveDefinite = errors.New("cmat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with a = L·Lᴴ for a
// Hermitian positive-definite matrix. Only the lower triangle of a is
// read. Panics if a is not square.
func Cholesky(a *Matrix) (*Matrix, error) {
	a.checkSquare()
	n := a.Rows()
	l := New(n, n)
	for j := 0; j < n; j++ {
		// Diagonal entry.
		d := real(a.At(j, j))
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= real(v)*real(v) + imag(v)*imag(v)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("cholesky pivot %d is %g: %w", j, d, ErrNotPositiveDefinite)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, complex(ljj, 0))
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * cmplx.Conj(l.At(j, k))
			}
			l.Set(i, j, s/complex(ljj, 0))
		}
	}
	return l, nil
}

// PSDSqrt returns a Hermitian square root S of a PSD matrix a, i.e.
// a = S·Sᴴ, computed via the eigendecomposition with negative rounding
// noise clamped to zero. Unlike Cholesky it accepts singular input, which
// is the common case for low-rank spatial covariance matrices.
func PSDSqrt(a *Matrix) (*Matrix, error) {
	e, err := EigHermitian(a)
	if err != nil {
		return nil, fmt.Errorf("psd square root: %w", err)
	}
	n := a.Rows()
	out := New(n, n)
	for j := 0; j < n; j++ {
		lambda := e.Values[j]
		if lambda <= 0 {
			continue
		}
		v := e.Vectors.Col(j)
		out.AddInPlace(complex(math.Sqrt(lambda), 0), v.Outer(v))
	}
	return out, nil
}

// ProjectPSD returns the projection of the Hermitian matrix a onto the
// PSD cone: negative eigenvalues are clamped to zero.
func ProjectPSD(a *Matrix) (*Matrix, error) {
	e, err := EigHermitian(a)
	if err != nil {
		return nil, fmt.Errorf("psd projection: %w", err)
	}
	n := a.Rows()
	out := New(n, n)
	for j := 0; j < n; j++ {
		if e.Values[j] <= 0 {
			continue
		}
		v := e.Vectors.Col(j)
		out.AddInPlace(complex(e.Values[j], 0), v.Outer(v))
	}
	return out, nil
}

// EigenSoftThresholdPSD applies the proximal operator of tau·‖·‖_* over
// the PSD cone to a Hermitian matrix: eigenvalues are shifted down by tau
// and clamped at zero. For PSD-constrained nuclear-norm problems this is
// the exact prox (eigenvalues play the role of singular values).
func EigenSoftThresholdPSD(a *Matrix, tau float64) (*Matrix, error) {
	out := New(a.Rows(), a.Cols())
	if err := EigenSoftThresholdPSDInto(NewEigenWorkspace(a.Rows()), out, a, tau); err != nil {
		return nil, err
	}
	return out, nil
}

// EigenSoftThresholdPSDInto is the allocation-free variant of
// EigenSoftThresholdPSD: the eigendecomposition runs in ews and the
// thresholded reconstruction overwrites dst. dst may alias a (the
// decomposition copies a into workspace storage first) but must not
// alias ews buffers. Identical numerics to EigenSoftThresholdPSD. Only
// the eigenvectors that survive the threshold are formed.
func EigenSoftThresholdPSDInto(ews *EigenWorkspace, dst, a *Matrix, tau float64) error {
	if err := ews.decompose(a); err != nil {
		return fmt.Errorf("eigen soft-threshold: %w", err)
	}
	vals := ews.sortedVals
	kept := 0
	for kept < len(vals) && !(vals[kept]-tau <= 0) {
		kept++
	}
	ews.backTransform(kept)
	dst.Zero()
	for j := 0; j < kept; j++ {
		dst.AddScaledOuterCol(complex(vals[j]-tau, 0), ews.sortedVecs, j)
	}
	return nil
}
