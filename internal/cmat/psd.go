package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// PSDSqrt returns a Hermitian square root S of a PSD matrix a, i.e.
// a = S·Sᴴ, computed via the eigendecomposition with negative rounding
// noise clamped to zero. It accepts singular input, which is the common
// case for low-rank spatial covariance matrices.
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
	if _, err := EigenSoftThresholdPSDInto(NewEigenWorkspace(a.Rows()), out, nil, nil, a, tau); err != nil {
		return nil, err
	}
	return out, nil
}

// EigenSoftThresholdPSDInto is the allocation-free variant of
// EigenSoftThresholdPSD that also hands back the low-rank factor of its
// result. The eigendecomposition runs in ews and the thresholded
// reconstruction overwrites dst. dst may alias a (the decomposition
// copies a into workspace storage first) but must not alias ews
// buffers. Identical numerics to EigenSoftThresholdPSD. Only the
// eigenvectors that survive the threshold are formed.
//
// With kept the number of eigenvalues above tau, it writes
// s[k] = val_k − tau and row k of uh as u_kᴴ for k < kept, so
// dst = Σ_k s[k]·u_k·u_kᴴ = uhᴴ·diag(s)·uh. uh is reshaped to kept×n
// over its own storage, which must hold n·n entries, and s must have
// length at least n; a nil uh skips the factor. Returns kept.
func EigenSoftThresholdPSDInto(ews *EigenWorkspace, dst, uh *Matrix, s []float64, a *Matrix, tau float64) (int, error) {
	if err := ews.decompose(a); err != nil {
		return 0, fmt.Errorf("eigen soft-threshold: %w", err)
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
	if uh == nil {
		return kept, nil
	}
	n := ews.n
	uh.Reshape(kept, n)
	vd := ews.sortedVecs.data
	for k := 0; k < kept; k++ {
		s[k] = vals[k] - tau
		row := uh.data[k*n : (k+1)*n]
		for i := range row {
			row[i] = cmplx.Conj(vd[i*n+k])
		}
	}
	return kept, nil
}
