// Package cmat implements dense complex linear algebra for the beam
// alignment library: vectors, matrices, Hermitian eigendecomposition
// (Householder tridiagonalization and implicit-shift QL), blocked
// matrix products, and the positive-semidefinite-cone operators
// (projection, spectral soft-thresholding) required by the
// nuclear-norm-regularized covariance estimator.
//
// The package is self-contained (standard library only) and tuned for the
// moderate problem sizes of mmWave beam alignment (matrices up to a few
// hundred rows). All algorithms are deterministic.
//
// Conventions:
//   - Matrices are dense, row-major, zero-indexed.
//   - "Hermitian" routines only read the upper triangle unless stated
//     otherwise; callers are expected to hand in numerically Hermitian
//     input (see Hermitianize).
//   - Methods that cannot fail mutate or return values directly; methods
//     with preconditions on shape panic with a descriptive message, since
//     shape mismatches are programmer errors, while numerical failures
//     (e.g. non-finite input to the eigensolver) return errors.
package cmat
