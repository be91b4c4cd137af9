package cmat

import "math/cmplx"

// cdotDiagHerm2Go is the portable reference for the diagonal-weighted
// Hermitian dot pair: s0 = Σ_j d[j]·(a[j]·conj(b0[j])) and likewise s1
// over b1, each accumulated in ascending j — exactly the per-entry
// expression of the MulDiagGramInto contract. Pairing two output
// entries per pass gives the kernel two independent accumulation
// chains (the ordered sum per entry is untouched), which is what lets
// the SIMD form hide the add-latency the single-chain loop was bound
// by.
func cdotDiagHerm2Go(a, d, b0, b1 []complex128) (s0, s1 complex128) {
	for j, av := range a {
		dv := d[j]
		s0 += dv * (av * cmplx.Conj(b0[j]))
		s1 += dv * (av * cmplx.Conj(b1[j]))
	}
	return s0, s1
}
