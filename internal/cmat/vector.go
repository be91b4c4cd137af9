package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Vector is a dense complex column vector.
type Vector []complex128

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("cmat: negative vector length %d", n))
	}
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w. Panics if lengths differ.
func (v Vector) Add(w Vector) Vector {
	checkSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. Panics if lengths differ.
func (v Vector) Sub(w Vector) Vector {
	checkSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns a*v.
func (v Vector) Scale(a complex128) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// Dot returns the Hermitian inner product <v, w> = vᴴw.
// Panics if lengths differ.
func (v Vector) Dot(w Vector) complex128 {
	checkSameLen(v, w)
	var s complex128
	for i := range v {
		s += cmplx.Conj(v[i]) * w[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖₂.
func (v Vector) Norm() float64 {
	var s float64
	for i := range v {
		re, im := real(v[i]), imag(v[i])
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// Normalize returns v/‖v‖₂. A zero vector is returned unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v.Clone()
	}
	return v.Scale(complex(1/n, 0))
}

// AddScaledInPlace adds alpha*w to v in place. Panics if lengths
// differ. The allocation-free counterpart of v.Add(w.Scale(alpha)).
func (v Vector) AddScaledInPlace(alpha complex128, w Vector) {
	checkSameLen(v, w)
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// ScaleInPlace multiplies v by a in place, entry values bitwise
// identical to v.Scale(a). The allocation-free counterpart of Scale.
func (v Vector) ScaleInPlace(a complex128) {
	for i := range v {
		v[i] = a * v[i]
	}
}

// Zero sets every entry of v to zero in place.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Conj returns the element-wise complex conjugate of v.
func (v Vector) Conj() Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = cmplx.Conj(v[i])
	}
	return out
}

// Outer returns the rank-one matrix v wᴴ.
func (v Vector) Outer(w Vector) *Matrix {
	m := New(len(v), len(w))
	for i := range v {
		for j := range w {
			m.Set(i, j, v[i]*cmplx.Conj(w[j]))
		}
	}
	return m
}

// MaxAbsIndex returns the index of the entry with the largest modulus,
// or -1 for an empty vector.
func (v Vector) MaxAbsIndex() int {
	best, idx := -1.0, -1
	for i := range v {
		if a := cmplx.Abs(v[i]); a > best {
			best, idx = a, i
		}
	}
	return idx
}

// ApproxEqual reports whether v and w have the same length and all
// entries within tol of each other in modulus.
func (v Vector) ApproxEqual(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if cmplx.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

func checkSameLen(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cmat: vector length mismatch %d vs %d", len(v), len(w)))
	}
}
