package cmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense complex matrix stored in row-major order.
type Matrix struct {
	rows, cols int
	data       []complex128
}

// New returns a zero rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from a slice of rows. All rows must have the
// same length. The input is copied.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("cmat: ragged rows: row %d has %d entries, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []complex128) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) complex128 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v complex128) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

// AddAt adds v to the (i, j) entry in place.
func (m *Matrix) AddAt(i, j int, v complex128) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] += v
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) Vector {
	m.checkIndex(i, 0)
	out := make(Vector, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	m.checkIndex(0, j)
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// RowView returns row i of m as a Vector over m's own storage: writes
// through it change m, and a later Reshape reinterprets it. Unlike Row
// it copies nothing.
func (m *Matrix) RowView(i int) Vector {
	m.checkIndex(i, 0)
	return Vector(m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols])
}

// Raw returns m's whole storage, every entry its capacity holds, as a
// Vector over that storage. Entries beyond Rows()·Cols() are whatever a
// larger shape last left there; callers that keep data across Reshape
// calls (moving it between row strides) address it through Raw.
func (m *Matrix) Raw() Vector {
	return Vector(m.data[:cap(m.data)])
}

// SetCol overwrites column j with v. Panics if len(v) != Rows().
func (m *Matrix) SetCol(j int, v Vector) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("cmat: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of b. Panics on shape
// mismatch. The allocation-free counterpart of b.Clone().
func (m *Matrix) CopyFrom(b *Matrix) {
	m.checkSameShape(b)
	copy(m.data, b.data)
}

// Reshape sets m's shape to rows×cols over its existing storage, for
// workspaces whose shape varies below a fixed capacity. The storage
// must hold rows·cols entries (the product of the shape m was created
// with bounds it); entries are reinterpreted in row-major order, not
// preserved by position. Allocates nothing. Panics on a negative
// dimension or when the storage is too small.
func (m *Matrix) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 || rows*cols > cap(m.data) {
		panic(fmt.Sprintf("cmat: Reshape to %dx%d over storage for %d entries", rows, cols, cap(m.data)))
	}
	m.rows, m.cols = rows, cols
	m.data = m.data[:rows*cols]
}

// Zero sets every entry of m to zero in place.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// SubInto overwrites m with a - b. Panics on shape mismatch. m may
// alias a or b.
func (m *Matrix) SubInto(a, b *Matrix) {
	m.checkSameShape(a)
	m.checkSameShape(b)
	for i := range m.data {
		m.data[i] = a.data[i] - b.data[i]
	}
}

// AddScaledInto overwrites m with a + alpha*b. Panics on shape
// mismatch. m may alias a or b. The allocation-free counterpart of
// a.Clone() followed by AddInPlace(alpha, b).
func (m *Matrix) AddScaledInto(a *Matrix, alpha complex128, b *Matrix) {
	m.checkSameShape(a)
	m.checkSameShape(b)
	for i := range m.data {
		m.data[i] = a.data[i] + alpha*b.data[i]
	}
}

// Add returns m + b. Panics on shape mismatch.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.checkSameShape(b)
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] + b.data[i]
	}
	return out
}

// Sub returns m - b. Panics on shape mismatch.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.checkSameShape(b)
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] - b.data[i]
	}
	return out
}

// Scale returns a*m.
func (m *Matrix) Scale(a complex128) *Matrix {
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = a * m.data[i]
	}
	return out
}

// AddInPlace adds a*b to m in place. Panics on shape mismatch.
func (m *Matrix) AddInPlace(a complex128, b *Matrix) {
	m.checkSameShape(b)
	for i := range m.data {
		m.data[i] += a * b.data[i]
	}
}

// AddScaledOuter adds alpha·v·vᴴ to the square matrix m in place.
// Panics on shape mismatch. The allocation-free counterpart of
// AddInPlace(alpha, v.Outer(v)).
func (m *Matrix) AddScaledOuter(alpha complex128, v Vector) {
	if m.rows != m.cols || m.rows != len(v) {
		panic(fmt.Sprintf("cmat: AddScaledOuter shape mismatch %dx%d with vector %d", m.rows, m.cols, len(v)))
	}
	n := m.rows
	for i := 0; i < n; i++ {
		vi := v[i]
		row := m.data[i*n : i*n+n : i*n+n]
		for j := 0; j < n; j++ {
			row[j] += alpha * (vi * cmplx.Conj(v[j]))
		}
	}
}

// AddScaledOuterCol adds alpha·c·cᴴ to m in place, where c is column
// col of vm — the same update as AddScaledOuter(alpha, vm.Col(col))
// without materializing the column.
func (m *Matrix) AddScaledOuterCol(alpha complex128, vm *Matrix, col int) {
	if m.rows != m.cols || m.rows != vm.rows {
		panic(fmt.Sprintf("cmat: AddScaledOuterCol shape mismatch %dx%d with %dx%d column", m.rows, m.cols, vm.rows, vm.cols))
	}
	vm.checkIndex(0, col)
	n := m.rows
	for i := 0; i < n; i++ {
		vi := vm.data[i*vm.cols+col]
		row := m.data[i*n : i*n+n : i*n+n]
		for j := 0; j < n; j++ {
			row[j] += alpha * (vi * cmplx.Conj(vm.data[j*vm.cols+col]))
		}
	}
}

// SetOuter overwrites m with the rank-one matrix v·wᴴ. Panics on shape
// mismatch. The allocation-free counterpart of v.Outer(w).
func (m *Matrix) SetOuter(v, w Vector) {
	if m.rows != len(v) || m.cols != len(w) {
		panic(fmt.Sprintf("cmat: SetOuter shape mismatch %dx%d with vectors %d, %d", m.rows, m.cols, len(v), len(w)))
	}
	for i := range v {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range w {
			row[j] = v[i] * cmplx.Conj(w[j])
		}
	}
}

// Mul returns the matrix product m·b. Panics if m.Cols() != b.Rows().
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("cmat: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns m·v. Panics if m.Cols() != len(v).
func (m *Matrix) MulVec(v Vector) Vector {
	out := make(Vector, m.rows)
	m.MulVecInto(out, v)
	return out
}

// MulVecInto writes m·v into dst. Panics on shape mismatch. dst must
// not alias v.
func (m *Matrix) MulVecInto(dst, v Vector) {
	if m.cols != len(v) || m.rows != len(dst) {
		panic(fmt.Sprintf("cmat: MulVecInto shape mismatch %dx%d · %d -> %d", m.rows, m.cols, len(v), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s complex128
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
}

// ConjTranspose returns the Hermitian transpose mᴴ.
func (m *Matrix) ConjTranspose() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
	return out
}

// Transpose returns the plain transpose mᵀ (no conjugation).
func (m *Matrix) Transpose() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Trace returns the sum of diagonal entries. Panics if m is not square.
func (m *Matrix) Trace() complex128 {
	m.checkSquare()
	var s complex128
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// FrobeniusNorm returns ‖m‖_F.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest entry modulus, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var best float64
	for _, v := range m.data {
		if a := cmplx.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// OffDiagNorm returns the Frobenius norm of the off-diagonal part.
// Panics if m is not square.
func (m *Matrix) OffDiagNorm() float64 {
	m.checkSquare()
	var s float64
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if i == j {
				continue
			}
			v := m.data[i*m.cols+j]
			re, im := real(v), imag(v)
			s += re*re + im*im
		}
	}
	return math.Sqrt(s)
}

// IsHermitian reports whether ‖m - mᴴ‖_max ≤ tol. Panics if m is not square.
func (m *Matrix) IsHermitian(tol float64) bool {
	m.checkSquare()
	for i := 0; i < m.rows; i++ {
		for j := i; j < m.cols; j++ {
			if cmplx.Abs(m.data[i*m.cols+j]-cmplx.Conj(m.data[j*m.cols+i])) > tol {
				return false
			}
		}
	}
	return true
}

// Hermitianize returns (m + mᴴ)/2, the nearest Hermitian matrix in
// Frobenius norm. Panics if m is not square.
func (m *Matrix) Hermitianize() *Matrix {
	m.checkSquare()
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[i*m.cols+j] = (m.data[i*m.cols+j] + cmplx.Conj(m.data[j*m.cols+i])) / 2
		}
	}
	return out
}

// HermitianizeInPlace replaces m with (m + mᴴ)/2 in place, producing
// entries bitwise identical to Hermitianize. Panics if m is not square.
func (m *Matrix) HermitianizeInPlace() {
	m.checkSquare()
	n := m.rows
	for i := 0; i < n; i++ {
		m.data[i*n+i] = (m.data[i*n+i] + cmplx.Conj(m.data[i*n+i])) / 2
		for j := i + 1; j < n; j++ {
			h := (m.data[i*n+j] + cmplx.Conj(m.data[j*n+i])) / 2
			m.data[i*n+j] = h
			m.data[j*n+i] = cmplx.Conj(h)
		}
	}
}

// HermitianizeFrom overwrites m with (a + aᴴ)/2, the allocation-free
// counterpart of a.Hermitianize(). m may alias a. Panics on shape
// mismatch or if a is not square.
func (m *Matrix) HermitianizeFrom(a *Matrix) {
	a.checkSquare()
	m.checkSameShape(a)
	if m == a {
		m.HermitianizeInPlace()
		return
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.data[i*n+j] = (a.data[i*n+j] + cmplx.Conj(a.data[j*n+i])) / 2
		}
	}
}

// QuadForm returns the real part of vᴴ·m·v. For Hermitian m the quadratic
// form is exactly real; the imaginary residue from rounding is discarded.
// Panics on shape mismatch.
func (m *Matrix) QuadForm(v Vector) float64 {
	if m.rows != m.cols || m.cols != len(v) {
		panic(fmt.Sprintf("cmat: QuadForm shape mismatch %dx%d with vector %d", m.rows, m.cols, len(v)))
	}
	var s complex128
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var t complex128
		for j, rv := range row {
			t += rv * v[j]
		}
		s += cmplx.Conj(v[i]) * t
	}
	return real(s)
}

// ApproxEqual reports whether m and b share a shape and agree entrywise
// within tol in modulus.
func (m *Matrix) ApproxEqual(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if cmplx.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Equal reports whether m and b share a shape and agree entrywise
// bitwise (exact float equality; NaN entries compare unequal). It is
// the check used by determinism tests, where "close" is not enough.
func (m *Matrix) Equal(b *Matrix) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; not intended for parsing.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%.4g%+.4gi", real(m.At(i, j)), imag(m.At(i, j)))
		}
	}
	sb.WriteString("]")
	return sb.String()
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

func (m *Matrix) checkSameShape(b *Matrix) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("cmat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

func (m *Matrix) checkSquare() {
	if m.rows != m.cols {
		panic(fmt.Sprintf("cmat: matrix %dx%d is not square", m.rows, m.cols))
	}
}
