package cmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// ErrNoConvergence is returned when an iterative decomposition fails to
// reach its tolerance within its iteration budget.
var ErrNoConvergence = errors.New("cmat: iteration did not converge")

// ErrNonFinite is wrapped by the error a decomposition returns when its
// input, or a value it computes, is NaN or ±Inf.
var ErrNonFinite = errors.New("cmat: non-finite value")

// NonFiniteError locates the first NaN or ±Inf entry of a
// decomposition's input. It wraps ErrNonFinite.
type NonFiniteError struct {
	Row, Col int
	Value    complex128
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("cmat: entry (%d,%d) is %v", e.Row, e.Col, e.Value)
}

func (e *NonFiniteError) Unwrap() error { return ErrNonFinite }

// Eigen holds the eigendecomposition A = V·diag(Values)·Vᴴ of a Hermitian
// matrix. Values are sorted in descending order; column i of Vectors is
// the unit eigenvector for Values[i].
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// maxQLIters bounds the implicit-QL iterations spent on one eigenvalue.
// The shifted iteration converges cubically, so it needs one to three
// per eigenvalue; EISPACK's tql2 gives up after the same 30.
const maxQLIters = 30

// EigHermitian computes the full eigendecomposition of the Hermitian
// matrix a: a unitary Householder reduction to tridiagonal form, a
// diagonal phase scaling that makes the tridiagonal real, and
// implicit-shift QL on it. Only the Hermitian part of a is used (the
// input is symmetrized first, which also absorbs small rounding
// asymmetries). Panics if a is not square; an input holding NaN or ±Inf
// returns an error wrapping ErrNonFinite.
//
// The returned Eigen owns freshly allocated storage. Callers that
// decompose matrices of the same size repeatedly should reuse an
// EigenWorkspace instead.
func EigHermitian(a *Matrix) (Eigen, error) {
	return NewEigenWorkspace(a.Rows()).EigHermitian(a)
}

// EigenWorkspace holds the scratch buffers of a Hermitian
// eigendecomposition so repeated decompositions of same-sized matrices
// allocate nothing. It is the allocation-free substrate of the covest
// proximal solver, whose every iteration runs one decomposition.
//
// A workspace is not safe for concurrent use, and the Eigen returned by
// its EigHermitian method aliases workspace storage: it is overwritten
// by the next call. Callers that need the results to outlive the next
// decomposition must copy them out.
type EigenWorkspace struct {
	n int
	// w is the working copy; the reduction uses its lower triangle and
	// leaves reflector i in row i, entries 0..i-1, with hinv[i] = 1/H
	// its scale (0 where row i was already tridiagonal and carries no
	// reflector).
	w    *Matrix
	hinv []float64
	// phase is the diagonal D of unit phases with Dᴴ·T·D real, T the
	// complex tridiagonal the reflectors leave.
	phase []complex128
	// d and e are the real tridiagonal: d its diagonal, e[i] the
	// coupling of i and i+1. QL overwrites d with the eigenvalues.
	d, e []float64
	// rots logs every QL rotation as a (c, s) pair, and sweeps the
	// block l..m of every QL iteration, whose rotations run i = m−1
	// down to l. Replaying the log backwards onto unit vectors yields
	// just the eigenvectors a caller asks for.
	rots   []float64
	sweeps []qlSweep
	// scratch vectors for the reduction's A·u, conj(A·u) and conj(u),
	// and for the back-transform's reflector dot products.
	scratch, scratch2, scratch3 []complex128
	idx                         []int
	sorter                      eigenSorter
	sortedVals                  []float64
	sortedVecs                  *Matrix
}

// qlSweep is the block l..m one implicit-QL iteration rotated.
type qlSweep struct{ l, m int32 }

// eigenSorter orders the index permutation by descending eigenvalue. It
// implements sort.Interface so the per-decomposition sort allocates
// nothing (sort.Slice would allocate its closure and swapper on every
// call).
type eigenSorter struct {
	vals []float64
	idx  []int
}

func (s *eigenSorter) Len() int           { return len(s.idx) }
func (s *eigenSorter) Less(i, j int) bool { return s.vals[s.idx[i]] > s.vals[s.idx[j]] }
func (s *eigenSorter) Swap(i, j int)      { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }

// NewEigenWorkspace returns a workspace pre-sized for n×n inputs. The
// workspace transparently resizes if handed a different dimension: any
// dimension up to the largest it has held reuses its storage, so a
// workspace created at the largest size a caller decomposes never
// allocates again.
func NewEigenWorkspace(n int) *EigenWorkspace {
	ws := &EigenWorkspace{}
	ws.resize(n)
	return ws
}

func (ws *EigenWorkspace) resize(n int) {
	ws.n = n
	if ws.w != nil && n <= cap(ws.hinv) {
		// Every buffer is fully written by the decomposition before it
		// is read, so shrinking or regrowing within capacity only
		// reslices.
		ws.w.Reshape(n, n)
		ws.hinv = ws.hinv[:n]
		ws.phase = ws.phase[:n]
		ws.d = ws.d[:n]
		ws.e = ws.e[:n]
		ws.scratch = ws.scratch[:n]
		ws.scratch2 = ws.scratch2[:n]
		ws.scratch3 = ws.scratch3[:n]
		ws.idx = ws.idx[:n]
		ws.sorter = eigenSorter{vals: ws.d, idx: ws.idx}
		ws.sortedVals = ws.sortedVals[:n]
		ws.sortedVecs.Reshape(n, n)
		return
	}
	ws.w = New(n, n)
	ws.hinv = make([]float64, n)
	ws.phase = make([]complex128, n)
	ws.d = make([]float64, n)
	ws.e = make([]float64, n)
	// A decomposition logs 1.1–1.25·n² rotations (two QL iterations
	// per eigenvalue over blocks of n/2 on average); start with room
	// for that so steady state does not grow the log.
	ws.rots = make([]float64, 0, 5*n*n/2)
	ws.sweeps = make([]qlSweep, 0, 4*n)
	ws.scratch = make([]complex128, n)
	ws.scratch2 = make([]complex128, n)
	ws.scratch3 = make([]complex128, n)
	ws.idx = make([]int, n)
	ws.sorter = eigenSorter{vals: ws.d, idx: ws.idx}
	ws.sortedVals = make([]float64, n)
	ws.sortedVecs = New(n, n)
}

// EigHermitian computes the full eigendecomposition of the Hermitian
// matrix a into the workspace buffers. Identical numerics to the
// package-level EigHermitian; the returned Eigen aliases workspace
// storage and is invalidated by the next call. Panics if a is not
// square.
func (ws *EigenWorkspace) EigHermitian(a *Matrix) (Eigen, error) {
	if err := ws.decompose(a); err != nil {
		return Eigen{}, err
	}
	ws.backTransform(ws.n)
	return Eigen{Values: ws.sortedVals, Vectors: ws.sortedVecs}, nil
}

// Iters reports the implicit-QL iterations of the workspace's most
// recent decomposition. It depends only on the input matrix, so it is
// an exact cost counter.
func (ws *EigenWorkspace) Iters() int { return len(ws.sweeps) }

// decompose leaves the eigenvalues of a in ws.sortedVals, descending,
// and everything backTransform needs to produce their eigenvectors.
func (ws *EigenWorkspace) decompose(a *Matrix) error {
	a.checkSquare()
	n := a.Rows()
	if n != ws.n {
		ws.resize(n)
	}
	ws.rots, ws.sweeps = ws.rots[:0], ws.sweeps[:0]
	for k, v := range a.data {
		// v−v is 0 for every finite v and NaN otherwise.
		if v-v != 0 {
			return fmt.Errorf("hermitian eigendecomposition (n=%d): %w", n, &NonFiniteError{Row: k / n, Col: k % n, Value: v})
		}
	}
	if n == 0 {
		return nil
	}
	ws.w.HermitianizeFrom(a)
	ws.tridiagonalize()
	for i, di := range ws.d {
		// Finite input can still overflow within a few orders of
		// magnitude of MaxFloat64.
		if di-di != 0 || ws.e[i]-ws.e[i] != 0 {
			return fmt.Errorf("hermitian eigendecomposition (n=%d): tridiagonal overflowed at row %d: %w", n, i, ErrNonFinite)
		}
	}
	if err := ws.ql(); err != nil {
		return fmt.Errorf("hermitian eigendecomposition (n=%d): %w", n, err)
	}
	idx := ws.idx
	for i := range idx {
		idx[i] = i
	}
	sort.Sort(&ws.sorter)
	for j, o := range idx {
		ws.sortedVals[j] = ws.d[o]
	}
	return nil
}

// tridiagonalize reduces the Hermitian working copy by unitary
// similarity to a tridiagonal T = M·A·Mᴴ, M = P_2·P_3⋯P_{n-1}, working
// from the last row up so every reflector is read from a contiguous
// row. It records T's real form Dᴴ·T·D in d and e and the phases D.
func (ws *EigenWorkspace) tridiagonalize() {
	n := ws.n
	wd := ws.w.data
	d, e, phase := ws.d, ws.e, ws.phase
	for i := n - 1; i > 0; i-- {
		l := i - 1
		u := wd[i*n : i*n+i : i*n+i] // row i left of the diagonal
		var scale float64
		for _, x := range u[:l] {
			scale += math.Abs(real(x)) + math.Abs(imag(x))
		}
		xl := u[l]
		ws.hinv[i] = 0
		if scale == 0 {
			// Row i couples only to i−1 already: T[i][i−1] = xl.
			e[l] = cmplx.Abs(xl)
			phase[i] = unitPhase(xl)
			d[i] = real(wd[i*n+i])
			continue
		}
		// P = I − u·uᴴ/H maps column i above the diagonal, y = conj(row
		// i), onto −(y_l/|y_l|)·‖y‖·e_l, so T[i][i−1] = −conj(y_l/|y_l|)·‖y‖.
		// The row is divided by its 1-norm first so ‖y‖² can neither
		// overflow nor underflow.
		scale += math.Abs(real(xl)) + math.Abs(imag(xl))
		var h float64
		for k, x := range u {
			y := complex(real(x)/scale, -imag(x)/scale)
			u[k] = y
			h += real(y)*real(y) + imag(y)*imag(y)
		}
		g := math.Sqrt(h)
		yl := u[l]
		ph := unitPhase(yl)
		u[l] = yl + complex(real(ph)*g, imag(ph)*g)
		hinv := 1 / (h + cmplx.Abs(yl)*g)
		ws.hinv[i] = hinv
		e[l] = scale * g
		phase[i] = -cmplx.Conj(ph)

		// A ← P·A·P on the leading i×i block, as the Hermitian rank-2
		// update A − u·qᴴ − q·uᴴ with p = A·u/H, q = p − (uᴴp/2H)·u. Only
		// the lower triangle is read or written: row j contributes
		// A[j][0..j]·u to p[j] and, through conj(A[j][k]) = A[k][j], to
		// conj(p[k]) for k < j — an axpy along the row.
		q, pc := ws.scratch[:i], ws.scratch2[:i]
		clear(pc)
		for j, uj := range u {
			row := wd[j*n : j*n+j : j*n+j]
			s := complex(real(wd[j*n+j]), 0) * uj
			for k, a := range row {
				s += a * u[k]
			}
			q[j] = s
			caxpyInto(pc[:j], row, cmplx.Conj(uj))
		}
		var up float64
		for j, uj := range u {
			s := q[j] + cmplx.Conj(pc[j])
			s = complex(real(s)*hinv, imag(s)*hinv)
			q[j] = s
			up += real(uj)*real(s) + imag(uj)*imag(s)
		}
		kk := up * hinv / 2
		for j, uj := range u {
			q[j] -= complex(kk*real(uj), kk*imag(uj))
			pc[j] = cmplx.Conj(q[j])
		}
		uc := ws.scratch3[:i]
		for j, uj := range u {
			uc[j] = cmplx.Conj(uj)
		}
		for j, uj := range u {
			row := wd[j*n : j*n+j+1 : j*n+j+1]
			caxpyInto(row, pc[:j+1], -uj)
			caxpyInto(row, uc[:j+1], -q[j])
		}
		d[i] = real(wd[i*n+i])
	}
	d[0] = real(wd[0])
	e[n-1] = 0
	// D: δ_0 = 1, δ_i = δ_{i−1}·T[i][i−1]/|T[i][i−1]| makes every
	// coupling conj(δ_i)·T[i][i−1]·δ_{i−1} = |T[i][i−1]|.
	phase[0] = 1
	for i := 1; i < n; i++ {
		phase[i] *= phase[i-1]
	}
}

// unitPhase returns z/|z|, or 1 for z = 0.
func unitPhase(z complex128) complex128 {
	r := cmplx.Abs(z)
	if r == 0 {
		return 1
	}
	return complex(real(z)/r, imag(z)/r)
}

// ql diagonalizes the real symmetric tridiagonal (d, e) by implicit-shift
// QL (EISPACK tql2), logging its rotations instead of accumulating them.
// Blocks split off wherever a coupling falls below machine precision of
// the largest |d|+|e| seen; a block that does not split within
// maxQLIters iterations returns ErrNoConvergence, and non-finite
// eigenvalues ErrNonFinite.
func (ws *EigenWorkspace) ql() error {
	n := ws.n
	d, e := ws.d, ws.e
	const eps = 0x1p-52
	var shift, tst1 float64
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		for iter := 0; ; iter++ {
			// The block l..m ends at the first negligible coupling. The
			// test is written so a NaN coupling never counts as one.
			m := l
			for m < n-1 && !(math.Abs(e[m]) <= eps*tst1) {
				m++
			}
			if m == l {
				break
			}
			if iter == maxQLIters {
				return fmt.Errorf("eigenvalue %d: QL block %d..%d unsplit after %d iterations: %w", l, l, m, maxQLIters, ErrNoConvergence)
			}
			ws.sweeps = append(ws.sweeps, qlSweep{int32(l), int32(m)})
			// Shift by the eigenvalue of the leading 2×2 nearer d[l].
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			shift += h
			// Chase the bulge from the bottom of the block up.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3 = c2
				c2 = c
				s2 = s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				ws.rots = append(ws.rots, c, s)
			}
			// e[l]/dl1 = 1/(p+r) ≤ 1: dividing first keeps the product
			// from squaring the matrix's scale, which overflows past 1e154.
			p = -s * s2 * c3 * el1 * (e[l] / dl1)
			e[l] = s * p
			d[l] = c * p
		}
		d[l] += shift
		e[l] = 0
		if d[l]-d[l] != 0 {
			return fmt.Errorf("eigenvalue %d is %v: %w", l, d[l], ErrNonFinite)
		}
	}
	return nil
}

// backTransform writes the eigenvectors of the k largest eigenvalues
// into the first k columns of ws.sortedVecs, leaving the others stale.
// Each is Mᴴ·D·z = P_{n-1}⋯P_2·D·z for its tridiagonal eigenvector z,
// and z = R_1ᵀ⋯R_Nᵀ·e_r for the logged rotations R_t, which act on rows
// (i, i+1) as [c −s; s c]. Columns are independent, so a column's bits
// do not depend on k.
func (ws *EigenWorkspace) backTransform(k int) {
	n := ws.n
	wd, vd := ws.w.data, ws.sortedVecs.data
	for r := 0; r < n; r++ {
		clear(vd[r*n : r*n+k])
	}
	for j, r := range ws.idx[:k] {
		vd[r*n+j] = 1
	}
	// The rotations are real, so the replay runs on real parts only.
	t := len(ws.rots)
	for w := len(ws.sweeps) - 1; w >= 0; w-- {
		sw := ws.sweeps[w]
		for i := int(sw.l); i < int(sw.m); i++ {
			t -= 2
			c, s := ws.rots[t], ws.rots[t+1]
			yi := vd[i*n : i*n+k : i*n+k]
			yi1 := vd[(i+1)*n : (i+1)*n+k : (i+1)*n+k]
			yi1 = yi1[:len(yi)]
			for j, a := range yi {
				ar, br := real(a), real(yi1[j])
				yi[j] = complex(c*ar+s*br, 0)
				yi1[j] = complex(c*br-s*ar, 0)
			}
		}
	}
	for r, ph := range ws.phase {
		row := vd[r*n : r*n+k : r*n+k]
		for j, z := range row {
			row[j] = complex(real(ph)*real(z), imag(ph)*real(z))
		}
	}
	s := ws.scratch[:k]
	for i := 2; i < n; i++ {
		hinv := ws.hinv[i]
		if hinv == 0 {
			continue
		}
		u := wd[i*n : i*n+i : i*n+i]
		clear(s)
		for r, ur := range u {
			caxpyInto(s, vd[r*n:r*n+k], cmplx.Conj(ur))
		}
		for j := range s {
			s[j] = complex(-hinv*real(s[j]), -hinv*imag(s[j]))
		}
		for r, ur := range u {
			caxpyInto(vd[r*n:r*n+k], s, ur)
		}
	}
}
