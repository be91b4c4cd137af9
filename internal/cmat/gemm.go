package cmat

import (
	"fmt"
	"math/cmplx"
	"runtime"
	"sync"
)

// Batched GEMM kernels. Every kernel in this file shares one contract:
// each output entry is a single ordered sum — terms accumulate in
// ascending inner-index order into one scalar — so the results are
// bitwise identical to the per-vector forms they replace (MulVecInto
// followed by Dot, or a sequence of rank-one AddInPlace updates). Cache
// blocking and row parallelism only change which entry is computed
// when, never the accumulation order within an entry, which is what
// lets the solver batch its hot path without perturbing a single bit
// of the figure pipeline.

const (
	// gemmColBlock is the column-tile width: inner loops touch at most
	// this many output (and right-operand) columns at a time so the
	// active tile stays resident in L1 across the whole inner-index
	// sweep.
	gemmColBlock = 128
	// gemmParallelRows is the minimum number of output rows before a
	// kernel considers fanning out across goroutines. 32 rows keeps the
	// solver's steady-state subspace (≈ the observation window, 48–96)
	// and every 64-antenna codebook scoring pass on the parallel path.
	gemmParallelRows = 32
	// gemmParallelOps is the minimum number of multiply-adds before the
	// fan-out pays for the goroutine handoff.
	gemmParallelOps = 1 << 17
)

// gemmParallel reports whether a kernel with the given output rows and
// multiply-add count should fan out across goroutines. Kept separate
// from parallelRows so the serial path can call its row kernel directly
// — building the parallel closure only when it will actually be used
// keeps small GEMMs allocation-free.
func gemmParallel(rows, ops int) bool {
	return rows >= gemmParallelRows && ops >= gemmParallelOps && runtime.GOMAXPROCS(0) >= 2
}

// rowChunks splits [0, rows) into at most workers contiguous chunks
// whose sizes differ by at most one row: the first rows%workers chunks
// carry one extra row. The old ceil-div split degenerated when rows was
// slightly above workers (33 rows / 32 procs → seventeen 2-row chunks,
// nearly half the workers idle); the balanced split keeps every worker
// loaded. Chunks stay contiguous and disjoint, so which chunk a row
// lands in cannot affect the bits that row produces.
func rowChunks(rows, workers int) [][2]int {
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		return nil
	}
	base, rem := rows/workers, rows%workers
	chunks := make([][2]int, workers)
	lo := 0
	for c := range chunks {
		hi := lo + base
		if c < rem {
			hi++
		}
		chunks[c] = [2]int{lo, hi}
		lo = hi
	}
	return chunks
}

// parallelRows splits [0, rows) into contiguous chunks and runs body on
// each concurrently. Output rows are disjoint across chunks, so the
// result is bitwise independent of the worker count. Callers gate on
// gemmParallel and run body(0, rows) inline below the thresholds.
func parallelRows(rows int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	for _, ch := range rowChunks(rows, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(ch[0], ch[1])
	}
	wg.Wait()
}

// MulInto writes the product a·b into dst. Panics on shape mismatch or
// when dst aliases a or b. Each dst entry accumulates its terms in
// ascending k order, making the result bitwise identical to calling
// MulVecInto once per column of b; unlike Mul, zero entries of a are
// not skipped, so signed zeros and NaNs propagate exactly as the
// per-column form would.
func (dst *Matrix) MulInto(a, b *Matrix) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("cmat: MulInto shape mismatch %dx%d = %dx%d · %dx%d",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	if dst == a || dst == b {
		panic("cmat: MulInto dst must not alias an operand")
	}
	if gemmParallel(dst.rows, dst.rows*a.cols*b.cols) {
		parallelRows(dst.rows, func(lo, hi int) { mulIntoRows(dst, a, b, lo, hi) })
		return
	}
	mulIntoRows(dst, a, b, 0, dst.rows)
}

func mulIntoRows(dst, a, b *Matrix, lo, hi int) {
	inner, cols := a.cols, b.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*inner : (i+1)*inner]
		orow := dst.data[i*cols : (i+1)*cols]
		for j := range orow {
			orow[j] = 0
		}
		for j0 := 0; j0 < cols; j0 += gemmColBlock {
			j1 := j0 + gemmColBlock
			if j1 > cols {
				j1 = cols
			}
			otile := orow[j0:j1]
			for k, av := range arow {
				btile := b.data[k*cols+j0 : k*cols+j1]
				caxpyInto(otile, btile, av)
			}
		}
	}
}

// MulHermInto writes a·bᴴ into dst: dst[i][k] = Σ_j a[i][j]·conj(b[k][j]),
// accumulated in ascending j. Both operands are read along rows, so the
// kernel streams contiguous memory even though it implements a
// conjugate-transposed product. a may alias b (the Gram-matrix case);
// dst must alias neither. Panics on shape mismatch.
func (dst *Matrix) MulHermInto(a, b *Matrix) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("cmat: MulHermInto shape mismatch %dx%d = %dx%d · (%dx%d)ᴴ",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	if dst == a || dst == b {
		panic("cmat: MulHermInto dst must not alias an operand")
	}
	if gemmParallel(dst.rows, dst.rows*a.cols*dst.cols) {
		parallelRows(dst.rows, func(lo, hi int) { mulHermIntoRows(dst, a, b, lo, hi) })
		return
	}
	mulHermIntoRows(dst, a, b, 0, dst.rows)
}

func mulHermIntoRows(dst, a, b *Matrix, lo, hi int) {
	inner := a.cols
	for i := lo; i < hi; i++ {
		arow := a.data[i*inner : (i+1)*inner]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k := range orow {
			brow := b.data[k*inner : (k+1)*inner]
			var s complex128
			for j, av := range arow {
				s += av * cmplx.Conj(brow[j])
			}
			orow[k] = s
		}
	}
}

// MulDiagGramInto writes the Hermitian Gram form a·diag(d)·aᴴ into dst
// with the grouping dst[i][k] = Σ_j d[j]·(a[i][j]·conj(a[k][j])),
// accumulated in ascending j. The per-term grouping d·(a·conj(a))
// matches a sequence of rank-one updates AddInPlace(d[j], col_j·col_jᴴ)
// bit for bit on and above the diagonal — the kernel is the batched
// replacement for a cached-outer-product gradient assembly. Only the
// upper triangle is computed; each lower entry is written as the
// conjugate of its mirror. For real d (the solver's gradient
// coefficients) that equals the directly computed entry under ==, and
// only the sign of an exact zero can differ. dst must not alias a.
// Panics on shape mismatch or when len(d) differs from a's column
// count.
func (dst *Matrix) MulDiagGramInto(a *Matrix, d []complex128) {
	if dst.rows != a.rows || dst.cols != a.rows {
		panic(fmt.Sprintf("cmat: MulDiagGramInto shape mismatch %dx%d = %dx%d · diag(%d) · (%dx%d)ᴴ",
			dst.rows, dst.cols, a.rows, a.cols, len(d), a.rows, a.cols))
	}
	if len(d) != a.cols {
		panic(fmt.Sprintf("cmat: MulDiagGramInto diagonal length %d, want %d", len(d), a.cols))
	}
	if dst == a {
		panic("cmat: MulDiagGramInto dst must not alias its operand")
	}
	if gemmParallel(dst.rows, dst.rows*(dst.rows+1)/2*a.cols) {
		parallelRows(dst.rows, func(lo, hi int) { mulDiagGramIntoRows(dst, a, d, lo, hi) })
		return
	}
	mulDiagGramIntoRows(dst, a, d, 0, dst.rows)
}

// mulDiagGramIntoRows computes the upper-triangle entries of rows
// [lo, hi) and mirrors each off-diagonal one into the lower triangle.
// The entries a chunk writes — its own rows from the diagonal right,
// and its own columns below the diagonal — are disjoint from every
// other chunk's, so parallel chunks never race.
func mulDiagGramIntoRows(dst, a *Matrix, d []complex128, lo, hi int) {
	inner, n := a.cols, dst.rows
	for i := lo; i < hi; i++ {
		arow := a.data[i*inner : (i+1)*inner]
		orow := dst.data[i*n : (i+1)*n]
		// Pair output entries so the kernel runs two independent
		// accumulation chains; each entry's ordered ascending-j sum is
		// unchanged (see cdot.go).
		k := i
		for ; k+1 < n; k += 2 {
			b0 := a.data[k*inner : (k+1)*inner]
			b1 := a.data[(k+1)*inner : (k+2)*inner]
			orow[k], orow[k+1] = cdotDiagHerm2(arow, d, b0, b1)
		}
		if k < n {
			brow := a.data[k*inner : (k+1)*inner]
			var s complex128
			for j, av := range arow {
				s += d[j] * (av * cmplx.Conj(brow[j]))
			}
			orow[k] = s
		}
		for k := i + 1; k < n; k++ {
			dst.data[k*n+i] = cmplx.Conj(orow[k])
		}
	}
}

// ColumnDotsInto writes the columnwise Hermitian inner products
// dst[j] = Σ_i conj(a[i][j])·b[i][j] — the diagonal of aᴴ·b. The sum
// runs in ascending i per column, so dst[j] is bitwise identical to
// a.Col(j).Dot(b.Col(j)); the loop nest is row-major (i outer) so both
// matrices stream contiguously. Panics on shape mismatch or when dst is
// shorter than the column count.
func ColumnDotsInto(dst []complex128, a, b *Matrix) {
	a.checkSameShape(b)
	if len(dst) < a.cols {
		panic(fmt.Sprintf("cmat: ColumnDotsInto dst length %d, want %d", len(dst), a.cols))
	}
	dst = dst[:a.cols]
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		brow := b.data[i*b.cols : (i+1)*b.cols]
		for j, av := range arow {
			dst[j] += cmplx.Conj(av) * brow[j]
		}
	}
}

// LowRankInto writes uhᴴ·diag(s)·uh into dst: the dense form of the
// Hermitian matrix Σ_k s[k]·u_k·u_kᴴ whose row k of uh is u_kᴴ. Each
// entry on and above the diagonal accumulates the terms
// (s[k]·conj(uh[k][x]))·uh[k][y] in ascending k; each lower entry is the
// conjugate of its mirror and the diagonal is real, so dst is exactly
// Hermitian. It costs n(n+1)/2 complex multiply-adds per row of uh.
// Panics on shape mismatch, when s is shorter than uh's row count, or
// when dst aliases uh.
func (dst *Matrix) LowRankInto(uh *Matrix, s []float64) {
	n := uh.cols
	if dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("cmat: LowRankInto shape mismatch %dx%d = (%dx%d)ᴴ · diag · %dx%d",
			dst.rows, dst.cols, uh.rows, uh.cols, uh.rows, uh.cols))
	}
	if len(s) < uh.rows {
		panic(fmt.Sprintf("cmat: LowRankInto diagonal length %d, want %d", len(s), uh.rows))
	}
	if dst == uh {
		panic("cmat: LowRankInto dst must not alias its operand")
	}
	dst.Zero()
	for k := 0; k < uh.rows; k++ {
		row := uh.data[k*n : (k+1)*n]
		sk := s[k]
		for x, ux := range row {
			caxpyInto(dst.data[x*n+x:(x+1)*n], row[x:], complex(sk*real(ux), -sk*imag(ux)))
		}
	}
	for x := 0; x < n; x++ {
		d := &dst.data[x*n+x]
		*d = complex(real(*d), 0)
		for y := x + 1; y < n; y++ {
			dst.data[y*n+x] = cmplx.Conj(dst.data[x*n+y])
		}
	}
}
