package antenna

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"mmwalign/internal/cmat"
)

// Beam is one entry of a beamforming codebook: a unit-norm weight vector
// together with the steering direction it was synthesized for and its
// grid coordinates (used for spatial adjacency).
type Beam struct {
	// Index is the position of the beam in its codebook.
	Index int
	// Weights is the unit-norm analog beamforming vector.
	Weights cmat.Vector
	// Dir is the nominal steering direction.
	Dir Direction
	// GridAz and GridEl locate the beam on the codebook's angular grid.
	GridAz, GridEl int
}

// Codebook is a finite set of selectable beams — the set U (or V) of the
// paper — laid out on an azimuth×elevation grid so that "spatially
// adjacent" is well defined.
type Codebook struct {
	beams  []Beam
	nAz    int
	nEl    int
	array  Array
	labels string

	// packOnce guards the lazy dim×M packed-weights matrix used by the
	// batched scorers. Beams are immutable after construction, so the
	// cache is built at most once and is safe under concurrent scoring.
	packOnce sync.Once
	packed   *cmat.Matrix
	// scorePool recycles per-call GEMM workspaces so concurrent scorers
	// (one per experiment worker) never contend on shared buffers.
	scorePool sync.Pool
}

// NewGridCodebook builds a codebook of nAz×nEl steering beams that
// uniformly tile azimuth ∈ [−azSpan/2, +azSpan/2] and elevation ∈
// [−elSpan/2, +elSpan/2] (spans in radians, grid points at cell centers).
// Panics if nAz or nEl is not positive.
func NewGridCodebook(ar Array, nAz, nEl int, azSpan, elSpan float64) *Codebook {
	if nAz <= 0 || nEl <= 0 {
		panic(fmt.Sprintf("antenna: codebook grid %dx%d must be positive", nAz, nEl))
	}
	cb := &Codebook{
		nAz:    nAz,
		nEl:    nEl,
		array:  ar,
		labels: fmt.Sprintf("grid-%dx%d over %s", nAz, nEl, ar),
	}
	for e := 0; e < nEl; e++ {
		for a := 0; a < nAz; a++ {
			dir := Direction{
				Az: gridAngle(a, nAz, azSpan),
				El: gridAngle(e, nEl, elSpan),
			}
			cb.beams = append(cb.beams, Beam{
				Index:   len(cb.beams),
				Weights: ar.Steering(dir),
				Dir:     dir,
				GridAz:  a,
				GridEl:  e,
			})
		}
	}
	return cb
}

// gridAngle places grid index i of n cells at the cell center of a span
// centered on zero.
func gridAngle(i, n int, span float64) float64 {
	if n == 1 {
		return 0
	}
	cell := span / float64(n)
	return -span/2 + cell*(float64(i)+0.5)
}

// NewDFTCodebook builds the classic DFT codebook for a ULA: n beams whose
// spatial frequencies uniformly tile [−π, π). DFT beams are mutually
// orthogonal and cover the whole visible region.
func NewDFTCodebook(a ULA) *Codebook {
	cb := &Codebook{nAz: a.N, nEl: 1, array: a, labels: fmt.Sprintf("dft-%d over %s", a.N, a)}
	for k := 0; k < a.N; k++ {
		// Spatial frequency 2π·d·sin(az) = 2π·k/N − π  (wrapped).
		f := 2*math.Pi*float64(k)/float64(a.N) - math.Pi
		sinAz := f / (2 * math.Pi * a.Spacing)
		if sinAz > 1 {
			sinAz = 1
		}
		if sinAz < -1 {
			sinAz = -1
		}
		dir := Direction{Az: math.Asin(sinAz)}
		cb.beams = append(cb.beams, Beam{
			Index:   k,
			Weights: a.Steering(dir),
			Dir:     dir,
			GridAz:  k,
			GridEl:  0,
		})
	}
	return cb
}

// Size returns the number of beams, card(U) in the paper's notation.
func (c *Codebook) Size() int { return len(c.beams) }

// Beam returns the i-th beam. Panics if i is out of range.
func (c *Codebook) Beam(i int) Beam {
	if i < 0 || i >= len(c.beams) {
		panic(fmt.Sprintf("antenna: beam index %d out of range [0,%d)", i, len(c.beams)))
	}
	return c.beams[i]
}

// Beams returns a copy of the beam list.
func (c *Codebook) Beams() []Beam {
	out := make([]Beam, len(c.beams))
	copy(out, c.beams)
	return out
}

// Array returns the geometry the codebook was built for.
func (c *Codebook) Array() Array { return c.array }

// GridShape returns the azimuth×elevation grid dimensions.
func (c *Codebook) GridShape() (nAz, nEl int) { return c.nAz, c.nEl }

// Neighbors returns the indices of beams spatially adjacent to beam i on
// the angular grid (4-connectivity; no wrap-around). This defines the
// order constraint used by the Scan baseline.
func (c *Codebook) Neighbors(i int) []int {
	b := c.Beam(i)
	var out []int
	type step struct{ da, de int }
	for _, s := range []step{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		a, e := b.GridAz+s.da, b.GridEl+s.de
		if a < 0 || a >= c.nAz || e < 0 || e >= c.nEl {
			continue
		}
		out = append(out, e*c.nAz+a)
	}
	return out
}

// SnakeOrder returns all beam indices in boustrophedon (snake) order over
// the grid: left-to-right on even elevation rows, right-to-left on odd
// rows. Every consecutive pair in the result is spatially adjacent, which
// makes it the canonical raster for the Scan baseline.
func (c *Codebook) SnakeOrder() []int {
	out := make([]int, 0, len(c.beams))
	for e := 0; e < c.nEl; e++ {
		if e%2 == 0 {
			for a := 0; a < c.nAz; a++ {
				out = append(out, e*c.nAz+a)
			}
		} else {
			for a := c.nAz - 1; a >= 0; a-- {
				out = append(out, e*c.nAz+a)
			}
		}
	}
	return out
}

// scoreSpace is a pooled workspace for one batched scoring pass: the
// Q·W (or Uᴴ·W) product buffer, the columnwise-dot accumulator, and a
// scratch score vector for the selection methods.
//
// A scoreSpace is single-owner between getScoreSpace and putScoreSpace;
// the leased flag is the debug assertion enforcing that (a double put
// would let two scoring passes share one buffer and corrupt each
// other's scores silently).
type scoreSpace struct {
	qw     *cmat.Matrix
	dots   []complex128
	scores []float64
	leased bool
}

// packedWeights returns the dim×M matrix whose column i is beam i's
// weight vector, building it on first use. Scoring the whole codebook
// then becomes one GEMM against this matrix instead of M separate
// quadratic forms.
func (c *Codebook) packedWeights() *cmat.Matrix {
	c.packOnce.Do(func() {
		dim := 0
		if len(c.beams) > 0 {
			dim = len(c.beams[0].Weights)
		}
		w := cmat.New(dim, len(c.beams))
		for i := range c.beams {
			w.SetCol(i, c.beams[i].Weights)
		}
		c.packed = w
	})
	return c.packed
}

// getScoreSpace fetches a workspace sized for this codebook from the
// pool, allocating on first use or when the pool is empty.
func (c *Codebook) getScoreSpace() *scoreSpace {
	ws, _ := c.scorePool.Get().(*scoreSpace)
	if ws == nil {
		w := c.packedWeights()
		ws = &scoreSpace{
			qw:     cmat.New(w.Rows(), w.Cols()),
			dots:   make([]complex128, w.Cols()),
			scores: make([]float64, w.Cols()),
		}
	}
	if ws.leased {
		panic("antenna: pooled scoreSpace fetched while still leased")
	}
	ws.leased = true
	return ws
}

// putScoreSpace returns a workspace to the pool, asserting single
// ownership: returning the same workspace twice would hand one buffer
// to two concurrent scoring passes. Callers defer this so the workspace
// is recycled (not leaked) even when a scoring pass panics on a
// dimension mismatch.
func (c *Codebook) putScoreSpace(ws *scoreSpace) {
	if !ws.leased {
		panic("antenna: pooled scoreSpace returned twice")
	}
	ws.leased = false
	c.scorePool.Put(ws)
}

// scoresInto computes every beam's quadratic form against q into dst
// using ws as scratch. dst must have length Size().
func (c *Codebook) scoresInto(q *cmat.Matrix, ws *scoreSpace, dst []float64) {
	w := c.packedWeights()
	if q.Rows() != w.Rows() || q.Cols() != w.Rows() {
		panic(fmt.Sprintf("antenna: codebook scoring matrix %dx%d, want %dx%d", q.Rows(), q.Cols(), w.Rows(), w.Rows()))
	}
	ws.qw.Reshape(w.Rows(), w.Cols())
	ws.qw.MulInto(q, w)
	cmat.ColumnDotsInto(ws.dots, w, ws.qw)
	for i, d := range ws.dots {
		dst[i] = real(d)
	}
}

// QuadFormScoresInto writes wᵢᴴ·Q·wᵢ for every beam i into dst, which
// must have length Size(), and returns dst. One Q·W GEMM plus a
// columnwise dot replaces Size() separate QuadForm calls; each score is
// bitwise identical to q.QuadForm(c.Beam(i).Weights) because both paths
// accumulate the same products in the same order. Panics if Q's
// dimension differs from the array size. Safe for concurrent use.
func (c *Codebook) QuadFormScoresInto(q *cmat.Matrix, dst []float64) []float64 {
	if len(dst) != len(c.beams) {
		panic(fmt.Sprintf("antenna: QuadFormScoresInto dst length %d, want %d", len(dst), len(c.beams)))
	}
	if len(c.beams) == 0 {
		return dst
	}
	ws := c.getScoreSpace()
	defer c.putScoreSpace(ws)
	c.scoresInto(q, ws, dst)
	return dst
}

// FactorScoresInto writes wᵢᴴ·Q·wᵢ = Σ_k s[k]·|u_kᴴ·wᵢ|² for every beam
// i into dst, which must have length Size(), for Q = Σ_k s[k]·u_k·u_kᴴ
// held as its factor: row k of uh is u_kᴴ. One k×N by N×M GEMM X = uh·W
// gives the inner products, and each score sums s[k]·|X_ki|² in
// ascending k. It returns the complex multiply-adds of the GEMM, k·N·M,
// where the dense QuadFormScoresInto costs N²·M. Panics unless uh is
// k×N with k ≤ N and s holds at least k weights. Safe for concurrent
// use.
func (c *Codebook) FactorScoresInto(uh *cmat.Matrix, s []float64, dst []float64) int {
	if len(dst) != len(c.beams) {
		panic(fmt.Sprintf("antenna: FactorScoresInto dst length %d, want %d", len(dst), len(c.beams)))
	}
	clear(dst)
	if len(c.beams) == 0 {
		return 0
	}
	w := c.packedWeights()
	k := uh.Rows()
	if uh.Cols() != w.Rows() || k > w.Rows() || len(s) < k {
		panic(fmt.Sprintf("antenna: codebook scoring factor %dx%d with %d weights, want at most %d rows of width %d", k, uh.Cols(), len(s), w.Rows(), w.Rows()))
	}
	ws := c.getScoreSpace()
	defer c.putScoreSpace(ws)
	x := ws.qw
	x.Reshape(k, w.Cols())
	x.MulInto(uh, w)
	for r, sr := range s[:k] {
		for i, v := range x.RowView(r) {
			dst[i] += sr * (real(v)*real(v) + imag(v)*imag(v))
		}
	}
	return k * w.Rows() * w.Cols()
}

// BestScore returns the index of the largest score and its value; the
// lowest index wins exact ties. Applied to QuadFormScoresInto's output
// it is the eigen-beam selection rule of the paper (Eq. 26) restricted
// to the codebook. NaN scores never win, and when no score exceeds −Inf
// it returns (−1, −Inf).
func BestScore(scores []float64) (int, float64) {
	best, bestVal := -1, math.Inf(-1)
	for i, v := range scores {
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	return best, bestVal
}

// topKScanCutoff is the largest k served by the repeated-scan path in
// TopKScoresInto; beyond it one full sort is cheaper than k passes.
const topKScanCutoff = 8

// TopKQuadForm returns the indices of the k beams with the largest
// quadratic form wᴴ·Q·w, in descending order. If k exceeds the codebook
// size the whole codebook is returned. Used for the "pick the (J−1)
// largest vᴴQ̂v directions" rule (Sec. IV-B2).
func (c *Codebook) TopKQuadForm(q *cmat.Matrix, k int) []int {
	return c.TopKQuadFormInto(q, k, nil)
}

// TopKQuadFormInto is TopKQuadForm with a caller-supplied result buffer:
// dst is truncated and appended to, so a buffer reused across calls
// makes repeated ranking allocation-free on the small-k path. It scores
// the codebook once and ranks with TopKScoresInto.
func (c *Codebook) TopKQuadFormInto(q *cmat.Matrix, k int, dst []int) []int {
	if min(k, len(c.beams)) <= 0 {
		return dst[:0]
	}
	ws := c.getScoreSpace()
	defer c.putScoreSpace(ws)
	c.scoresInto(q, ws, ws.scores)
	return TopKScoresInto(ws.scores, k, dst)
}

// TopKScoresInto appends to dst[:0] the indices of the k largest
// scores, in descending order, and returns it; k is clamped to
// len(scores). Ordering is total and path-independent — scores
// descend, exact ties break toward the lower index, and NaN scores rank
// below every finite score, tied with −Inf — whether the small-k scan
// or the sort path serves the request. scores is not modified, so a
// caller that scored the codebook once can take the best, the top k and
// the individual scores from the same vector.
func TopKScoresInto(scores []float64, k int, dst []int) []int {
	k = min(k, len(scores))
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	if k <= topKScanCutoff {
		// Partial selection by repeated scan: k is small (J−1 ≈ a
		// handful), so k linear passes beat sorting all M scores.
		for n := 0; n < k; n++ {
			best := -1
			for i := range scores {
				if best >= 0 && rankKey(scores[i]) <= rankKey(scores[best]) {
					continue
				}
				taken := false
				for _, t := range dst {
					if t == i {
						taken = true
						break
					}
				}
				if !taken {
					best = i
				}
			}
			dst = append(dst, best)
		}
		return dst
	}
	for i := range scores {
		dst = append(dst, i)
	}
	sort.Slice(dst, func(a, b int) bool {
		if ka, kb := rankKey(scores[dst[a]]), rankKey(scores[dst[b]]); ka != kb {
			return ka > kb
		}
		return dst[a] < dst[b]
	})
	return dst[:k]
}

// rankKey maps NaN to −Inf so both TopKScoresInto selection paths
// compare under one strict weak ordering.
func rankKey(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(-1)
	}
	return v
}

// String describes the codebook.
func (c *Codebook) String() string { return c.labels }
