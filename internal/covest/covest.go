// Package covest implements the low-rank covariance estimation at the
// heart of the paper (Sec. IV-A): maximum-likelihood estimation of the
// receive-side spatial covariance Q from noisy beamformed energy
// measurements, with a nuclear-norm penalty enforcing the low-rank
// structure of mmWave channels, solved by proximal gradient descent over
// the PSD cone. The package also holds the holdout µ selection
// (SelectMu) and the shrunk sample covariance (SampleCovariance) of the
// digital-receiver reference.
//
// # Measurement model
//
// Each observation j sounds an RX beam v_j and records the energy
// w_j = |z_j|² of the noise-normalized matched-filter output, so that
//
//	z_j ~ CN(0, λ_j(Q)),   λ_j(Q) = γ·v_jᴴ·Q·v_j + 1,
//
// the γ-normalized form of the paper's λ_j(Q) = v_jᴴ(Q + γ⁻¹I)v_j.
// The negative log-likelihood is Σ_j [log λ_j + w_j/λ_j], and the
// estimator solves
//
//	min_{Q ⪰ 0}  Σ_j [log λ_j(Q) + w_j/λ_j(Q)] + µ·‖Q‖_*
//
// (paper Eq. 23). On the PSD cone ‖Q‖_* = tr(Q), and the proximal
// operator is an eigenvalue soft-threshold.
//
// # Subspace reduction
//
// Every iterate of the proximal method lies in the span of the sounded
// beams {v_j} (the gradient is a combination of v_j·v_jᴴ and the prox
// preserves the span), so the solver first builds an orthonormal basis B
// of that span and works with the r×r reduced matrix Q̃ = Bᴴ·Q·B. The
// reduction is exact — objective values and iterates correspond one to
// one — and makes early TX slots (few measurements, small r) far cheaper
// than a full N×N eigendecomposition per step.
package covest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync/atomic"

	"mmwalign/internal/cmat"
)

// Observation is one energy measurement: the RX beam sounded and the
// observed matched-filter energy |z|².
type Observation struct {
	// V is the unit-norm RX beamforming vector used.
	V cmat.Vector
	// Energy is the observed |z|².
	Energy float64
}

// ObjectiveKind selects the likelihood the estimator optimizes.
type ObjectiveKind int

const (
	// PerMeasurement uses the exact per-measurement Gaussian likelihood
	// Σ_j [log λ_j + w_j/λ_j]. This is the default.
	PerMeasurement ObjectiveKind = iota + 1
	// Aggregate uses the paper's Eq. (18) single-statistic form
	// log(Σ_j λ_j) + (Σ_j w_j)/(Σ_j λ_j), kept for the ablation bench.
	Aggregate
)

// Options configures the estimator. The zero value is usable: defaults
// are filled by NewEstimator.
type Options struct {
	// Gamma is the pre-beamforming SNR E_s/N₀ (linear). Required.
	Gamma float64
	// Mu is the nuclear-norm regularization weight µ. Default 1.
	Mu float64
	// MaxIters bounds the proximal gradient iterations. Default 40.
	MaxIters int
	// Tol is the relative objective-decrease stopping tolerance.
	// Default 1e-5.
	Tol float64
	// InitStep is the initial proximal step size. Default 1.
	InitStep float64
	// Kind selects the likelihood. Default PerMeasurement.
	Kind ObjectiveKind
	// DisableReduction forces the solver to work in the full N×N space.
	// Exists for testing the subspace reduction; production callers
	// should leave it false.
	DisableReduction bool
	// Accelerated switches the proximal solver from plain ISTA with
	// backtracking (the default, monotone) to FISTA with adaptive
	// restart (Nesterov momentum; fewer iterations on ill-conditioned
	// instances at the cost of non-monotone progress).
	Accelerated bool
	// Batcher, when non-nil, routes the solver's per-iteration Q·V
	// product through an external batch scheduler instead of calling
	// cmat.MulInto directly — the seam that lets a multi-cell harness
	// coalesce same-shape GEMMs across concurrently solving estimators.
	// Purely a scheduling hook: implementations must return results
	// bitwise identical to dst.MulInto(a, b), so setting it can never
	// change an estimate.
	Batcher Batcher
}

// Batcher is the cross-estimator GEMM scheduling seam (Options.Batcher).
// MulInto must block until dst holds a·b and must produce exactly the
// bits dst.MulInto(a, b) would; it may execute the product on another
// goroutine (the caller establishes the necessary happens-before by
// blocking) and must propagate any panic of the underlying kernel back
// to the caller.
type Batcher interface {
	MulInto(dst, a, b *cmat.Matrix)
}

// withDefaults fills the solver's own defaults. The reproduction's µ and
// iteration budget live in align.SchemeSpec.WithDefaults, and every
// non-test caller passes them explicitly; µ = 1 and 40 iterations here
// are reached only by tests that build Options directly.
func (o Options) withDefaults() Options {
	if o.Mu == 0 {
		o.Mu = 1
	}
	if o.MaxIters == 0 {
		o.MaxIters = 40
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.InitStep == 0 {
		o.InitStep = 1
	}
	if o.Kind == 0 {
		o.Kind = PerMeasurement
	}
	return o
}

// StopReason records why the proximal solver stopped iterating.
type StopReason int

const (
	// StopConverged means the relative objective decrease fell below Tol.
	StopConverged StopReason = iota
	// StopMaxIters means the iteration cap was reached while still
	// making progress.
	StopMaxIters
	// StopNoProgress means backtracking could not find a decreasing step
	// (the ordinary terminal state of the monotone solver at an optimum
	// the tolerance test did not catch).
	StopNoProgress
	// StopStepCollapse means the backtracking step size collapsed below
	// the minimum before a decreasing step was found.
	StopStepCollapse
	// StopNonFinite means a NaN/Inf objective, gradient, or iterate was
	// detected; the solver recovered to its last finite iterate.
	StopNonFinite
	// StopDiverged means the objective ran away from the best value seen
	// repeatedly; the solver recovered to its best finite iterate.
	StopDiverged
	// StopProxFailure means a proximal step's eigendecomposition failed;
	// the solver recovered to its last finite iterate.
	StopProxFailure
	// StopCancelled means the context was cancelled or its deadline
	// passed; the solver returned its best finite iterate so far.
	StopCancelled
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopConverged:
		return "converged"
	case StopMaxIters:
		return "max-iters"
	case StopNoProgress:
		return "no-progress"
	case StopStepCollapse:
		return "step-collapse"
	case StopNonFinite:
		return "non-finite"
	case StopDiverged:
		return "diverged"
	case StopProxFailure:
		return "prox-failure"
	case StopCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// SolveDiagnostics is the typed, inspectable account of how a solve
// terminated. It lets callers distinguish a healthy estimate from one
// produced by a guardrail without parsing errors: the solver never
// returns a non-finite Q̂ — it recovers to the last finite iterate and
// reports what happened here.
type SolveDiagnostics struct {
	// Reason is the terminal state of the iteration.
	Reason StopReason
	// Recovered is true when a non-finite objective, gradient, or
	// iterate was detected at any point and the solver fell back to a
	// finite state (including a reset of a non-finite starting point).
	Recovered bool
	// DivergenceRestarts counts momentum restarts forced by objective
	// runaway (FISTA only).
	DivergenceRestarts int
}

// Degraded reports whether the solve ended through a guardrail rather
// than ordinary convergence, the iteration cap, or a clean line-search
// stall. A degraded-but-finite estimate is still usable; callers that
// need pristine estimates (e.g. the alignment fallback policy) can key
// off this.
func (d SolveDiagnostics) Degraded() bool {
	switch d.Reason {
	case StopNonFinite, StopDiverged, StopProxFailure, StopCancelled:
		return true
	}
	return d.Recovered
}

// Stats reports how an estimation run went. The counters make the
// solver's cost observable: a benchmark that reports them alongside
// wall-clock time can tell an algorithmic speedup (fewer
// eigendecompositions) from a mechanical one (same work, less
// allocation).
type Stats struct {
	// Iters is the number of proximal steps taken.
	Iters int
	// Objective is the final penalized negative log-likelihood.
	Objective float64
	// SubspaceDim is the dimension r of the measurement subspace the
	// solver worked in (equals N when reduction is disabled).
	SubspaceDim int
	// Rank is the rank of the returned estimate.
	Rank int
	// EigenDecomps counts the Hermitian eigendecompositions the solver
	// ran: one per proximal step (including rejected backtracking
	// trials), plus one for a final iterate that no accepted prox step
	// produced (whose factor must be found), plus one for a dense warm
	// start handed to Estimate (whose factor must be found too).
	EigenDecomps int
	// EigenIters totals the implicit-QL iterations of those
	// eigendecompositions: their exact cost, which depends only on the
	// matrices decomposed.
	EigenIters int
	// ObjectiveEvals counts evaluations of the penalized negative
	// log-likelihood.
	ObjectiveEvals int
	// GradientEvals counts gradient evaluations.
	GradientEvals int
	// Backtracks counts rejected backtracking line-search trials; each
	// one costs a full eigendecomposition.
	Backtracks int
	// LambdaMadds totals the complex multiply-adds of the λ products:
	// kept·dim·L for a λ vector read off a prox step's kept eigenpairs,
	// dim²·L for one computed from a dense iterate (L observations).
	// Like EigenIters, it depends only on the matrices involved.
	LambdaMadds int
	// GradientMadds totals the complex multiply-adds of the gradient
	// assemblies, dim(dim+1)/2·L each (the upper triangle of
	// V·diag(c)·Vᴴ).
	GradientMadds int
	// SetupMadds totals the complex multiply-adds of the work around
	// the solve, counting only work actually done: Gram-Schmidt (4·n·k
	// per beam projected against k basis vectors), the beam reduction
	// (n per reduced entry), the warm-start projection of a rank-k
	// factor (k·n·dim + dim(dim+1)/2·k), the lift of the rank-k result
	// (k·dim·n), and, for Estimate's dense result only, its formation
	// (n(n+1)/2·k). The subspace an estimator carries across calls
	// makes it depend on the previous call's observations, not only on
	// this call's.
	SetupMadds int
	// Diagnostics records how the solve terminated and whether any
	// guardrail fired.
	Diagnostics SolveDiagnostics
}

// Factor is a positive semidefinite N×N matrix held as its nonzero
// eigenpairs, Q = Σ_k S[k]·c_k·c_kᴴ with orthonormal c_k: the form of
// the estimator's result. The nuclear-norm prox keeps 1–3 eigenpairs
// of a 64-antenna estimate, so the factor is k×N where the dense matrix
// is N×N. Because the c_k are orthonormal, S is Q's nonzero spectrum.
// The estimator never writes a Factor it has returned.
type Factor struct {
	// UH is k×N; row k is c_kᴴ, so the n×k matrix U is UHᴴ.
	UH *cmat.Matrix
	// S holds the eigenvalues, in descending order.
	S []float64
}

// Trace returns tr(Q) = Σ_k S[k], which on the PSD cone is ‖Q‖_*.
func (f *Factor) Trace() float64 {
	var t float64
	for _, v := range f.S {
		t += v
	}
	return t
}

// Top returns Q's largest eigenvalue, 0 for the zero matrix.
func (f *Factor) Top() float64 {
	if len(f.S) == 0 {
		return 0
	}
	return f.S[0]
}

// Dense returns Q as an N×N matrix, at N(N+1)/2 complex multiply-adds
// per eigenpair.
func (f *Factor) Dense() *cmat.Matrix {
	q := cmat.New(f.UH.Cols(), f.UH.Cols())
	q.LowRankInto(f.UH, f.S)
	return q
}

// Estimator estimates the N×N receive spatial covariance from energy
// observations.
//
// An Estimator owns reusable solver workspaces, so repeated Estimate
// calls (the per-TX-slot cadence of the proposed scheme) allocate only
// for the returned matrix once the subspace dimension stabilizes. It
// also carries the measurement subspace from call to call: when a
// call's observations extend the previous call's, only the new beams
// are orthogonalized and reduced, with results bit-identical to a
// fresh estimator's. The workspace makes an Estimator NOT safe for
// concurrent use; create one estimator per goroutine, or lease pooled
// estimators so each request holds exclusive ownership (internal/serve
// does this). The single-owner contract is enforced: concurrent entry
// into Estimate panics rather than silently corrupting the shared
// arenas.
type Estimator struct {
	n    int
	opts Options
	wk   *solverWork
	// busy is the single-owner debug assertion: set on entry to
	// EstimateContext, cleared on exit. A second concurrent entry means
	// two goroutines share one workspace arena — always a caller bug —
	// and panics immediately instead of corrupting iterates silently.
	busy atomic.Bool
}

// Antennas returns N, the receiver size the estimator was built for.
func (e *Estimator) Antennas() int { return e.n }

// Reconfigure resets the estimator (see Reset) and replaces its
// options, so it answers every later call exactly as NewEstimator(n,
// opts) would while keeping its workspace storage: the way to reuse one
// estimator across alignments whose γ differs. It returns
// NewEstimator's error for invalid options and leaves the estimator
// unchanged then.
func (e *Estimator) Reconfigure(opts Options) error {
	opts = opts.withDefaults()
	if opts.Gamma <= 0 {
		return fmt.Errorf("covest: gamma %g must be positive", opts.Gamma)
	}
	if e.wk != nil && e.wk.fista != opts.Accelerated {
		// The FISTA buffers exist only in an accelerated workspace.
		e.wk = nil
	}
	e.opts = opts
	e.Reset()
	return nil
}

// Reset clears all cross-call solver state: the carried measurement
// subspace, the λ memoization and factor tags, and every workspace
// buffer over its whole storage. Reset is not needed for correctness
// between calls on one owner (a call whose beams differ from the
// carried ones rebuilds the subspace, and every call re-initializes the
// solver buffers from its inputs); it exists for pooled reuse across
// owners (a serving session lease), where it guarantees a freshly
// leased estimator cannot observe any numeric residue — not even
// transiently — of the previous owner's solve.
func (e *Estimator) Reset() {
	if e.wk == nil {
		return
	}
	wk := e.wk
	wk.lamFor = nil
	wk.factorFor = nil
	wk.accFor = nil
	wk.nb, wk.nobs = 0, 0
	// Zero whole storage, not just the current shapes, and drop the
	// references to the previous owner's beams.
	wk.dim = wk.sq
	for _, m := range wk.square() {
		m.Reshape(wk.sq, wk.sq)
		m.Zero()
	}
	for _, m := range [...]*cmat.Matrix{wk.basis, wk.vmat, wk.qv, wk.acc, wk.lifted} {
		clear(m.Raw())
	}
	clear(wk.s)
	clear(wk.accS[:cap(wk.accS)])
	clear(wk.liftS[:cap(wk.liftS)])
	clear(wk.beams[:cap(wk.beams)])
	clear(wk.beamAt[:cap(wk.beamAt)])
	clear(wk.carried[:cap(wk.carried)])
	clear(wk.energies[:cap(wk.energies)])
	clear(wk.colDots[:cap(wk.colDots)])
	clear(wk.lambdas[:cap(wk.lambdas)])
	clear(wk.coefs[:cap(wk.coefs)])
}

// solverWork holds the reusable buffers of the proximal solver so
// steady-state iterations allocate nothing. Each buffer is sized for the
// largest working dimension (and observation count) the estimator has
// held and reshaped below it, so a subspace that grows over early TX
// slots, then stabilizes at min(J·slots, N), allocates on growth only,
// and an estimator that has seen the largest problem of its owner never
// allocates again. Sizing everything at the ambient N up front instead
// would hold N×N buffers for subspaces that stay far smaller.
//
// The observation directions are packed once per Estimate call into the
// dim×L matrix vmat (column j = reduced beam ṽ_j), so every objective
// and gradient evaluation is a batched kernel. Every candidate the prox
// produces is low rank, Q̃ = Σ_k s_k·u_k·u_kᴴ over its kept eigenpairs,
// so its λ_j come from one kept×dim by dim×L GEMM W = Uᴴ·V as
// γ·Σ_k s_k·|W_kj|² + 1; iterates without a factor (the starting point,
// FISTA's extrapolated point, recovery copies) take one Q·V GEMM plus
// columnwise dots. The gradient assembles as V·diag(c)·Vᴴ, upper
// triangle only. Total observation-dependent memory is O(N·L) — the
// carried beams and reductions, the pack and its product buffer — where
// the old per-observation outer-product cache was O(L·dim²) and grew
// without bound at Window=0.
//
// The workspace also carries the measurement subspace across calls
// (see subspace): Algorithm 1 re-estimates after every TX slot from a
// history that only grows, so each call's observations usually extend
// the previous call's, and the basis and reductions of the common
// prefix are reused instead of rebuilt.
type solverWork struct {
	n, dim  int
	sq      int // capacity dimension of the square matrices and t
	eig     *cmat.EigenWorkspace
	grad    *cmat.Matrix // gradient accumulator
	scratch *cmat.Matrix // prox pre-threshold point: base − step·grad
	cur     *cmat.Matrix // ISTA iterate / FISTA x
	nxt     *cmat.Matrix // candidate produced by the prox
	// extr, best and diff are FISTA's own; an ISTA estimator leaves them
	// nil, which keeps its workspace (the bulk of a solving goroutine's
	// live heap) three dim×dim matrices smaller.
	fista bool
	extr  *cmat.Matrix // FISTA extrapolation point y
	best  *cmat.Matrix // FISTA best-seen iterate
	diff  *cmat.Matrix // FISTA momentum difference next − x

	// basis (brows×N storage) holds the orthonormal basis of the
	// carried subspace conjugated, row i = conj(b_i) for i < nb, so it
	// is Bᴴ's conjugate-free form: the left operand of every reduction
	// and of the warm projection's second GEMM. Row nb is Gram-Schmidt's
	// working vector. beams keeps one copy of each distinct beam the
	// nobs observations of the state were built from (entry k at
	// [k·N, (k+1)·N)) and beamAt[k] the caller's storage it was copied
	// from; carried[j] records observation j. The reductions ṽ_j = Bᴴv_j
	// are vmat's columns, which persist across calls.
	basis   *cmat.Matrix
	brows   int
	nb      int
	nobs    int
	beams   []complex128
	beamAt  []*complex128
	carried []carriedObs

	// acc (kept×dim) and accS hold the factor of the accepted iterate
	// tagged by accFor: a copy of the prox eigenpairs it was accepted
	// with, which later prox steps do not overwrite. Before the loop
	// acc holds the warm projection's uh·B. lifted (kept×N) and liftS
	// hold the lifted result, or before the loop a dense warm start's
	// factor. All four grow only when a larger factor arrives.
	acc    *cmat.Matrix
	accS   []float64
	accFor *cmat.Matrix
	lifted *cmat.Matrix
	liftS  []float64

	energies []float64    // observation energies
	lcap     int          // observation capacity of vmat and qv
	vmat     *cmat.Matrix // packed reduced beams, dim×L, column j = ṽ_j
	qv       *cmat.Matrix // product buffer, sq×lcap storage: Q·V, or Uᴴ·V reshaped kept×L
	colDots  []complex128 // columnwise dots diag(VᴴQV)
	lambdas  []float64    // λ_j(Q) for the matrix tagged by lamFor
	coefs    []complex128 // gradient coefficients c_j
	// lamFor tags which matrix wk.lambdas currently describes: the
	// gradient is always evaluated at a point whose objective was just
	// computed, so the λ vector can be reused verbatim instead of
	// re-running the GEMM. Any write to a workspace matrix must clear
	// the tag via noteWrite.
	lamFor *cmat.Matrix

	// uh (kept×dim over sq×sq storage) and s hold the kept eigenpairs
	// of the last prox step — row k of uh is u_kᴴ, s[k] its thresholded
	// eigenvalue — and factorFor tags the candidate they describe. Like
	// lamFor, noteWrite clears the tag.
	uh        *cmat.Matrix
	s         []float64
	factorFor *cmat.Matrix
}

// carriedObs records one observation of the carried subspace.
type carriedObs struct {
	beam    int // its entry in beams
	entries int // entries in beams once it was processed
	basis   int // basis size once it was processed
}

// noteWrite invalidates the cached λ vector and the factors when the
// matrix they describe is about to be overwritten.
func (wk *solverWork) noteWrite(m *cmat.Matrix) {
	if wk.lamFor == m {
		wk.lamFor = nil
	}
	if wk.factorFor == m {
		wk.factorFor = nil
	}
	if wk.accFor == m {
		wk.accFor = nil
	}
}

// keepFactor copies the last prox step's kept eigenpairs, which
// describe the candidate just accepted, into acc and tags them for m:
// the accepted iterate itself (ISTA) or FISTA's copy of it in best.
// Unlike the prox buffers, the copy outlives later trials.
func (wk *solverWork) keepFactor(m *cmat.Matrix) {
	kept := wk.uh.Rows()
	wk.acc = fit(wk.acc, kept, wk.dim)
	copy(wk.acc.Raw(), wk.uh.Raw()[:kept*wk.dim])
	wk.accS = resized(wk.accS, kept, 0)
	copy(wk.accS, wk.s)
	wk.accFor = m
}

// fit returns m reshaped to rows×cols, or a new matrix when m is nil or
// its storage is too small.
func fit(m *cmat.Matrix, rows, cols int) *cmat.Matrix {
	if m == nil || rows*cols > len(m.Raw()) {
		return cmat.New(rows, cols)
	}
	m.Reshape(rows, cols)
	return m
}

// work returns the estimator's workspace, creating it empty on first
// use; shape and subspace size it.
func (e *Estimator) work() *solverWork {
	if e.wk == nil {
		e.wk = &solverWork{n: e.n, fista: e.opts.Accelerated, eig: cmat.NewEigenWorkspace(0), basis: cmat.New(0, e.n), vmat: cmat.New(0, 0), acc: cmat.New(0, 0), lifted: cmat.New(0, 0)}
		e.wk.growSquare(0)
		e.wk.growPack()
	}
	return e.wk
}

// square lists the dim×dim solver matrices the workspace holds.
func (wk *solverWork) square() []*cmat.Matrix {
	if wk.fista {
		return []*cmat.Matrix{wk.grad, wk.scratch, wk.cur, wk.nxt, wk.uh, wk.extr, wk.best, wk.diff}
	}
	return []*cmat.Matrix{wk.grad, wk.scratch, wk.cur, wk.nxt, wk.uh}
}

// shape reshapes the workspace to working dimension dim and l
// observations, growing the buffers whose capacity is exceeded. The λ
// cache and the factor tag are invalidated: λ depends on the packed
// directions, and the caller is about to overwrite the starting iterate
// in place.
func (wk *solverWork) shape(dim, l int) {
	wk.dim = dim
	if dim > wk.sq || l > wk.lcap {
		if dim > wk.sq {
			wk.growSquare(dim)
		}
		if l > wk.lcap {
			wk.lcap = l
			wk.energies = make([]float64, l)
			wk.colDots = make([]complex128, l)
			wk.lambdas = make([]float64, l)
			wk.coefs = make([]complex128, l)
		}
		wk.growPack()
	}
	for _, m := range wk.square() {
		m.Reshape(dim, dim)
	}
	wk.vmat.Reshape(dim, l)
	wk.qv.Reshape(dim, l)
	wk.energies = wk.energies[:l]
	wk.colDots = wk.colDots[:l]
	wk.lambdas = wk.lambdas[:l]
	wk.coefs = wk.coefs[:l]
	wk.lamFor = nil
	wk.factorFor = nil
	wk.accFor = nil
}

// growSquare reallocates the buffers sized by the working dimension
// for capacity dim.
func (wk *solverWork) growSquare(dim int) {
	wk.sq = dim
	wk.grad, wk.scratch = cmat.New(dim, dim), cmat.New(dim, dim)
	wk.cur, wk.nxt = cmat.New(dim, dim), cmat.New(dim, dim)
	wk.uh = cmat.New(dim, dim)
	if wk.fista {
		wk.extr, wk.best, wk.diff = cmat.New(dim, dim), cmat.New(dim, dim), cmat.New(dim, dim)
	}
	wk.s = make([]float64, dim)
}

// growPack reallocates vmat and qv with storage for sq×lcap, carrying
// vmat's stored entries over in storage order (the carried reductions,
// see subspace).
func (wk *solverWork) growPack() {
	vmat := cmat.New(wk.sq, wk.lcap)
	copy(vmat.Raw(), wk.vmat.Raw())
	wk.vmat, wk.qv = vmat, cmat.New(wk.sq, wk.lcap)
}

// resized returns buf with length n, keeping its first keep entries
// when it has to grow.
func resized[T any](buf []T, n, keep int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	grown := make([]T, n)
	copy(grown, buf[:keep])
	return grown
}

// basisRowStep is how many rows the basis storage grows by: a TX slot
// adds at most J basis vectors, and stepping by a fixed amount instead
// of doubling keeps the storage within a step of the subspace.
const basisRowStep = 16

// growBasis grows the basis storage by basisRowStep rows, capped at n,
// keeping the first nb rows.
func (wk *solverWork) growBasis(nb int) {
	rows := min(wk.n, wk.brows+basisRowStep)
	grown := cmat.New(rows, wk.n)
	for i := 0; i < nb; i++ {
		copy(grown.RowView(i), wk.basis.RowView(i))
	}
	wk.basis, wk.brows = grown, rows
}

// sameBeam reports whether v and w hold the same bits, entry for entry.
func sameBeam(v, w []complex128) bool {
	for i, x := range v {
		y := w[i]
		if math.Float64bits(real(x)) != math.Float64bits(real(y)) || math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
			return false
		}
	}
	return true
}

// subspace brings the carried measurement subspace up to date with obs
// and returns the complex multiply-adds it spent: 4·n·k per beam
// projected against k basis vectors, n per reduced entry. When the
// beams span something, it leaves the workspace shaped to the subspace
// dimension with vmat holding the reduced beams; when wk.nb is 0 the
// caller works in the full space.
//
// The basis is modified Gram-Schmidt over the beams in order, capped at
// n vectors, and Gram-Schmidt is sequential: the basis vectors that the
// first p beams produce depend on those beams alone. So subspace finds
// the longest prefix of obs whose beams equal the carried ones bit for
// bit, truncates the basis to what that prefix produced, and continues
// Gram-Schmidt over the remaining beams only — the result is exactly
// the basis a from-scratch run builds. The reduced beams of the prefix
// stay in vmat and are reduced only against the new basis vectors. A
// mismatch at the first beam (a slid window, a beam changed in place, a
// Reset) rebuilds everything.
//
// Algorithm 1 sounds the same codebook beams under several TX beams, so
// the remembered beams are kept once per distinct beam: an observation
// whose beam is the caller's same storage as a remembered one, with the
// same bits, shares its copy.
func (wk *solverWork) subspace(obs []Observation) int {
	n, l := wk.n, len(obs)
	p := 0
	for p < wk.nobs && p < l && sameBeam(obs[p].V, wk.beam(wk.carried[p].beam)) {
		p++
	}
	nb, entries := 0, 0
	if p > 0 {
		nb, entries = wk.carried[p-1].basis, wk.carried[p-1].entries
	}
	kept := nb
	wk.carried = resized(wk.carried, l, p)
	clear(wk.beamAt[entries:])
	wk.beams, wk.beamAt = wk.beams[:entries*n], wk.beamAt[:entries]

	var madds int
	for j := p; j < l; j++ {
		v := obs[j].V
		k := wk.entryOf(v)
		if k < 0 {
			k = wk.remember(v)
		}
		if nb < n {
			if nb == wk.brows {
				wk.growBasis(nb)
			}
			// Two projection passes against the basis so far, in place
			// on the working row; entry values are identical to the
			// out-of-place v.Sub(b.Scale(b.Dot(v))) form.
			u := wk.basis.RowView(nb)
			copy(u, v)
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < nb; i++ {
					c := wk.basis.RowView(i)
					axpyConj(u, -dotConj(c, u), c)
				}
			}
			madds += 4 * n * nb
			if norm := u.Norm(); norm > 1e-9 {
				u.ScaleInPlace(complex(1/norm, 0))
				for x, ux := range u {
					u[x] = cmplx.Conj(ux)
				}
				nb++
			}
		}
		wk.carried[j] = carriedObs{beam: k, entries: len(wk.beamAt), basis: nb}
	}
	wk.nb, wk.nobs = nb, l
	if nb == 0 {
		return madds
	}

	// Reduce beams: ṽ_j = Bᴴ v_j (exact since v_j ∈ span B). vmat still
	// holds the carried reductions, rows i < kept of the prefix columns
	// j < p at the previous call's row stride; move them to this call's
	// stride, then fill in the rest.
	stride := wk.vmat.Cols()
	wk.shape(nb, l)
	raw := wk.vmat.Raw()
	if l > stride {
		for i := kept - 1; i >= 0; i-- {
			copy(raw[i*l:i*l+p], raw[i*stride:i*stride+p])
		}
	} else if l < stride {
		for i := 0; i < kept; i++ {
			copy(raw[i*l:i*l+p], raw[i*stride:i*stride+p])
		}
	}
	for i := 0; i < nb; i++ {
		from := 0
		if i < kept {
			from = p
		}
		c := wk.basis.RowView(i)
		row := raw[i*l : (i+1)*l]
		for j := from; j < l; j++ {
			row[j] = dotConj(c, obs[j].V)
		}
		madds += (l - from) * n
	}
	return madds
}

// beam returns the remembered beam entry k.
func (wk *solverWork) beam(k int) []complex128 {
	return wk.beams[k*wk.n : (k+1)*wk.n]
}

// remember appends a copy of v as a new beam entry and returns its
// index. The storage grows by basisRowStep entries at a time, so an
// alignment's history reallocates it a few times and it stays within a
// step of the distinct beams it holds.
func (wk *solverWork) remember(v []complex128) int {
	k := len(wk.beamAt)
	if k == cap(wk.beamAt) {
		beams := make([]complex128, k*wk.n, (k+basisRowStep)*wk.n)
		copy(beams, wk.beams)
		beamAt := make([]*complex128, k, k+basisRowStep)
		copy(beamAt, wk.beamAt)
		wk.beams, wk.beamAt = beams, beamAt
	}
	wk.beams = append(wk.beams, v...)
	wk.beamAt = append(wk.beamAt, &v[0])
	return k
}

// entryOf returns the remembered beam entry copied from v's storage
// that still holds v's bits, or -1.
func (wk *solverWork) entryOf(v []complex128) int {
	for k, at := range wk.beamAt {
		if at == &v[0] && sameBeam(v, wk.beam(k)) {
			return k
		}
	}
	return -1
}

// dotConj returns Σ_x c[x]·u[x], which for a conjugated basis row
// c = conj(b) is bᴴu with exactly the products and order of b.Dot(u).
func dotConj(c, u cmat.Vector) complex128 {
	var s complex128
	for x, cx := range c {
		s += cx * u[x]
	}
	return s
}

// axpyConj adds alpha·conj(c) to u in place: for c = conj(b) it is
// u.AddScaledInPlace(alpha, b), bit for bit.
func axpyConj(u cmat.Vector, alpha complex128, c cmat.Vector) {
	for x, cx := range c {
		u[x] += alpha * cmplx.Conj(cx)
	}
}

// NewEstimator creates an estimator for an N-antenna receiver. Returns
// an error if n or the configured Gamma is not positive.
func NewEstimator(n int, opts Options) (*Estimator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("covest: antenna count %d must be positive", n)
	}
	opts = opts.withDefaults()
	if opts.Gamma <= 0 {
		return nil, fmt.Errorf("covest: gamma %g must be positive", opts.Gamma)
	}
	return &Estimator{n: n, opts: opts}, nil
}

// ErrNoObservations is returned when Estimate is called with no data.
var ErrNoObservations = errors.New("covest: no observations")

// ObservationError is the typed rejection of an invalid observation —
// a beam of the wrong dimension or a negative/NaN/Inf energy. It
// carries the offending index so fault attribution can point at the
// exact measurement.
type ObservationError struct {
	// Index is the position of the bad observation in the input slice.
	Index int
	// BadEnergy is true when the energy is at fault, false when the
	// beam dimension is.
	BadEnergy bool
	// Dim is the beam dimension found.
	Dim int
	// Energy is the offending energy value.
	Energy float64
	// Want is the expected beam dimension.
	Want int
}

// Error implements error.
func (e *ObservationError) Error() string {
	if e.BadEnergy {
		return fmt.Sprintf("covest: observation %d has invalid energy %g", e.Index, e.Energy)
	}
	return fmt.Sprintf("covest: observation %d has beam dimension %d, want %d", e.Index, e.Dim, e.Want)
}

// Estimate solves the regularized ML problem for Q given the
// observations. warm, if non-nil, seeds the solver with a previous
// estimate (the algorithm carries Q̂ across TX slots); otherwise a
// back-projection initializer is used. Estimate is the non-cancellable
// convenience form of EstimateContext.
func (e *Estimator) Estimate(obs []Observation, warm *cmat.Matrix) (*cmat.Matrix, Stats, error) {
	return e.EstimateContext(context.Background(), obs, warm)
}

// EstimateContext is Estimate with cooperative cancellation: when ctx
// is cancelled or its deadline passes, the solver stops at the next
// iteration boundary and returns its best finite iterate alongside the
// context's error, with Stats.Diagnostics marking the early stop
// (StopCancelled). The returned matrix is valid and PSD whenever it is
// non-nil, even when err is non-nil.
//
// It is EstimateFactor for callers that want the dense N×N matrix: a
// dense warm start is decomposed into its positive eigenpairs first,
// and the factored result is formed densely at the end.
func (e *Estimator) EstimateContext(ctx context.Context, obs []Observation, warm *cmat.Matrix) (*cmat.Matrix, Stats, error) {
	e.acquire()
	defer e.busy.Store(false)
	uh, s, stats, err := e.estimate(ctx, obs, nil, warm)
	if uh == nil {
		return nil, stats, err
	}
	stats.SetupMadds += e.n * (e.n + 1) / 2 * len(s)
	return (&Factor{UH: uh, S: s}).Dense(), stats, err
}

// EstimateFactor is EstimateContext with the estimate in factored form,
// both ways: warm, if non-nil, seeds the solver with a previous
// factored estimate (one whose width is not N is ignored, like a dense
// warm start of the wrong size), and the result is the factor the
// solver's last accepted prox step produced, lifted to the ambient
// space. It never forms an N×N matrix.
func (e *Estimator) EstimateFactor(ctx context.Context, obs []Observation, warm *Factor) (*Factor, Stats, error) {
	e.acquire()
	defer e.busy.Store(false)
	uh, s, stats, err := e.estimate(ctx, obs, warm, nil)
	if uh == nil {
		return nil, stats, err
	}
	return &Factor{UH: uh.Clone(), S: append([]float64(nil), s...)}, stats, err
}

// acquire is the single-owner assertion: it marks the estimator busy
// and panics when another call already holds it. The caller clears busy
// once it has read the workspace's result.
func (e *Estimator) acquire() {
	if !e.busy.CompareAndSwap(false, true) {
		panic("covest: concurrent Estimate on a shared Estimator (single-owner workspace)")
	}
}

// estimate validates the call and runs the solve; the result's factor
// is in workspace storage, nil when the solve produced none.
func (e *Estimator) estimate(ctx context.Context, obs []Observation, warm *Factor, dense *cmat.Matrix) (*cmat.Matrix, []float64, Stats, error) {
	if len(obs) == 0 {
		return nil, nil, Stats{}, ErrNoObservations
	}
	for i, o := range obs {
		if len(o.V) != e.n {
			return nil, nil, Stats{}, &ObservationError{Index: i, Dim: len(o.V), Want: e.n}
		}
		if o.Energy < 0 || math.IsNaN(o.Energy) || math.IsInf(o.Energy, 0) {
			return nil, nil, Stats{}, &ObservationError{Index: i, BadEnergy: true, Energy: o.Energy, Want: e.n}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, Stats{Diagnostics: SolveDiagnostics{Reason: StopCancelled}}, err
	}
	return e.solve(ctx, obs, warm, dense)
}

// solve runs the proximal gradient loop in the measurement subspace
// (the full space when reduction is disabled, or when no beam has a
// usable direction) and returns the lifted factor of the result, in
// workspace storage. All loop state lives in the estimator's reusable
// workspace. On cancellation the best finite iterate reached so far is
// still lifted and returned alongside the context error.
func (e *Estimator) solve(ctx context.Context, obs []Observation, warm *Factor, dense *cmat.Matrix) (*cmat.Matrix, []float64, Stats, error) {
	wk := e.work()
	var setup int
	reduced := !e.opts.DisableReduction
	if reduced {
		setup = wk.subspace(obs)
		reduced = wk.nb > 0
	}
	dim := e.n
	if reduced {
		dim = wk.nb
	}

	// Pack the observation directions once: every objective and
	// gradient evaluation reuses the dim×L matrix in batched kernels.
	if !reduced {
		wk.shape(dim, len(obs))
		for j, o := range obs {
			wk.vmat.SetCol(j, o.V)
		}
	}
	for j, o := range obs {
		wk.energies[j] = o.Energy
	}

	stats := Stats{SubspaceDim: dim}
	if dense != nil && dense.Rows() == e.n && dense.Cols() == e.n {
		// A dense warm start enters as its positive eigenpairs, held in
		// lifted until the final lift.
		stats.EigenDecomps++
		eig, err := wk.eig.EigHermitian(dense)
		stats.EigenIters += wk.eig.Iters()
		if err != nil {
			// A poisoned warm start: start from zero, as the loops do
			// from a start whose objective is not finite.
			wk.lifted, wk.liftS = fit(wk.lifted, 0, e.n), wk.liftS[:0]
			stats.Diagnostics.Recovered = true
		} else {
			wk.lifted, wk.liftS = positivePart(eig, wk.lifted, wk.liftS)
		}
		warm = &Factor{UH: wk.lifted, S: wk.liftS}
	}
	if warm != nil && warm.UH.Cols() == e.n {
		setup += wk.warmInto(wk.cur, warm.UH, warm.S, reduced)
	} else {
		e.backProjectInto(wk.cur, wk)
	}
	var q *cmat.Matrix
	var obj float64
	var err error
	if e.opts.Accelerated {
		q, obj, err = e.fistaLoop(ctx, wk, wk.energies, &stats)
	} else {
		q, obj, err = e.istaLoop(ctx, wk, wk.energies, &stats)
	}
	stats.SetupMadds = setup
	if q == nil {
		return nil, nil, stats, err
	}

	stats.Objective = obj
	// The result's factor is the one the final iterate was accepted
	// with. An iterate no accepted prox step produced (the starting
	// point, or a recovery copy) is decomposed for its positive
	// eigenpairs instead.
	if wk.accFor != q {
		stats.EigenDecomps++
		eig, eigErr := wk.eig.EigHermitian(q)
		stats.EigenIters += wk.eig.Iters()
		if eigErr != nil {
			return nil, nil, stats, fmt.Errorf("covest: decomposing estimate: %w", eigErr)
		}
		wk.acc, wk.accS = positivePart(eig, wk.acc, wk.accS)
	}
	// B is orthonormal, so the lifted c_k = B·u_k are orthonormal and
	// the weights are Q̂'s nonzero spectrum.
	uh := wk.acc
	if reduced {
		uh = wk.liftFactor()
		stats.SetupMadds += len(wk.accS) * dim * e.n
	}
	stats.Rank = rankOfPSDSpectrum(wk.accS, 1e-8)
	// err carries the context error of a cancelled solve; the estimate
	// itself is still the valid best finite iterate.
	return uh, wk.accS, stats, err
}

// positivePart writes the eigenpairs of eig with positive eigenvalues
// into uh (row k = v_kᴴ, storage grown as needed) and s, and returns
// them.
func positivePart(eig cmat.Eigen, uh *cmat.Matrix, s []float64) (*cmat.Matrix, []float64) {
	kept := 0
	for kept < len(eig.Values) && eig.Values[kept] > 0 {
		kept++
	}
	uh = fit(uh, kept, eig.Vectors.Rows())
	for k := 0; k < kept; k++ {
		row := uh.RowView(k)
		for i := range row {
			row[i] = cmplx.Conj(eig.Vectors.At(i, k))
		}
	}
	s = resized(s, kept, 0)
	copy(s, eig.Values)
	return uh, s
}

// liftFactor writes the reduced result's factor acc into the ambient
// space and returns it: lifted = acc·Bᴴ, whose row k is (B·u_k)ᴴ, as
// one kept×dim by dim×N GEMM against the stored basis rows.
func (wk *solverWork) liftFactor() *cmat.Matrix {
	n, dim := wk.n, wk.dim
	wk.lifted = fit(wk.lifted, wk.acc.Rows(), n)
	wk.basis.Reshape(dim, n)
	wk.lifted.MulInto(wk.acc, wk.basis)
	wk.basis.Reshape(wk.brows, n)
	return wk.lifted
}

// rankOfPSDSpectrum counts eigenvalues above tol·λ_max among the
// positive ones — the rank of Σ_{λ>0} λ·v·vᴴ.
func rankOfPSDSpectrum(vals []float64, tol float64) int {
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 0
	}
	cut := tol * max
	n := 0
	for _, v := range vals {
		if v > cut {
			n++
		}
	}
	return n
}

// istaLoop runs monotone proximal gradient descent (ISTA) with
// backtracking line search on the iterate preloaded in wk.cur. Returns
// the final iterate (a workspace buffer) and objective. Steady-state
// iterations allocate nothing: the gradient, the prox scratch, and the
// candidate all live in the workspace, and accepted candidates are
// adopted by pointer swap.
//
// Guardrails (all O(1) per iteration, piggybacking on values the loop
// already computes): a non-finite starting objective resets the iterate
// to zero; a non-finite gradient or a failed prox eigendecomposition
// stops the loop at the last accepted (finite) iterate; monotone
// acceptance means NaN/Inf candidates are rejected like any
// non-decreasing trial, so the iterate can never go non-finite. A
// cancelled context stops at the next iteration boundary and the
// current iterate is returned with the context's error.
func (e *Estimator) istaLoop(ctx context.Context, wk *solverWork, ws []float64, stats *Stats) (*cmat.Matrix, float64, error) {
	diag := &stats.Diagnostics
	q := wk.cur
	obj := e.objective(q, wk, ws, stats)
	stats.ObjectiveEvals++
	if !isFinite(obj) {
		// A poisoned warm start (or a pathological back-projection) is
		// unrecoverable by descent: restart from the zero matrix, whose
		// objective is always finite for validated observations.
		wk.noteWrite(q)
		q.Zero()
		obj = e.objective(q, wk, ws, stats)
		stats.ObjectiveEvals++
		diag.Recovered = true
	}
	diag.Reason = StopMaxIters
	step := e.opts.InitStep
	for it := 0; it < e.opts.MaxIters; it++ {
		if ctx.Err() != nil {
			diag.Reason = StopCancelled
			return q, obj, ctx.Err()
		}
		if ok := e.gradientInto(wk.grad, q, wk, ws, stats); !ok {
			diag.Reason = StopNonFinite
			diag.Recovered = true
			return q, obj, nil
		}
		stats.GradientEvals++
		improved := false
		sawNonFinite := false
		for try := 0; try < 30; try++ {
			if err := e.proxStepInto(wk, q, step, stats); err != nil {
				diag.Reason = StopProxFailure
				diag.Recovered = true
				return q, obj, nil
			}
			nextObj := e.objective(wk.nxt, wk, ws, stats)
			stats.ObjectiveEvals++
			if !isFinite(nextObj) {
				sawNonFinite = true
			}
			if nextObj <= obj {
				rel := (obj - nextObj) / (math.Abs(obj) + 1)
				q, wk.nxt = wk.nxt, q
				wk.cur = q // keep cur/nxt distinct for the next call
				wk.keepFactor(q)
				obj = nextObj
				stats.Iters = it + 1
				improved = true
				step *= 1.2
				if rel < e.opts.Tol {
					diag.Reason = StopConverged
					it = e.opts.MaxIters // converged: exit outer loop
				}
				break
			}
			stats.Backtracks++
			step /= 2
			if step < 1e-12 {
				if diag.Reason != StopConverged {
					diag.Reason = StopStepCollapse
				}
				break
			}
		}
		if !improved {
			switch {
			case sawNonFinite:
				diag.Reason = StopNonFinite
				diag.Recovered = true
			case diag.Reason == StopMaxIters:
				diag.Reason = StopNoProgress
			}
			break
		}
	}
	return q, obj, nil
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// fistaLoop runs FISTA (Nesterov-accelerated proximal gradient) with
// backtracking and adaptive restart: whenever the objective increases,
// the momentum is reset, which recovers monotone behaviour on the
// non-convex part of the likelihood while keeping the acceleration on
// well-behaved stretches.
//
// Guardrails mirror istaLoop's, with two additions the non-monotone
// method needs: a non-finite extrapolated point kills the momentum and
// restarts from the best iterate seen, and repeated objective runaway
// past the best value (divergence, possible here because acceptance is
// not monotone) stops the loop after a bounded number of forced
// restarts. The returned iterate is always the best finite one seen.
func (e *Estimator) fistaLoop(ctx context.Context, wk *solverWork, ws []float64, stats *Stats) (*cmat.Matrix, float64, error) {
	diag := &stats.Diagnostics
	x := wk.cur
	y := wk.extr
	obj := e.objective(x, wk, ws, stats)
	stats.ObjectiveEvals++
	if !isFinite(obj) {
		wk.noteWrite(x)
		x.Zero()
		obj = e.objective(x, wk, ws, stats)
		stats.ObjectiveEvals++
		diag.Recovered = true
	}
	wk.noteWrite(y)
	y.CopyFrom(x)
	best := wk.best
	wk.noteWrite(best)
	best.CopyFrom(x)
	bestObj := obj
	step := e.opts.InitStep
	tMom := 1.0
	// Divergence is declared when an accepted objective exceeds the best
	// seen by this margin; three forced restarts without recovery stop
	// the solve.
	divergeLimit := 1e6 * (math.Abs(bestObj) + 1)
	diag.Reason = StopMaxIters

	for it := 0; it < e.opts.MaxIters; it++ {
		if ctx.Err() != nil {
			diag.Reason = StopCancelled
			return best, bestObj, ctx.Err()
		}
		// The extrapolated point y is fixed for the whole backtracking
		// search, so its objective is loop-invariant: evaluate it once
		// per outer iteration, not once per trial.
		objY := e.objective(y, wk, ws, stats)
		stats.ObjectiveEvals++
		if !isFinite(objY) {
			// Momentum overshot into non-finite territory: restart from
			// the best iterate (whose objective is finite by
			// construction) with the momentum killed.
			tMom = 1
			wk.noteWrite(y)
			y.CopyFrom(best)
			wk.noteWrite(x)
			x.CopyFrom(best)
			obj = bestObj
			step /= 2
			diag.Recovered = true
			if step < 1e-12 {
				diag.Reason = StopStepCollapse
				break
			}
			continue
		}
		if ok := e.gradientInto(wk.grad, y, wk, ws, stats); !ok {
			diag.Reason = StopNonFinite
			diag.Recovered = true
			return best, bestObj, nil
		}
		stats.GradientEvals++
		var nextObj float64
		accepted := false
		sawNonFinite := false
		for try := 0; try < 30; try++ {
			if err := e.proxStepInto(wk, y, step, stats); err != nil {
				diag.Reason = StopProxFailure
				diag.Recovered = true
				return best, bestObj, nil
			}
			candObj := e.objective(wk.nxt, wk, ws, stats)
			stats.ObjectiveEvals++
			if !isFinite(candObj) {
				sawNonFinite = true
			}
			// Backtracking acceptance: sufficient decrease relative to
			// the extrapolated point's majorizer. NaN/Inf candidates
			// fail both comparisons and are backtracked like any
			// rejected trial.
			if candObj <= objY+1e-12 || candObj <= obj {
				nextObj = candObj
				accepted = true
				break
			}
			stats.Backtracks++
			step /= 2
			if step < 1e-12 {
				diag.Reason = StopStepCollapse
				break
			}
		}
		if !accepted {
			switch {
			case sawNonFinite:
				diag.Reason = StopNonFinite
				diag.Recovered = true
			case diag.Reason == StopMaxIters:
				diag.Reason = StopNoProgress
			}
			break
		}
		stats.Iters = it + 1

		if !isFinite(nextObj) || nextObj-bestObj > divergeLimit {
			// Objective runaway: the accepted candidate is far above
			// (or beyond) anything useful. Kill the momentum, shrink
			// the step, and retry from the best iterate; give up after
			// three such restarts.
			diag.DivergenceRestarts++
			tMom = 1
			wk.noteWrite(y)
			y.CopyFrom(best)
			wk.noteWrite(x)
			x.CopyFrom(best)
			obj = bestObj
			step /= 4
			if diag.DivergenceRestarts >= 3 || step < 1e-12 {
				diag.Reason = StopDiverged
				diag.Recovered = true
				break
			}
			continue
		}
		if nextObj > obj {
			// Adaptive restart: kill the momentum and retry from the
			// best point seen.
			tMom = 1
			wk.noteWrite(y)
			y.CopyFrom(best)
			wk.noteWrite(x)
			x.CopyFrom(best)
			obj = bestObj
			continue
		}
		rel := (obj - nextObj) / (math.Abs(obj) + 1)
		tNext := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
		momentum := complex((tMom-1)/tNext, 0)
		// y = next + momentum·(next − x), then adopt the candidate as
		// the new iterate by pointer swap (its old storage becomes the
		// next prox target).
		wk.noteWrite(wk.diff)
		wk.diff.SubInto(wk.nxt, x)
		wk.noteWrite(y)
		y.AddScaledInto(wk.nxt, momentum, wk.diff)
		x, wk.nxt = wk.nxt, x
		wk.cur = x // keep cur/nxt distinct for the next call
		obj, tMom = nextObj, tNext
		if obj < bestObj {
			wk.noteWrite(best)
			best.CopyFrom(x)
			wk.keepFactor(best)
			bestObj = obj
		}
		if rel < e.opts.Tol {
			diag.Reason = StopConverged
			break
		}
	}
	return best, bestObj, nil
}

// proxStepInto applies one proximal gradient step from base with the
// given step size, prox_{step·µ‖·‖_*,⪰0}(base − step·wk.grad), writing
// the candidate into wk.nxt and its kept eigenpairs into wk.uh/wk.s,
// tagged for wk.nxt. The pre-threshold point lives in wk.scratch and
// the eigendecomposition runs in the shared workspace, so the step
// allocates nothing.
func (e *Estimator) proxStepInto(wk *solverWork, base *cmat.Matrix, step float64, stats *Stats) error {
	wk.noteWrite(wk.scratch)
	wk.scratch.AddScaledInto(base, complex(-step, 0), wk.grad)
	wk.scratch.HermitianizeInPlace()
	stats.EigenDecomps++
	wk.noteWrite(wk.nxt)
	// The factor buffers are about to be overwritten, whichever matrix
	// they described.
	wk.factorFor = nil
	_, err := cmat.EigenSoftThresholdPSDInto(wk.eig, wk.nxt, wk.uh, wk.s, wk.scratch, step*e.opts.Mu)
	stats.EigenIters += wk.eig.Iters()
	if err != nil {
		return fmt.Errorf("covest: prox step: %w", err)
	}
	wk.factorFor = wk.nxt
	return nil
}

// backProjectInto writes the cold starting iterate into dst: the
// back-projection of the excess energies Σ_j max(w_j−1, 0)/γ · ṽ_j·ṽ_jᴴ / L.
func (e *Estimator) backProjectInto(dst *cmat.Matrix, wk *solverWork) {
	dst.Zero()
	l := wk.vmat.Cols()
	for j, w := range wk.energies {
		excess := math.Max(w-1, 0) / e.opts.Gamma
		if excess == 0 {
			continue
		}
		dst.AddScaledOuterCol(complex(excess/float64(l), 0), wk.vmat, j)
	}
	dst.HermitianizeInPlace()
}

// warmInto writes the warm start Bᴴ·Q_w·B of a factored estimate
// Q_w = Σ_k s_k·c_k·c_kᴴ (row k of uh is c_kᴴ) into dst and returns its
// complex multiply-adds. With w_k = Bᴴ·c_k it is Σ_k s_k·w_k·w_kᴴ: one
// k×N by N×dim product uh·B, whose row k is w_kᴴ, into acc (free before
// the loop), then the Gram form, k·N·dim + dim(dim+1)/2·k in all. In the
// full space (B = I) only the Gram form remains.
func (wk *solverWork) warmInto(dst, uh *cmat.Matrix, s []float64, reduced bool) int {
	n, dim, k := wk.n, wk.dim, uh.Rows()
	if !reduced {
		dst.LowRankInto(uh, s)
		return n * (n + 1) / 2 * k
	}
	wk.acc = fit(wk.acc, k, dim)
	wk.basis.Reshape(dim, n)
	wk.acc.MulHermInto(uh, wk.basis)
	wk.basis.Reshape(wk.brows, n)
	dst.LowRankInto(wk.acc, s)
	return k*n*dim + dim*(dim+1)/2*k
}

// lambdaFloor is the shared guardrail under every λ evaluation: λ is
// floored slightly above zero so a transiently indefinite iterate
// cannot produce log of a non-positive number. The solver's objective,
// its gradient, and the µ-selection validation scorer all go through
// flooredLambda so the guardrail cannot drift between them.
const lambdaFloor = 1e-9

// flooredLambda returns λ = γ·quad + 1 floored at lambdaFloor, where
// quad is the quadratic form vᴴQv.
func flooredLambda(gamma, quad float64) float64 {
	l := gamma*quad + 1
	if l < lambdaFloor {
		return lambdaFloor
	}
	return l
}

// lambdasFor returns λ_j(Q) for every packed observation direction,
// evaluated in one batch. When q is the candidate of the last prox step
// (wk.factorFor), the kept eigenpairs give them cheaply: W = Uᴴ·V with
// one kept×dim GEMM, then λ_j = γ·Σ_k s_k·|W_kj|² + 1, with no GEMM at
// all when nothing survived the threshold. Any other q takes Q·V with a
// single GEMM, then columnwise dots ṽ_jᴴ(Q·ṽ_j), which accumulate in
// the scalar QuadForm's order and so match it bit for bit; the factored
// λ match it to rounding. The result is memoized for the matrix it
// was computed on (cleared by noteWrite), which lets the gradient reuse
// the λ vector its caller just computed for the objective at the same
// point. Every product goes through Options.Batcher when one is set.
func (e *Estimator) lambdasFor(q *cmat.Matrix, wk *solverWork, stats *Stats) []float64 {
	if wk.lamFor == q {
		return wk.lambdas
	}
	dim, l := wk.vmat.Rows(), wk.vmat.Cols()
	if wk.factorFor == q {
		kept := wk.uh.Rows()
		if kept == 0 {
			for j := range wk.lambdas {
				wk.lambdas[j] = flooredLambda(e.opts.Gamma, 0)
			}
		} else {
			wk.qv.Reshape(kept, l)
			e.mulInto(wk.qv, wk.uh, wk.vmat)
			stats.LambdaMadds += kept * dim * l
			for j := range wk.lambdas {
				var quad float64
				for k, sk := range wk.s[:kept] {
					w := wk.qv.At(k, j)
					quad += sk * (real(w)*real(w) + imag(w)*imag(w))
				}
				wk.lambdas[j] = flooredLambda(e.opts.Gamma, quad)
			}
		}
	} else {
		wk.qv.Reshape(dim, l)
		e.mulInto(wk.qv, q, wk.vmat)
		stats.LambdaMadds += dim * dim * l
		cmat.ColumnDotsInto(wk.colDots, wk.vmat, wk.qv)
		for j, d := range wk.colDots {
			wk.lambdas[j] = flooredLambda(e.opts.Gamma, real(d))
		}
	}
	wk.lamFor = q
	return wk.lambdas
}

// mulInto writes a·b into dst through Options.Batcher when one is set.
func (e *Estimator) mulInto(dst, a, b *cmat.Matrix) {
	if e.opts.Batcher != nil {
		e.opts.Batcher.MulInto(dst, a, b)
	} else {
		dst.MulInto(a, b)
	}
}

// objective evaluates the penalized negative log-likelihood using the
// batched λ kernel.
func (e *Estimator) objective(q *cmat.Matrix, wk *solverWork, ws []float64, stats *Stats) float64 {
	ls := e.lambdasFor(q, wk, stats)
	var f float64
	switch e.opts.Kind {
	case Aggregate:
		var s, w float64
		for j, l := range ls {
			s += l
			w += ws[j]
		}
		f = math.Log(s) + w/s
	default:
		for j, l := range ls {
			f += math.Log(l) + ws[j]/l
		}
	}
	// ‖Q‖_* = tr(Q) on the PSD cone; iterates stay PSD after the prox.
	return f + e.opts.Mu*real(q.Trace())
}

// gradientInto writes ∇f(Q) into g (without the penalty term, which is
// handled by the proximal operator), assembled as the batched Gram
// product V·diag(c)·Vᴴ — per upper-triangle entry an ordered sum of
// c_j·(ṽ_j·ṽ_jᴴ) terms, bitwise identical to the rank-one accumulation
// it replaces, with each lower entry the conjugate of its mirror. It
// reports false when any coefficient is NaN/Inf — the O(1) guardrail
// (per coefficient already being computed) that keeps a poisoned
// gradient from ever reaching the prox step.
func (e *Estimator) gradientInto(g, q *cmat.Matrix, wk *solverWork, ws []float64, stats *Stats) bool {
	ls := e.lambdasFor(q, wk, stats)
	switch e.opts.Kind {
	case Aggregate:
		var s, w float64
		for j, l := range ls {
			s += l
			w += ws[j]
		}
		coef := (1/s - w/(s*s)) * e.opts.Gamma
		if !isFinite(coef) {
			return false
		}
		for j := range wk.coefs {
			wk.coefs[j] = complex(coef, 0)
		}
	default:
		for j, l := range ls {
			coef := (1/l - ws[j]/(l*l)) * e.opts.Gamma
			if !isFinite(coef) {
				return false
			}
			wk.coefs[j] = complex(coef, 0)
		}
	}
	wk.noteWrite(g)
	g.MulDiagGramInto(wk.vmat, wk.coefs)
	dim, l := wk.vmat.Rows(), wk.vmat.Cols()
	stats.GradientMadds += dim * (dim + 1) / 2 * l
	return true
}
