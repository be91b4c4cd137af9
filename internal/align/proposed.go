package align

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	runobs "mmwalign/internal/obs"
)

// WarmState carries the covariance estimate Q̂ across alignments of the
// same link. A strategy configured with a WarmState seeds its first
// estimation from the previous alignment's final Q̂ instead of starting
// blind, and writes its own final estimate back when it finishes —
// tracking-aware behavior for mobility scenarios where the channel at
// realignment k+1 is a perturbation of the channel at realignment k.
// The zero value is a valid cold start. A WarmState ties its strategy
// to one link: strategies sharing a WarmState must not run
// concurrently.
type WarmState struct {
	// Q is the carried-over estimate, as its factor; nil until the first
	// alignment completes with a usable estimate. The estimator never
	// writes a factor it has returned, so Q is shared, not copied.
	Q *covest.Factor
}

// ProposedConfig configures the paper's learning-based strategy.
type ProposedConfig struct {
	// J is the number of RX measurements per TX slot (the paper's J).
	// Zero takes SchemeSpec's default.
	J int
	// Estimator configures the covariance estimator. Gamma is filled
	// from the sounder when zero.
	Estimator covest.Options
	// Window bounds how many recent observations feed each estimation
	// (0 = use the full history). A bounded window keeps per-slot cost
	// flat over long searches.
	Window int
	// AutoMuGrid, when non-empty, selects the regularization weight µ
	// by holdout validation (covest.SelectMu) once enough measurements
	// have accumulated, overriding Estimator.Mu. Adds one estimation per
	// grid entry at selection time.
	AutoMuGrid []float64
	// Warm, when non-nil, carries Q̂ across successive alignments of the
	// same link (see WarmState). nil keeps the strategy stateless.
	Warm *WarmState
}

func (c ProposedConfig) withDefaults() ProposedConfig {
	if c.J == 0 {
		c.J = SchemeSpec{}.WithDefaults().J
	}
	return c
}

// ProposedStrategy is Algorithm 1 of the paper. Per TX slot i (TX beam
// chosen randomly without pair repetition):
//
//  1. The receiver picks the J−1 RX beams with the largest vᴴQ̂v under
//     the covariance estimate Q̂ carried over from the previous slot
//     (randomly for the very first slot) and measures them.
//  2. It re-estimates Q̂ from the accumulated energy measurements via the
//     nuclear-norm-regularized ML of Sec. IV-A.
//  3. The J-th measurement is taken on the best remaining beam under the
//     fresh estimate (eigen-beamforming restricted to the codebook,
//     Eq. 26).
//
// The final answer (extracted by the caller from the measurement record)
// is the pair with the best measured SNR, Eq. (30).
type ProposedStrategy struct {
	cfg ProposedConfig
	// name overrides the reported scheme name when non-empty (the
	// warm-start variant constructed by ForScheme reports
	// "proposed-warm" so figures can show both behaviors side by side).
	name string
	est  estimatorSlot
}

// estimatorSlot keeps one idle covariance estimator between a
// strategy's runs, so the realignments of a scenario cell, which all
// run through one strategy, reuse its workspace instead of regrowing a
// new one per alignment. A run takes the idle estimator, or builds one
// when there is none (a concurrent run on a shared strategy), and gives
// it back when done; a slot holds at most one.
type estimatorSlot struct {
	idle atomic.Pointer[covest.Estimator]
}

// take returns an estimator for n antennas with opts that answers
// exactly as a new one would: the idle one reconfigured (which resets
// it), or a new one.
func (s *estimatorSlot) take(n int, opts covest.Options) (*covest.Estimator, error) {
	if est := s.idle.Swap(nil); est != nil && est.Antennas() == n {
		if err := est.Reconfigure(opts); err != nil {
			return nil, err
		}
		return est, nil
	}
	return covest.NewEstimator(n, opts)
}

// put makes est the idle estimator.
func (s *estimatorSlot) put(est *covest.Estimator) { s.idle.Store(est) }

// NewProposed creates the strategy with the given configuration.
func NewProposed(cfg ProposedConfig) *ProposedStrategy {
	return &ProposedStrategy{cfg: cfg.withDefaults()}
}

// Name implements Strategy.
func (s *ProposedStrategy) Name() string {
	if s.name != "" {
		return s.name
	}
	return "proposed"
}

// Run implements Strategy. Cancellation stops the search
// at the next measurement or estimation boundary with the context's
// error. Estimator failures do NOT fail the run: when the covariance
// estimate becomes unavailable mid-trajectory (poisoned measurement
// energies, a degenerate solve), the remaining budget degrades to
// scan-order pair selection — the paper's Scan policy, which every
// scheme reduces to at 100% search rate — so one bad measurement stream
// costs estimation quality, never the whole drop.
func (s *ProposedStrategy) Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error) {
	budget, err := clampBudget(env, budget)
	if err != nil {
		return nil, err
	}
	// Instrumentation is purely observational: spans and counters never
	// touch env.Src or the measurement stream, so an instrumented run is
	// numerically identical to an uninstrumented one.
	rec := runobs.From(ctx)
	estPhase := rec.Phase("estimation")
	selPhase := rec.Phase("selection")

	opts := s.cfg.Estimator
	if opts.Gamma == 0 {
		opts.Gamma = env.Sounder.Gamma()
	}
	n := env.RXBook.Array().Elements()
	est, err := s.est.take(n, opts)
	if err != nil {
		return nil, fmt.Errorf("align: proposed: %w", err)
	}
	defer s.est.put(est)
	muSelected := len(s.cfg.AutoMuGrid) == 0

	nRX := env.RXBook.Size()
	measured := make(map[Pair]bool, budget)
	scr := &selectScratch{}
	var out []meas.Measurement
	var obs []covest.Observation
	var qhat *covest.Factor
	if s.cfg.Warm != nil {
		// Seed from the previous alignment's estimate (nil on a cold
		// start) and carry whatever this run learned back out on every
		// exit path — including graceful scan degradation, where the
		// last good estimate is still the best knowledge of the link.
		qhat = s.cfg.Warm.Q
		defer func() {
			if qhat != nil {
				s.cfg.Warm.Q = qhat
			}
		}()
	}

	// Random TX visiting order, cycled if the budget outlasts one pass.
	txOrder := env.Src.Perm(env.TXBook.Size())
	slot := 0

	take := func(p Pair) {
		m := env.MeasurePair(p)
		measured[p] = true
		out = append(out, m)
		obs = append(obs, covest.Observation{V: env.RXBook.Beam(p.RX).Weights, Energy: m.Energy})
	}

	for len(out) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tx := txOrder[slot%len(txOrder)]
		slot++
		avail := s.unmeasuredRX(measured, tx, nRX)
		if len(avail) == 0 {
			if slot > len(txOrder)*nRX {
				break // everything measured
			}
			continue
		}

		// Phase 1: first J−1 measurements of the slot.
		want := s.cfg.J - 1
		if want < 1 {
			want = 1
		}
		selSpan := selPhase.Start()
		sel := s.selectBeams(env, qhat, avail, want, scr)
		selSpan.End()
		for _, rx := range sel {
			if len(out) == budget {
				return out, nil
			}
			take(Pair{TX: tx, RX: rx})
		}

		// Phase 2: estimate Q̂ from the (windowed) history.
		win := obs
		if s.cfg.Window > 0 && len(obs) > s.cfg.Window {
			win = obs[len(obs)-s.cfg.Window:]
		}
		// One-shot µ selection once enough data has accumulated. The
		// holdout runs on the same bounded window the estimator sees —
		// scoring µ on history the estimator will never be shown would
		// tune the regularizer for a different problem.
		if !muSelected && len(obs) >= 4*s.cfg.J {
			muSpan := estPhase.Start()
			mu, muErr := covest.SelectMu(n, win, opts, s.cfg.AutoMuGrid)
			muSpan.End()
			if muErr == nil {
				rec.Counter("mu_selections").Add(1)
				opts.Mu = mu
				// Only γ can fail Reconfigure, and est already holds it.
				_ = est.Reconfigure(opts)
			} else {
				// On selection failure keep the configured µ; the search
				// continues with its default regularization.
				rec.Counter("mu_select_failures").Add(1)
			}
			muSelected = true
		}
		estSpan := estPhase.Start()
		q, stats, estErr := est.EstimateFactor(ctx, win, qhat)
		estSpan.End()
		rec.AddSolve(SolveSample(stats))
		switch {
		case estErr == nil && isFiniteObjective(stats):
			qhat = q
		case estErr == nil:
			// The solver returned but its state is degenerate (non-finite
			// objective): abandon estimation for this drop and scan out
			// the remaining budget.
			rec.Counter("estimator_fallbacks").Add(1)
			return scanRemaining(ctx, env, measured, out, budget)
		case errors.Is(estErr, context.Canceled) || errors.Is(estErr, context.DeadlineExceeded):
			return nil, estErr
		case errors.Is(estErr, cmat.ErrNoConvergence):
			// Keep the previous estimate; the search degrades gracefully
			// to its earlier knowledge rather than failing the run.
			rec.Counter("estimator_stale_keeps").Add(1)
		default:
			// Estimator failure (e.g. poisoned energies in the history):
			// the estimation pipeline is unusable for the rest of this
			// drop, so fall back to scan-order selection instead of
			// erroring the run.
			rec.Counter("estimator_fallbacks").Add(1)
			return scanRemaining(ctx, env, measured, out, budget)
		}

		// Phase 3: J-th measurement on the best remaining beam under the
		// fresh estimate.
		if len(out) == budget {
			return out, nil
		}
		avail = s.unmeasuredRX(measured, tx, nRX)
		if len(avail) == 0 {
			continue
		}
		selSpan = selPhase.Start()
		sel = s.selectBeams(env, qhat, avail, 1, scr)
		selSpan.End()
		take(Pair{TX: tx, RX: sel[0]})
	}
	return out, nil
}

// isFiniteObjective reports whether a completed solve left a finite
// objective — the O(1) degeneracy check on a fresh estimate.
func isFiniteObjective(stats covest.Stats) bool {
	return !math.IsNaN(stats.Objective) && !math.IsInf(stats.Objective, 0)
}

// unmeasuredRX lists RX beams not yet paired with tx.
func (s *ProposedStrategy) unmeasuredRX(measured map[Pair]bool, tx, nRX int) []int {
	var out []int
	for rx := 0; rx < nRX; rx++ {
		if !measured[Pair{TX: tx, RX: rx}] {
			out = append(out, rx)
		}
	}
	return out
}

// scoredBeam pairs a codebook index with its quadratic-form score for
// the partial selection sort in selectBeams.
type scoredBeam struct {
	idx int
	val float64
}

// selectScratch carries the reusable buffers for one run's selectBeams
// calls: the whole-codebook score vector and the candidate list. It
// lives in Run rather than on the strategy so ProposedStrategy stays
// safe to share across concurrent experiment cells.
//
// all is keyed on the estimate it scores (allFor). Phase 3 of one slot
// and phase 1 of the next select under the same Q̂ (paper Algorithm 1,
// steps 3(a) and 3(b)), so the second call reuses the vector instead of
// rescoring the codebook. The key is a pointer: every estimate is a
// fresh factor that is never written in place, and the cached pointer
// keeps it alive, so an equal pointer means equal contents.
type selectScratch struct {
	all    []float64
	allFor *covest.Factor
	scored []scoredBeam
}

// selectBeams picks k beams from avail: the top positive scorers under
// vᴴQ̂v when an informative estimate exists, with random exploration
// otherwise. Beams the estimate assigns (numerically) zero energy are
// never preferred by index order — an all-zero Q̂ (common in early slots,
// when the regularizer has thresholded everything away) must behave like
// the paper's "random for the very first TX slot" rule, not like a
// deterministic sweep of beam 0, 1, 2, …. Scoring reads the factor of
// Q̂, Σ_k s_k·|u_kᴴ·v|², for the whole codebook through one k×N GEMM
// (Codebook.FactorScoresInto), once per estimate (see selectScratch).
func (s *ProposedStrategy) selectBeams(env *Env, qhat *covest.Factor, avail []int, k int, scr *selectScratch) []int {
	if k > len(avail) {
		k = len(avail)
	}
	randomPick := func(from []int, n int) []int {
		picked := env.Src.Perm(len(from))[:n]
		out := make([]int, n)
		for i, p := range picked {
			out[i] = from[p]
		}
		return out
	}
	if qhat == nil {
		return randomPick(avail, k)
	}
	if scr == nil {
		scr = &selectScratch{}
	}

	if cap(scr.all) < env.RXBook.Size() {
		scr.all = make([]float64, env.RXBook.Size())
		scr.allFor = nil
	}
	all := scr.all[:env.RXBook.Size()]
	if scr.allFor != qhat {
		env.RXBook.FactorScoresInto(qhat.UH, qhat.S, all)
		scr.allFor = qhat
	}

	scores := scr.scored[:0]
	var maxScore float64
	for _, idx := range avail {
		v := all[idx]
		scores = append(scores, scoredBeam{idx, v})
		if v > maxScore {
			maxScore = v
		}
	}
	scr.scored = scores
	if maxScore <= 0 {
		return randomPick(avail, k)
	}
	// Partial selection sort for the top-k positive scorers.
	floor := 1e-9 * maxScore
	out := make([]int, 0, k)
	for n := 0; n < k; n++ {
		best := n
		for i := n + 1; i < len(scores); i++ {
			if scores[i].val > scores[best].val {
				best = i
			}
		}
		scores[n], scores[best] = scores[best], scores[n]
		if scores[n].val <= floor {
			break // remaining beams carry no estimated energy
		}
		out = append(out, scores[n].idx)
	}
	if len(out) < k {
		// Fill the remainder with random exploration over the rest.
		taken := make(map[int]bool, len(out))
		for _, idx := range out {
			taken[idx] = true
		}
		var rest []int
		for _, sc := range scores {
			if !taken[sc.idx] {
				rest = append(rest, sc.idx)
			}
		}
		out = append(out, randomPick(rest, k-len(out))...)
	}
	return out
}

var _ Strategy = (*ProposedStrategy)(nil)
