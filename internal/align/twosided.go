package align

import (
	"context"
	"errors"
	"fmt"

	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	runobs "mmwalign/internal/obs"
)

// TwoSidedStrategy extends the paper's Algorithm 1 in the direction its
// Sec. IV-B1 hints at ("RX can transmit feedback messages … so that TX
// can know what is the best beam direction for itself so far"): instead
// of visiting TX beams uniformly at random, the transmitter exploits the
// receiver's feedback to revisit promising TX beams.
//
// TX slots alternate between exploration — the least-visited TX beam,
// chosen at random among ties — and exploitation — the TX beam with the
// highest mean measured energy so far that still has unmeasured RX
// pairs. The RX side runs exactly the covariance-estimation machinery of
// the proposed scheme. This is the "both ends adapt" design the paper
// leaves as future work, included here for the extension benches.
type TwoSidedStrategy struct {
	cfg ProposedConfig
	est estimatorSlot
}

// NewTwoSided creates the strategy; cfg carries the same knobs as the
// proposed scheme.
func NewTwoSided(cfg ProposedConfig) *TwoSidedStrategy {
	return &TwoSidedStrategy{cfg: cfg.withDefaults()}
}

// Name implements Strategy.
func (s *TwoSidedStrategy) Name() string { return "two-sided" }

// Run implements Strategy with the same cancellation and
// graceful-degradation semantics as the proposed scheme: cancellation
// stops at the next boundary, estimator failure degrades to scan-order
// selection for the remaining budget.
func (s *TwoSidedStrategy) Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error) {
	budget, err := clampBudget(env, budget)
	if err != nil {
		return nil, err
	}
	rec := runobs.From(ctx)
	estPhase := rec.Phase("estimation")
	selPhase := rec.Phase("selection")

	opts := s.cfg.Estimator
	if opts.Gamma == 0 {
		opts.Gamma = env.Sounder.Gamma()
	}
	est, err := s.est.take(env.RXBook.Array().Elements(), opts)
	if err != nil {
		return nil, fmt.Errorf("align: two-sided: %w", err)
	}
	defer s.est.put(est)

	nTX, nRX := env.TXBook.Size(), env.RXBook.Size()
	measured := make(map[Pair]bool, budget)
	visits := make([]int, nTX)
	energySum := make([]float64, nTX)
	energyCount := make([]int, nTX)

	var out []meas.Measurement
	var obs []covest.Observation
	var qhat *covest.Factor
	// Reuse the proposed scheme's RX selection logic.
	rxSel := &ProposedStrategy{cfg: s.cfg}
	scr := &selectScratch{}

	take := func(p Pair) {
		m := env.MeasurePair(p)
		measured[p] = true
		out = append(out, m)
		obs = append(obs, covest.Observation{V: env.RXBook.Beam(p.RX).Weights, Energy: m.Energy})
		energySum[p.TX] += m.Energy
		energyCount[p.TX]++
	}

	slot := 0
	for len(out) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tx := s.pickTX(env, slot, visits, energySum, energyCount, measured, nRX)
		if tx < 0 {
			break // every pair measured
		}
		slot++
		visits[tx]++

		avail := rxSel.unmeasuredRX(measured, tx, nRX)
		if len(avail) == 0 {
			continue
		}
		want := s.cfg.J - 1
		if want < 1 {
			want = 1
		}
		taken := 0
		selSpan := selPhase.Start()
		sel := rxSel.selectBeams(env, qhat, avail, want, scr)
		selSpan.End()
		for _, rx := range sel {
			if len(out) == budget {
				return out, nil
			}
			take(Pair{TX: tx, RX: rx})
			taken++
		}

		// Re-estimate only when the slot contributed meaningfully new
		// data: exploitation slots on nearly-exhausted TX beams can be
		// tiny, and re-solving after one or two measurements would
		// multiply the estimation cost for no information gain.
		if taken*2 >= s.cfg.J || qhat == nil {
			win := obs
			if s.cfg.Window > 0 && len(obs) > s.cfg.Window {
				win = obs[len(obs)-s.cfg.Window:]
			}
			estSpan := estPhase.Start()
			q, stats, estErr := est.EstimateFactor(ctx, win, qhat)
			estSpan.End()
			rec.AddSolve(SolveSample(stats))
			switch {
			case estErr == nil && isFiniteObjective(stats):
				qhat = q
			case errors.Is(estErr, context.Canceled) || errors.Is(estErr, context.DeadlineExceeded):
				return nil, estErr
			case errors.Is(estErr, cmat.ErrNoConvergence):
				// keep previous estimate
				rec.Counter("estimator_stale_keeps").Add(1)
			default:
				// Degenerate solve or estimator failure: scan out the
				// remaining budget instead of erroring the drop.
				rec.Counter("estimator_fallbacks").Add(1)
				return scanRemaining(ctx, env, measured, out, budget)
			}
		}

		if len(out) == budget {
			return out, nil
		}
		avail = rxSel.unmeasuredRX(measured, tx, nRX)
		if len(avail) == 0 {
			continue
		}
		selSpan = selPhase.Start()
		last := rxSel.selectBeams(env, qhat, avail, 1, scr)[0]
		selSpan.End()
		take(Pair{TX: tx, RX: last})
	}
	return out, nil
}

// pickTX alternates exploration (least-visited, random tie-break) and
// exploitation (best mean measured energy), skipping TX beams with no
// unmeasured RX pairs. Returns -1 when nothing is measurable.
func (s *TwoSidedStrategy) pickTX(env *Env, slot int, visits []int, energySum []float64, energyCount []int, measured map[Pair]bool, nRX int) int {
	hasUnmeasured := func(tx int) bool {
		for rx := 0; rx < nRX; rx++ {
			if !measured[Pair{TX: tx, RX: rx}] {
				return true
			}
		}
		return false
	}

	explore := slot%2 == 0
	if !explore {
		best, bestMean := -1, -1.0
		for tx := range visits {
			if energyCount[tx] == 0 || !hasUnmeasured(tx) {
				continue
			}
			if mean := energySum[tx] / float64(energyCount[tx]); mean > bestMean {
				best, bestMean = tx, mean
			}
		}
		if best >= 0 {
			return best
		}
		// No measured-and-available beam yet: fall through to explore.
	}

	minVisits := -1
	var candidates []int
	for tx := range visits {
		if !hasUnmeasured(tx) {
			continue
		}
		switch {
		case minVisits < 0 || visits[tx] < minVisits:
			minVisits = visits[tx]
			candidates = candidates[:0]
			candidates = append(candidates, tx)
		case visits[tx] == minVisits:
			candidates = append(candidates, tx)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[env.Src.Intn(len(candidates))]
}

var _ Strategy = (*TwoSidedStrategy)(nil)
