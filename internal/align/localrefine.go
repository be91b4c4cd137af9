package align

import (
	"context"
	"sort"

	"mmwalign/internal/meas"
)

// LocalRefineStrategy implements a numerical divide-and-conquer search
// in the style of B. Li et al. (reference [13] of the paper): spend part
// of the budget probing random pairs to localize promising regions of
// the joint beam grid, then hill-climb — repeatedly sounding the
// unmeasured spatial neighbors of the best pairs measured so far. It is
// the "optimize R(u,v) as a black-box function" alternative to the
// paper's model-based approach and serves as an additional comparison
// point in the benches.
type LocalRefineStrategy struct {
	// ExploreFrac is the fraction of the budget spent on the random
	// probing phase (default 1/4).
	ExploreFrac float64
}

// NewLocalRefine creates the strategy with the default exploration
// fraction.
func NewLocalRefine() *LocalRefineStrategy {
	return &LocalRefineStrategy{ExploreFrac: 0.25}
}

// Name implements Strategy.
func (s *LocalRefineStrategy) Name() string { return "local-refine" }

// Run implements Strategy. Cancellation is checked before each
// measurement of both phases.
func (s *LocalRefineStrategy) Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error) {
	budget, err := clampBudget(env, budget)
	if err != nil {
		return nil, err
	}
	frac := s.ExploreFrac
	if frac <= 0 || frac >= 1 {
		frac = 0.25
	}
	explore := int(frac * float64(budget))
	if explore < 1 {
		explore = 1
	}

	nRX := env.RXBook.Size()
	t := env.TotalPairs()
	measured := make(map[Pair]bool, budget)
	var out []meas.Measurement

	take := func(p Pair) meas.Measurement {
		m := env.MeasurePair(p)
		measured[p] = true
		out = append(out, m)
		return m
	}

	// Phase 1: random probing.
	perm := env.Src.Perm(t)
	for _, k := range perm {
		if len(out) >= explore {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		take(Pair{TX: k / nRX, RX: k % nRX})
	}

	// Phase 2: hill-climb from the best measured pairs. Keep the
	// measurement record sorted by energy (descending) lazily: each
	// round, walk the current ranking and sound the first unmeasured
	// neighbor found.
	randFill := explore // position in perm for random fallback
	for len(out) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ranked := make([]meas.Measurement, len(out))
		copy(ranked, out)
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].Energy > ranked[j].Energy })

		next, ok := s.firstUnmeasuredNeighbor(env, ranked, measured)
		if !ok {
			// Every neighbor of every measured pair is exhausted: fall
			// back to random unmeasured pairs.
			for randFill < t {
				k := perm[randFill]
				randFill++
				p := Pair{TX: k / nRX, RX: k % nRX}
				if !measured[p] {
					next, ok = p, true
					break
				}
			}
			if !ok {
				break // everything measured
			}
		}
		take(next)
	}
	return out, nil
}

// firstUnmeasuredNeighbor scans the energy-ranked measurements and
// returns the first unmeasured grid neighbor (one step in TX or RX).
func (s *LocalRefineStrategy) firstUnmeasuredNeighbor(env *Env, ranked []meas.Measurement, measured map[Pair]bool) (Pair, bool) {
	for _, m := range ranked {
		if m.TXBeam < 0 || m.RXBeam < 0 {
			continue
		}
		for _, txn := range env.TXBook.Neighbors(m.TXBeam) {
			if p := (Pair{TX: txn, RX: m.RXBeam}); !measured[p] {
				return p, true
			}
		}
		for _, rxn := range env.RXBook.Neighbors(m.RXBeam) {
			if p := (Pair{TX: m.TXBeam, RX: rxn}); !measured[p] {
				return p, true
			}
		}
	}
	return Pair{}, false
}

var _ Strategy = (*LocalRefineStrategy)(nil)
