// Package align implements the beam-alignment core of the paper: the
// measurement-budgeted search for a high-gain TX/RX beam pair over
// analog beamforming codebooks. It provides the paper's proposed
// learning-based strategy (Algorithm 1) alongside the Random and Scan
// baselines of Sec. V, an exhaustive oracle, a hierarchical-codebook
// strategy as an extension, and the trajectory runner that records the
// SNR loss of the best pair found after every measurement — the raw
// material for the paper's search-effectiveness (Fig. 5/6) and
// cost-efficiency (Fig. 7/8) results.
package align

import (
	"context"
	"fmt"
	"math"

	"mmwalign/internal/antenna"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
)

// Pair identifies a TX/RX beam pair by codebook indices.
type Pair struct {
	// TX and RX are beam indices into the respective codebooks.
	TX, RX int
}

// Env bundles everything a strategy may use during a run: the two
// codebooks (the sets U and V), the sounder that takes measurements, and
// a private randomness stream. Strategies must obtain channel information
// exclusively through Env.Sounder measurements.
type Env struct {
	// TXBook and RXBook are the selectable beam sets.
	TXBook, RXBook *antenna.Codebook
	// Sounder performs pair measurements. In production this is a
	// *meas.Sounder; the interface seam exists so fault-injection and
	// instrumentation wrappers can interpose on every measurement.
	Sounder meas.Prober
	// Src is the strategy's private randomness.
	Src *rng.Source
}

// TotalPairs returns T = card(U)·card(V).
func (e *Env) TotalPairs() int { return e.TXBook.Size() * e.RXBook.Size() }

// MeasurePair sounds the pair p once.
func (e *Env) MeasurePair(p Pair) meas.Measurement {
	return e.Sounder.Measure(p.TX, p.RX,
		e.TXBook.Beam(p.TX).Weights, e.RXBook.Beam(p.RX).Weights)
}

// Strategy is a beam-alignment scheme: given an environment and a
// measurement budget it decides which pairs to sound and in what order.
// Implementations must never sound the same pair twice (the paper's
// no-repetition rule) and must take exactly min(budget, T) measurements.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Run executes the search and returns the measurements in the order
	// they were taken. It checks ctx at its loop boundaries and, once
	// ctx is cancelled or its deadline passes, stops and returns the
	// context's error; the measurements taken so far are discarded.
	Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error)
}

// Oracle computes the ground-truth optimal pair (u_opt, v_opt) of
// Eq. (2): the codebook pair maximizing the true expected SNR. It is
// used only for evaluation.
func Oracle(env *Env) (Pair, float64) {
	best := Pair{TX: -1, RX: -1}
	bestSNR := math.Inf(-1)
	for t := 0; t < env.TXBook.Size(); t++ {
		u := env.TXBook.Beam(t).Weights
		for r := 0; r < env.RXBook.Size(); r++ {
			v := env.RXBook.Beam(r).Weights
			if snr := env.Sounder.TrueSNR(u, v); snr > bestSNR {
				best, bestSNR = Pair{TX: t, RX: r}, snr
			}
		}
	}
	return best, bestSNR
}

// TrueSNROf returns the ground-truth expected SNR of a pair.
func TrueSNROf(env *Env, p Pair) float64 {
	return env.Sounder.TrueSNR(env.TXBook.Beam(p.TX).Weights, env.RXBook.Beam(p.RX).Weights)
}

// clampBudget applies the budget ≤ T rule shared by all strategies.
func clampBudget(env *Env, budget int) (int, error) {
	if budget <= 0 {
		return 0, fmt.Errorf("align: budget %d must be positive", budget)
	}
	if t := env.TotalPairs(); budget > t {
		return t, nil
	}
	return budget, nil
}

// scanRemaining spends the rest of a strategy's budget sounding
// not-yet-measured pairs in snake-raster (scan) order. It is the shared
// graceful-degradation mode of the learning-based strategies: when the
// covariance estimator fails mid-trajectory (poisoned measurements, a
// degenerate solve), the search falls back to the paper's Scan policy
// rather than erroring the whole drop — mirroring the observation that
// at 100% search rate every scheme reduces to the exhaustive scan.
// Measurements are appended to out; pairs in measured are skipped and
// newly sounded pairs are recorded there. Cancellation is honoured
// between measurements.
func scanRemaining(ctx context.Context, env *Env, measured map[Pair]bool, out []meas.Measurement, budget int) ([]meas.Measurement, error) {
	txOrder := env.TXBook.SnakeOrder()
	rxOrder := env.RXBook.SnakeOrder()
	nRX := len(rxOrder)
	for ti, tx := range txOrder {
		for k := 0; k < nRX; k++ {
			if len(out) >= budget {
				return out, nil
			}
			ri := k
			// Boustrophedon: reverse the RX sweep on odd TX steps so
			// consecutive pairs stay spatially adjacent.
			if ti%2 == 1 {
				ri = nRX - 1 - ri
			}
			p := Pair{TX: tx, RX: rxOrder[ri]}
			if measured[p] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return out, err
			}
			measured[p] = true
			out = append(out, env.MeasurePair(p))
		}
	}
	return out, nil
}
