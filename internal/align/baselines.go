package align

import (
	"context"

	"mmwalign/internal/meas"
)

// RandomStrategy sounds uniformly random beam pairs without repetition —
// the "Random" baseline of Sec. V.
type RandomStrategy struct{}

// Name implements Strategy.
func (RandomStrategy) Name() string { return "random" }

// Run implements Strategy.
func (RandomStrategy) Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error) {
	budget, err := clampBudget(env, budget)
	if err != nil {
		return nil, err
	}
	t := env.TotalPairs()
	perm := env.Src.Perm(t)
	out := make([]meas.Measurement, 0, budget)
	nRX := env.RXBook.Size()
	for _, k := range perm[:budget] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := Pair{TX: k / nRX, RX: k % nRX}
		out = append(out, env.MeasurePair(p))
	}
	return out, nil
}

// ScanStrategy starts from a random beam pair and sounds pairs in
// spatially adjacent order — the "Scan" baseline of Sec. V. The scan
// follows a boustrophedon raster over the joint (TX, RX) beam-pair grid:
// the RX beam snakes through its codebook grid, and each time the RX
// raster is exhausted the TX beam advances one step along its own snake
// order, so consecutive measurements always differ by one spatially
// adjacent beam step at exactly one end.
type ScanStrategy struct{}

// Name implements Strategy.
func (ScanStrategy) Name() string { return "scan" }

// Run implements Strategy.
func (ScanStrategy) Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error) {
	budget, err := clampBudget(env, budget)
	if err != nil {
		return nil, err
	}
	txOrder := env.TXBook.SnakeOrder()
	rxOrder := env.RXBook.SnakeOrder()
	nTX, nRX := len(txOrder), len(rxOrder)

	// Random starting pair, expressed as a position in the joint raster.
	start := env.Src.Intn(nTX * nRX)
	out := make([]meas.Measurement, 0, budget)
	for k := 0; k < budget; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pos := (start + k) % (nTX * nRX)
		ti := pos / nRX
		ri := pos % nRX
		// Reverse the RX sweep on odd TX steps so the first RX beam of a
		// new TX slot is spatially adjacent to the last one measured.
		if ti%2 == 1 {
			ri = nRX - 1 - ri
		}
		p := Pair{TX: txOrder[ti], RX: rxOrder[ri]}
		out = append(out, env.MeasurePair(p))
	}
	return out, nil
}

// ExhaustiveStrategy sounds every pair in raster order — the paper's
// exhaustive scan, which all schemes reduce to at 100% search rate.
type ExhaustiveStrategy struct{}

// Name implements Strategy.
func (ExhaustiveStrategy) Name() string { return "exhaustive" }

// Run implements Strategy. The budget still applies: with budget < T it
// is a deterministic partial raster from the first beam pair.
func (ExhaustiveStrategy) Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error) {
	budget, err := clampBudget(env, budget)
	if err != nil {
		return nil, err
	}
	txOrder := env.TXBook.SnakeOrder()
	rxOrder := env.RXBook.SnakeOrder()
	out := make([]meas.Measurement, 0, budget)
	for _, ti := range txOrder {
		for _, ri := range rxOrder {
			if len(out) == budget {
				return out, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out = append(out, env.MeasurePair(Pair{TX: ti, RX: ri}))
		}
	}
	return out, nil
}

var (
	_ Strategy = RandomStrategy{}
	_ Strategy = ScanStrategy{}
	_ Strategy = ExhaustiveStrategy{}
)
