package experiment

import (
	"context"
	"encoding/json"
	"math"
)

// CellBudget returns the per-cell measurement budget a figure sweep
// uses: ceil(max search rate × total codebook pairs) after defaults.
// Shard workers compute cells through this budget so their journal
// payloads are bit-identical to the ones an in-process sweep records.
func (c Config) CellBudget() int {
	c = c.WithDefaults()
	maxRate := c.SearchRates[len(c.SearchRates)-1]
	return int(math.Ceil(maxRate * float64(c.totalPairs())))
}

// ComputeCell runs exactly one (drop, scheme) cell of the given figure
// — defaults applied, Multipath forced by the figure number, the sweep
// budget, the retry engine, panic recovery — and returns the journal
// payload its trajectory encodes to, plus the attempt count. Cells are
// pure functions of (seed, drop, scheme), so the payload is
// byte-identical to what an uninterrupted in-process sweep would
// journal for the same cell: the foundation of the shard engine's
// byte-identity guarantee.
func ComputeCell(ctx context.Context, figure int, cfg Config, drop int, scheme string) (json.RawMessage, int, error) {
	rc, _, err := ConfigForFigure(figure, cfg)
	if err != nil {
		return nil, 0, err
	}
	s := rc.sweepSpec(rc.CellBudget())
	r := s.RunCell(ctx, drop, scheme, s.NewStats())
	if r.Err != nil {
		return nil, r.Attempts, r.Err
	}
	payload, err := encodeTrajectory(r.Value)
	if err != nil {
		return nil, r.Attempts, err
	}
	return payload, r.Attempts, nil
}
