package align

import (
	"context"

	"mmwalign/internal/antenna"
	"mmwalign/internal/meas"
)

// SectorBeam is the RXBeam marker for measurements taken with composite
// sector codewords during a hierarchical descent; such measurements are
// not codebook pairs and cannot be selected as the final answer, but
// they consume measurement budget like any other sounding.
const SectorBeam = -1

// HierarchicalStrategy is the multi-resolution search extension (in the
// style of Hur et al., reference [11] of the paper): for each randomly
// chosen TX beam, the receiver descends a binary hierarchy of sector
// beams — sounding both children of the current sector and following the
// stronger response — until it reaches a leaf of the flat RX codebook,
// which it sounds as a regular pair. Descents cost O(log card(V))
// soundings per TX beam instead of J, but wide sector beams have lower
// gain and are more error-prone at low SNR, which is the trade-off the
// comparison benches quantify.
type HierarchicalStrategy struct {
	hier *antenna.HierCodebook
}

// NewHierarchical creates the strategy over the given RX hierarchy. The
// hierarchy's flat codebook must be the environment's RX codebook.
func NewHierarchical(h *antenna.HierCodebook) *HierarchicalStrategy {
	return &HierarchicalStrategy{hier: h}
}

// Name implements Strategy.
func (s *HierarchicalStrategy) Name() string { return "hierarchical" }

// Run implements Strategy. Cancellation is checked before each TX
// beam's descent.
func (s *HierarchicalStrategy) Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error) {
	budget, err := clampBudget(env, budget)
	if err != nil {
		return nil, err
	}
	measured := make(map[Pair]bool)
	var out []meas.Measurement
	txOrder := env.Src.Perm(env.TXBook.Size())
	slot := 0

	for len(out) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tx := txOrder[slot%len(txOrder)]
		slot++
		u := env.TXBook.Beam(tx).Weights

		// Descend: choose the best root, then the best child at every
		// level. Sector soundings carry RXBeam = SectorBeam.
		nodes := s.hier.Roots
		var current *antenna.HierBeam
		for len(nodes) > 0 && len(out) < budget {
			best, bestEnergy := -1, -1.0
			for i, n := range nodes {
				if len(out) == budget {
					break
				}
				rxMark := SectorBeam
				if n.LeafIndex >= 0 {
					rxMark = n.LeafIndex
					if measured[Pair{TX: tx, RX: rxMark}] {
						continue // no pair repetition
					}
				}
				m := env.Sounder.Measure(tx, rxMark, u, n.Weights)
				if rxMark >= 0 {
					measured[Pair{TX: tx, RX: rxMark}] = true
				}
				out = append(out, m)
				if m.Energy > bestEnergy {
					best, bestEnergy = i, m.Energy
				}
			}
			if best < 0 {
				break
			}
			current = nodes[best]
			nodes = current.Children
		}
		if slot > env.TXBook.Size()*4 && len(out) == 0 {
			break // defensive: nothing measurable
		}
	}
	if len(out) > budget {
		out = out[:budget]
	}
	return out, nil
}

var _ Strategy = (*HierarchicalStrategy)(nil)
