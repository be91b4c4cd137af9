package align

import (
	"context"
	"fmt"

	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
)

// DigitalStrategy is the fully-digital-receiver reference: for every
// visited TX beam the receiver takes a few full-vector snapshots (one
// RF chain per antenna, so each snapshot observes all N elements at
// once), forms a shrunk sample covariance, steers to the best RX
// codeword under it, and confirms that pair with one regular beamformed
// measurement so its quality is reported through the same measured-SNR
// channel as every other scheme.
//
// Slot accounting: each vector snapshot and the confirmation sounding
// all cost one measurement slot. The digital architecture's advantage —
// N observations per slot instead of 1 — is exactly what the comparison
// benches quantify against the paper's analog scheme; its price
// (N RF chains and ADCs at mmWave rates) is the reason the paper
// targets analog beamforming in the first place.
type DigitalStrategy struct {
	// SnapshotsPerTX is the number of vector snapshots per TX beam
	// (default 3).
	SnapshotsPerTX int
	// Shrinkage is the sample-covariance shrinkage weight α (default
	// 0.1).
	Shrinkage float64
}

// NewDigital creates the strategy with defaults.
func NewDigital() *DigitalStrategy {
	return &DigitalStrategy{SnapshotsPerTX: 3, Shrinkage: 0.1}
}

// Name implements Strategy.
func (s *DigitalStrategy) Name() string { return "digital" }

// Run implements Strategy. Cancellation is checked before each TX
// beam's snapshots.
func (s *DigitalStrategy) Run(ctx context.Context, env *Env, budget int) ([]meas.Measurement, error) {
	budget, err := clampBudget(env, budget)
	if err != nil {
		return nil, err
	}
	snaps := s.SnapshotsPerTX
	if snaps < 1 {
		snaps = 3
	}
	alpha := s.Shrinkage
	if alpha < 0 || alpha > 1 {
		alpha = 0.1
	}

	measured := make(map[Pair]bool, budget)
	var out []meas.Measurement
	var ranked []int // reused ranking buffer across TX slots
	txOrder := env.Src.Perm(env.TXBook.Size())
	slot := 0
	slots := 0 // total slot budget consumed (snapshots + soundings)

	for slots < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tx := txOrder[slot%len(txOrder)]
		slot++
		u := env.TXBook.Beam(tx).Weights

		// Vector snapshots for this TX beam.
		var ys []cmat.Vector
		for k := 0; k < snaps && slots < budget; k++ {
			vm := env.Sounder.MeasureVector(tx, u)
			ys = append(ys, vm.Y)
			slots++
			// Snapshot slots appear in the record as sector-style
			// non-pair measurements so trajectory audits see the cost.
			out = append(out, meas.Measurement{TXBeam: tx, RXBeam: SectorBeam, U: u, Energy: vectorEnergy(vm.Y)})
		}
		if slots >= budget || len(ys) == 0 {
			break
		}

		qhat, err := covest.SampleCovariance(ys, env.Sounder.Gamma(), alpha)
		if err != nil {
			return nil, fmt.Errorf("align: digital: %w", err)
		}

		// Confirmation sounding on the best unmeasured codeword.
		best, found := -1, false
		ranked = env.RXBook.TopKQuadFormInto(qhat, env.RXBook.Size(), ranked)
		for _, idx := range ranked {
			if !measured[Pair{TX: tx, RX: idx}] {
				best, found = idx, true
				break
			}
		}
		if !found {
			continue
		}
		m := env.MeasurePair(Pair{TX: tx, RX: best})
		measured[Pair{TX: tx, RX: best}] = true
		out = append(out, m)
		slots++

		if slot > env.TXBook.Size()*env.RXBook.Size() {
			break // defensive bound
		}
	}
	return out, nil
}

func vectorEnergy(y cmat.Vector) float64 {
	var e float64
	for _, v := range y {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

var _ Strategy = (*DigitalStrategy)(nil)
