package align

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
)

// testEnvQuick builds a small single-path environment without a
// *testing.T, for use inside quick.Check properties. Panics on
// construction failure (quick reports it as a test failure).
func testEnvQuick(seed int64) *Env {
	tx := antenna.NewUPA(2, 2)
	rx := antenna.NewUPA(4, 4)
	src := rng.New(seed)
	ch, err := channel.NewSinglePath(src.Split("channel"), tx, rx, channel.SinglePathSpec{})
	if err != nil {
		panic(err)
	}
	sounder, err := meas.NewSounder(ch, 1, src.Split("noise"))
	if err != nil {
		panic(err)
	}
	return &Env{
		TXBook:  antenna.NewGridCodebook(tx, 4, 2, math.Pi, math.Pi/2),
		RXBook:  antenna.NewGridCodebook(rx, 4, 4, math.Pi, math.Pi/2),
		Sounder: sounder,
		Src:     src.Split("strategy"),
	}
}

// estOptsQuick keeps the proposed scheme cheap inside property sweeps.
func estOptsQuick() covest.Options {
	return covest.Options{Gamma: 1, MaxIters: 6}
}

// TestStrategyInvariantsProperty checks, across random seeds and
// budgets, the contracts every strategy owes the runner: measurement
// count ≤ min(budget, T), no repeated codebook pairs, and all reported
// beam indices within codebook range.
func TestStrategyInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	f := func(seed int64, budgetRaw uint8) bool {
		budget := int(budgetRaw)%96 + 1
		env := testEnvQuick(seed)
		for _, s := range []Strategy{
			RandomStrategy{},
			ScanStrategy{},
			NewProposed(ProposedConfig{J: 4, Estimator: estOptsQuick()}),
			NewLocalRefine(),
		} {
			ms, err := s.Run(context.Background(), env, budget)
			if err != nil {
				return false
			}
			if len(ms) > budget {
				return false
			}
			seen := make(map[Pair]bool)
			for _, m := range ms {
				if m.RXBeam == SectorBeam {
					continue
				}
				if m.TXBeam < 0 || m.TXBeam >= env.TXBook.Size() ||
					m.RXBeam < 0 || m.RXBeam >= env.RXBook.Size() {
					return false
				}
				p := Pair{TX: m.TXBeam, RX: m.RXBeam}
				if seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestEvaluateLossBoundsProperty: losses are never negative and the
// reported best pair's true SNR never exceeds the oracle's.
func TestEvaluateLossBoundsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	f := func(seed int64) bool {
		env := testEnvQuick(seed)
		tr, err := EvaluateContext(context.Background(), env, RandomStrategy{}, 30)
		if err != nil {
			return false
		}
		if tr.BestTrueSNR > tr.OptSNR+1e-9 {
			return false
		}
		for _, l := range tr.LossDB {
			if l < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
