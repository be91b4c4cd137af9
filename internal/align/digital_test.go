package align

import (
	"context"
	"testing"
)

func TestDigitalName(t *testing.T) {
	if got := NewDigital().Name(); got != "digital" {
		t.Errorf("Name = %q", got)
	}
}

func TestDigitalRespectsBudget(t *testing.T) {
	for _, budget := range []int{1, 4, 17, 64} {
		env := testEnv(t, 70, 1, false)
		ms, err := NewDigital().Run(context.Background(), env, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) > budget {
			t.Fatalf("budget %d: consumed %d slots", budget, len(ms))
		}
	}
}

func TestDigitalMixesSnapshotsAndSoundings(t *testing.T) {
	env := testEnv(t, 71, 1, false)
	ms, err := NewDigital().Run(context.Background(), env, 16) // 4 TX beams × (3 snapshots + 1 sounding)
	if err != nil {
		t.Fatal(err)
	}
	snapshots, soundings := 0, 0
	for _, m := range ms {
		if m.RXBeam == SectorBeam {
			snapshots++
		} else {
			soundings++
		}
	}
	if snapshots != 12 || soundings != 4 {
		t.Errorf("snapshots=%d soundings=%d, want 12/4", snapshots, soundings)
	}
}

func TestDigitalFindsPlantedPair(t *testing.T) {
	env, want := plantedEnv(t, 72, 100)
	env.Sounder.SetSnapshots(8)
	tr, err := EvaluateContext(context.Background(), env, NewDigital(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BestPair != want {
		t.Errorf("best pair %+v, want %+v (loss %.2f)", tr.BestPair, want, tr.FinalLossDB())
	}
}

func TestDigitalBeatsAnalogProposedAtLowBudget(t *testing.T) {
	// With N observations per snapshot the digital reference should
	// dominate the analog proposed scheme at tight budgets, averaged
	// over drops — the hardware-cost story of the paper's Sec. III.
	if testing.Short() {
		t.Skip("statistical comparison in -short mode")
	}
	var digSum, propSum float64
	const drops = 6
	for d := int64(0); d < drops; d++ {
		envA := testEnv(t, 200+d, 1, false)
		trA, err := EvaluateContext(context.Background(), envA, NewDigital(), 24)
		if err != nil {
			t.Fatal(err)
		}
		envB := testEnv(t, 200+d, 1, false)
		trB, err := EvaluateContext(context.Background(), envB, NewProposed(ProposedConfig{J: 4}), 24)
		if err != nil {
			t.Fatal(err)
		}
		digSum += trA.FinalLossDB()
		propSum += trB.FinalLossDB()
	}
	if digSum/drops > propSum/drops+1 {
		t.Errorf("digital mean loss %.2f dB worse than analog proposed %.2f dB",
			digSum/drops, propSum/drops)
	}
}

func TestDigitalCustomConfig(t *testing.T) {
	env := testEnv(t, 73, 1, false)
	s := &DigitalStrategy{SnapshotsPerTX: 1, Shrinkage: 0.5}
	ms, err := s.Run(context.Background(), env, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Error("no measurements taken")
	}
}

func TestDigitalInvalidConfigDefaults(t *testing.T) {
	env := testEnv(t, 74, 1, false)
	s := &DigitalStrategy{SnapshotsPerTX: -1, Shrinkage: 7}
	if _, err := s.Run(context.Background(), env, 8); err != nil {
		t.Fatal(err)
	}
}
