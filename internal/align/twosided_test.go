package align

import (
	"context"
	"testing"
)

func TestTwoSidedName(t *testing.T) {
	if got := NewTwoSided(ProposedConfig{}).Name(); got != "two-sided" {
		t.Errorf("Name = %q", got)
	}
}

func TestTwoSidedExploresAllTXBeamsEventually(t *testing.T) {
	// With a full budget, every TX beam must be visited (exploration
	// slots guarantee coverage).
	env := testEnv(t, 30, 1, false)
	ms, err := NewTwoSided(ProposedConfig{J: 4}).Run(context.Background(), env, env.TotalPairs())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, m := range ms {
		seen[m.TXBeam] = true
	}
	if len(seen) != env.TXBook.Size() {
		t.Errorf("visited %d of %d TX beams", len(seen), env.TXBook.Size())
	}
}

func TestTwoSidedRevisitsStrongTXBeam(t *testing.T) {
	// On a planted channel with one dominant TX direction and plenty of
	// budget, exploitation slots must concentrate on that TX beam: it
	// should collect at least as many measurements as the average beam.
	env, want := plantedEnv(t, 31, 100)
	env.Sounder.SetSnapshots(8)
	ms, err := NewTwoSided(ProposedConfig{J: 4}).Run(context.Background(), env, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, m := range ms {
		counts[m.TXBeam]++
	}
	avg := float64(len(ms)) / float64(env.TXBook.Size())
	if float64(counts[want.TX]) < avg {
		t.Errorf("dominant TX beam %d measured %d times, below average %.1f",
			want.TX, counts[want.TX], avg)
	}
}

func TestTwoSidedFindsPlantedPair(t *testing.T) {
	env, want := plantedEnv(t, 32, 100)
	env.Sounder.SetSnapshots(16)
	tr, err := EvaluateContext(context.Background(), env, NewTwoSided(ProposedConfig{J: 4}), 48)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BestPair != want {
		t.Errorf("best pair %+v, want %+v (loss %.2f dB)", tr.BestPair, want, tr.FinalLossDB())
	}
	if tr.FinalLossDB() > 0.01 {
		t.Errorf("loss = %g dB", tr.FinalLossDB())
	}
}

func TestTwoSidedComparableToProposedOnAverage(t *testing.T) {
	// The extension should not be systematically worse than the base
	// scheme at a moderate budget (it exists because TX feedback can
	// only add information). Allow generous slack: this is a sanity
	// check, not a benchmark.
	if testing.Short() {
		t.Skip("statistical comparison in -short mode")
	}
	var propSum, twoSum float64
	const drops = 8
	for d := int64(0); d < drops; d++ {
		envA := testEnv(t, 100+d, 1, false)
		trA, err := EvaluateContext(context.Background(), envA, NewProposed(ProposedConfig{J: 4}), 40)
		if err != nil {
			t.Fatal(err)
		}
		envB := testEnv(t, 100+d, 1, false)
		trB, err := EvaluateContext(context.Background(), envB, NewTwoSided(ProposedConfig{J: 4}), 40)
		if err != nil {
			t.Fatal(err)
		}
		propSum += trA.FinalLossDB()
		twoSum += trB.FinalLossDB()
	}
	if twoSum/drops > propSum/drops+6 {
		t.Errorf("two-sided mean loss %.2f dB far above proposed %.2f dB",
			twoSum/drops, propSum/drops)
	}
}
