package align

import (
	"context"
	"testing"
)

func TestLocalRefineName(t *testing.T) {
	if got := NewLocalRefine().Name(); got != "local-refine" {
		t.Errorf("Name = %q", got)
	}
}

func TestLocalRefineRespectsBudgetAndNoRepeats(t *testing.T) {
	for _, budget := range []int{1, 5, 40, 128, 1000} {
		env := testEnv(t, 40, 1, false)
		ms, err := NewLocalRefine().Run(context.Background(), env, budget)
		if err != nil {
			t.Fatal(err)
		}
		want := budget
		if want > env.TotalPairs() {
			want = env.TotalPairs()
		}
		if len(ms) != want {
			t.Fatalf("budget %d: took %d measurements, want %d", budget, len(ms), want)
		}
		seen := make(map[Pair]bool)
		for _, m := range ms {
			p := Pair{TX: m.TXBeam, RX: m.RXBeam}
			if seen[p] {
				t.Fatalf("pair %+v re-measured", p)
			}
			seen[p] = true
		}
	}
}

func TestLocalRefineConcentratesNearBestPair(t *testing.T) {
	// On a planted, near-noiseless channel the refinement phase must
	// cluster measurements around the optimal pair: the selected pair
	// should be exactly the planted one with a modest budget.
	env, want := plantedEnv(t, 41, 100)
	env.Sounder.SetSnapshots(16)
	tr, err := EvaluateContext(context.Background(), env, NewLocalRefine(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BestPair != want {
		t.Errorf("best pair %+v, want %+v (loss %.2f dB)", tr.BestPair, want, tr.FinalLossDB())
	}
}

func TestLocalRefineInvalidExploreFracDefaults(t *testing.T) {
	env := testEnv(t, 42, 1, false)
	s := &LocalRefineStrategy{ExploreFrac: 2.5}
	ms, err := s.Run(context.Background(), env, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 20 {
		t.Errorf("took %d measurements", len(ms))
	}
}

func TestLocalRefineBeatsRandomOnPlantedChannel(t *testing.T) {
	// Hill climbing should reach the planted optimum with fewer
	// measurements than random sampling needs on average. Compare
	// first-passage to 0.01 dB across a few seeds.
	var refineSum, randomSum int
	const runs = 5
	for seed := int64(0); seed < runs; seed++ {
		envA, _ := plantedEnv(t, 50+seed, 100)
		envA.Sounder.SetSnapshots(16)
		trA, err := EvaluateContext(context.Background(), envA, NewLocalRefine(), 100)
		if err != nil {
			t.Fatal(err)
		}
		envB, _ := plantedEnv(t, 50+seed, 100)
		envB.Sounder.SetSnapshots(16)
		trB, err := EvaluateContext(context.Background(), envB, RandomStrategy{}, 100)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb := trA.FirstWithin(0.01), trB.FirstWithin(0.01)
		if fa < 0 {
			fa = 101
		}
		if fb < 0 {
			fb = 101
		}
		refineSum += fa
		randomSum += fb
	}
	if refineSum > randomSum {
		t.Errorf("local refine mean first-passage %d > random %d", refineSum/runs, randomSum/runs)
	}
}
