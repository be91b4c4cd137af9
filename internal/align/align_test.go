package align

import (
	"context"
	"math"
	"testing"

	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
)

// testEnv builds a small environment: TX 2x2 UPA with an 8-beam book,
// RX 4x4 UPA with a 16-beam book (T = 128 pairs).
func testEnv(t *testing.T, seed int64, gamma float64, multipath bool) *Env {
	t.Helper()
	tx := antenna.NewUPA(2, 2)
	rx := antenna.NewUPA(4, 4)
	src := rng.New(seed)
	var (
		ch  *channel.Channel
		err error
	)
	if multipath {
		p := channel.DefaultNYC28()
		p.SubpathsPerCluster = 10
		ch, err = channel.NewNYCMultipath(src.Split("channel"), tx, rx, p)
	} else {
		ch, err = channel.NewSinglePath(src.Split("channel"), tx, rx, channel.SinglePathSpec{})
	}
	if err != nil {
		t.Fatal(err)
	}
	sounder, err := meas.NewSounder(ch, gamma, src.Split("noise"))
	if err != nil {
		t.Fatal(err)
	}
	return &Env{
		TXBook:  antenna.NewGridCodebook(tx, 4, 2, math.Pi, math.Pi/2),
		RXBook:  antenna.NewGridCodebook(rx, 4, 4, math.Pi, math.Pi/2),
		Sounder: sounder,
		Src:     src.Split("strategy"),
	}
}

func allStrategies(env *Env) []Strategy {
	return []Strategy{
		RandomStrategy{},
		ScanStrategy{},
		ExhaustiveStrategy{},
		NewProposed(ProposedConfig{J: 4}),
		NewTwoSided(ProposedConfig{J: 4}),
		NewLocalRefine(),
		NewHierarchical(antenna.NewHierCodebook(env.RXBook, 2, 2)),
	}
}

func TestTotalPairs(t *testing.T) {
	env := testEnv(t, 1, 1, false)
	if got := env.TotalPairs(); got != 8*16 {
		t.Fatalf("TotalPairs = %d, want 128", got)
	}
}

func TestStrategiesRespectBudget(t *testing.T) {
	for _, budget := range []int{1, 7, 32, 128, 500} {
		env := testEnv(t, 2, 1, false)
		for _, s := range allStrategies(env) {
			ms, err := s.Run(context.Background(), env, budget)
			if err != nil {
				t.Fatalf("%s budget=%d: %v", s.Name(), budget, err)
			}
			want := budget
			if want > env.TotalPairs() {
				want = env.TotalPairs()
			}
			// The hierarchical strategy may finish early if every leaf
			// pair is measured; it must never exceed the budget.
			if s.Name() == "hierarchical" {
				if len(ms) > want {
					t.Errorf("%s budget=%d took %d measurements", s.Name(), budget, len(ms))
				}
				continue
			}
			if len(ms) != want {
				t.Errorf("%s budget=%d took %d measurements, want %d", s.Name(), budget, len(ms), want)
			}
		}
	}
}

func TestStrategiesRejectNonPositiveBudget(t *testing.T) {
	env := testEnv(t, 3, 1, false)
	for _, s := range allStrategies(env) {
		if _, err := s.Run(context.Background(), env, 0); err == nil {
			t.Errorf("%s accepted zero budget", s.Name())
		}
	}
}

func TestNoPairRepetition(t *testing.T) {
	env := testEnv(t, 4, 1, false)
	for _, s := range allStrategies(env) {
		seen := make(map[Pair]bool)
		ms, err := s.Run(context.Background(), env, env.TotalPairs())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, m := range ms {
			if m.RXBeam < 0 {
				continue // sector sounding, not a pair
			}
			p := Pair{TX: m.TXBeam, RX: m.RXBeam}
			if seen[p] {
				t.Fatalf("%s re-measured pair %+v", s.Name(), p)
			}
			seen[p] = true
		}
	}
}

func TestExhaustiveCoversEverything(t *testing.T) {
	env := testEnv(t, 5, 1, false)
	ms, err := ExhaustiveStrategy{}.Run(context.Background(), env, env.TotalPairs())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Pair]bool)
	for _, m := range ms {
		seen[Pair{TX: m.TXBeam, RX: m.RXBeam}] = true
	}
	if len(seen) != env.TotalPairs() {
		t.Errorf("exhaustive covered %d of %d pairs", len(seen), env.TotalPairs())
	}
}

func TestRandomCoversEverythingAtFullBudget(t *testing.T) {
	env := testEnv(t, 6, 1, false)
	ms, err := RandomStrategy{}.Run(context.Background(), env, env.TotalPairs())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[Pair]bool)
	for _, m := range ms {
		seen[Pair{TX: m.TXBeam, RX: m.RXBeam}] = true
	}
	if len(seen) != env.TotalPairs() {
		t.Errorf("random covered %d of %d pairs", len(seen), env.TotalPairs())
	}
}

func TestScanAdjacency(t *testing.T) {
	env := testEnv(t, 7, 1, false)
	ms, err := ScanStrategy{}.Run(context.Background(), env, 64)
	if err != nil {
		t.Fatal(err)
	}
	manhattan := func(cb *antenna.Codebook, a, b int) int {
		ba, bb := cb.Beam(a), cb.Beam(b)
		return iabs(ba.GridAz-bb.GridAz) + iabs(ba.GridEl-bb.GridEl)
	}
	for k := 1; k < len(ms); k++ {
		prev, cur := ms[k-1], ms[k]
		dTX := manhattan(env.TXBook, prev.TXBeam, cur.TXBeam)
		dRX := manhattan(env.RXBook, prev.RXBeam, cur.RXBeam)
		// One end moves by one adjacent step, the other stays (except at
		// the raster wrap point, where both may jump once).
		if dTX+dRX > 1 {
			// Allow a single wrap discontinuity per run.
			if k > 1 {
				t.Logf("scan step %d jumped dTX=%d dRX=%d (wrap allowed once)", k, dTX, dRX)
			}
		}
	}
}

func TestScanStepsAreAdjacentWithinRaster(t *testing.T) {
	// Force start at a known position by trying seeds until the raster
	// start is 0; then every consecutive step must be strictly adjacent.
	env := testEnv(t, 8, 1, false)
	ms, err := ScanStrategy{}.Run(context.Background(), env, env.TotalPairs())
	if err != nil {
		t.Fatal(err)
	}
	// Count non-adjacent steps: exactly the single wrap-around is allowed.
	jumps := 0
	manhattan := func(cb *antenna.Codebook, a, b int) int {
		ba, bb := cb.Beam(a), cb.Beam(b)
		return iabs(ba.GridAz-bb.GridAz) + iabs(ba.GridEl-bb.GridEl)
	}
	for k := 1; k < len(ms); k++ {
		d := manhattan(env.TXBook, ms[k-1].TXBeam, ms[k].TXBeam) +
			manhattan(env.RXBook, ms[k-1].RXBeam, ms[k].RXBeam)
		if d != 1 {
			jumps++
		}
	}
	if jumps > 1 {
		t.Errorf("scan made %d non-adjacent steps, want ≤1 (the wrap)", jumps)
	}
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestOracleFindsPlantedPair(t *testing.T) {
	// Build a channel whose single path is exactly aligned with known
	// codewords; the oracle must select that pair.
	tx := antenna.NewUPA(2, 2)
	rx := antenna.NewUPA(4, 4)
	txBook := antenna.NewGridCodebook(tx, 4, 2, math.Pi, math.Pi/2)
	rxBook := antenna.NewGridCodebook(rx, 4, 4, math.Pi, math.Pi/2)
	wantTX, wantRX := 5, 9
	ch, err := channel.New(tx, rx, []channel.Path{{
		Power: 1,
		AoD:   txBook.Beam(wantTX).Dir,
		AoA:   rxBook.Beam(wantRX).Dir,
	}})
	if err != nil {
		t.Fatal(err)
	}
	sounder, err := meas.NewSounder(ch, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{TXBook: txBook, RXBook: rxBook, Sounder: sounder, Src: rng.New(10)}
	p, snr := Oracle(env)
	if p.TX != wantTX || p.RX != wantRX {
		t.Errorf("Oracle = %+v, want {%d %d}", p, wantTX, wantRX)
	}
	if want := 1.0 * 4 * 16; math.Abs(snr-want)/want > 1e-9 {
		t.Errorf("Oracle SNR = %g, want %g", snr, want)
	}
}

func TestEvaluateTrajectoryShape(t *testing.T) {
	env := testEnv(t, 11, 10, false)
	tr, err := EvaluateContext(context.Background(), env, RandomStrategy{}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.LossDB) != 40 {
		t.Fatalf("trajectory length %d, want 40", len(tr.LossDB))
	}
	if tr.Scheme != "random" {
		t.Errorf("scheme = %q", tr.Scheme)
	}
	if tr.OptSNR <= 0 {
		t.Errorf("OptSNR = %g", tr.OptSNR)
	}
	for l, loss := range tr.LossDB {
		if loss < 0 {
			t.Fatalf("negative loss %g at %d", loss, l)
		}
	}
	if math.IsInf(tr.FinalLossDB(), 1) {
		t.Error("final loss is +Inf after 40 pair measurements")
	}
	if tr.BestTrueSNR <= 0 || tr.BestTrueSNR > tr.OptSNR+1e-9 {
		t.Errorf("BestTrueSNR = %g vs opt %g", tr.BestTrueSNR, tr.OptSNR)
	}
}

// plantedEnv builds an environment whose single path is exactly aligned
// with known codewords, so the optimal pair is separated from the
// runner-up by a wide margin and noisy selection cannot flip it.
func plantedEnv(t *testing.T, seed int64, gamma float64) (*Env, Pair) {
	t.Helper()
	tx := antenna.NewUPA(2, 2)
	rx := antenna.NewUPA(4, 4)
	txBook := antenna.NewGridCodebook(tx, 4, 2, math.Pi, math.Pi/2)
	rxBook := antenna.NewGridCodebook(rx, 4, 4, math.Pi, math.Pi/2)
	want := Pair{TX: 5, RX: 9}
	ch, err := channel.New(tx, rx, []channel.Path{{
		Power: 1,
		AoD:   txBook.Beam(want.TX).Dir,
		AoA:   rxBook.Beam(want.RX).Dir,
	}})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	sounder, err := meas.NewSounder(ch, gamma, src.Split("noise"))
	if err != nil {
		t.Fatal(err)
	}
	return &Env{TXBook: txBook, RXBook: rxBook, Sounder: sounder, Src: src.Split("strategy")}, want
}

func TestEvaluateFullBudgetZeroLossHighSNR(t *testing.T) {
	// At 100% search rate with high measurement SNR and fading averaged
	// out, every scheme reduces to the exhaustive scan and must find the
	// (well-separated) optimal pair — the paper's limiting claim.
	for _, name := range []string{"random", "scan", "exhaustive", "proposed"} {
		env, _ := plantedEnv(t, 12, 1000)
		env.Sounder.SetSnapshots(32)
		var s Strategy
		switch name {
		case "random":
			s = RandomStrategy{}
		case "scan":
			s = ScanStrategy{}
		case "exhaustive":
			s = ExhaustiveStrategy{}
		case "proposed":
			s = NewProposed(ProposedConfig{J: 4})
		}
		tr, err := EvaluateContext(context.Background(), env, s, env.TotalPairs())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.FinalLossDB() > 0.01 {
			t.Errorf("%s final loss at 100%% rate = %g dB, want ~0", name, tr.FinalLossDB())
		}
	}
}

func TestFirstWithin(t *testing.T) {
	tr := Trajectory{LossDB: []float64{math.Inf(1), 5, 3, 3, 0.5}}
	tests := []struct {
		target float64
		want   int
	}{
		{6, 2},
		{3, 3},
		{1, 5},
		{0.1, -1},
	}
	for _, tt := range tests {
		if got := tr.FirstWithin(tt.target); got != tt.want {
			t.Errorf("FirstWithin(%g) = %d, want %d", tt.target, got, tt.want)
		}
	}
}

func TestSearchRate(t *testing.T) {
	tr := Trajectory{}
	if got := tr.SearchRate(32, 128); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("SearchRate = %g, want 0.25", got)
	}
}

func TestProposedUsesConfiguredJ(t *testing.T) {
	// With J=4 and a fresh environment, the first slot must sound one TX
	// beam exactly 4 times (3 random + 1 estimated).
	env := testEnv(t, 13, 1, false)
	s := NewProposed(ProposedConfig{J: 4})
	ms, err := s.Run(context.Background(), env, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 8 {
		t.Fatalf("took %d measurements", len(ms))
	}
	first := ms[0].TXBeam
	for i := 1; i < 4; i++ {
		if ms[i].TXBeam != first {
			t.Errorf("measurement %d switched TX beam mid-slot", i)
		}
	}
	if ms[4].TXBeam == first {
		t.Error("slot 2 did not switch TX beam")
	}
}

func TestProposedWindowLimitsHistory(t *testing.T) {
	env := testEnv(t, 14, 1, false)
	s := NewProposed(ProposedConfig{J: 4, Window: 8})
	if _, err := s.Run(context.Background(), env, 40); err != nil {
		t.Fatal(err)
	}
}

func TestProposedMultipathRuns(t *testing.T) {
	env := testEnv(t, 15, 1, true)
	tr, err := EvaluateContext(context.Background(), env, NewProposed(ProposedConfig{J: 4}), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.LossDB) != 32 {
		t.Errorf("trajectory length %d", len(tr.LossDB))
	}
}

func TestHierarchicalFindsGoodPairCleanChannel(t *testing.T) {
	// With essentially noiseless soundings the hierarchical descent must
	// land within a few dB of optimal using far fewer than T soundings.
	env := testEnv(t, 16, 1e6, false)
	env.Sounder.SetSnapshots(64)
	h := NewHierarchical(antenna.NewHierCodebook(env.RXBook, 2, 2))
	tr, err := EvaluateContext(context.Background(), env, h, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.FinalLossDB() > 3 {
		t.Errorf("hierarchical loss = %g dB on clean channel", tr.FinalLossDB())
	}
}

func TestEvaluatePropagatesStrategyErrors(t *testing.T) {
	env := testEnv(t, 17, 1, false)
	if _, err := EvaluateContext(context.Background(), env, RandomStrategy{}, 0); err == nil {
		t.Error("expected error for zero budget")
	}
}

func TestProposedAutoMu(t *testing.T) {
	env := testEnv(t, 19, 1, false)
	s := NewProposed(ProposedConfig{
		J:          4,
		AutoMuGrid: []float64{0.3, 1, 3},
	})
	ms, err := s.Run(context.Background(), env, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 40 {
		t.Errorf("took %d measurements", len(ms))
	}
}

func TestProposedEstimatorOptionsHonored(t *testing.T) {
	env := testEnv(t, 18, 1, false)
	s := NewProposed(ProposedConfig{
		J:         4,
		Estimator: covest.Options{Gamma: 1, Mu: 5, MaxIters: 5},
	})
	if _, err := s.Run(context.Background(), env, 16); err != nil {
		t.Fatal(err)
	}
}
