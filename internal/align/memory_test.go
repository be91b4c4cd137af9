package align

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
)

// mobilityEnv is one realignment of the mobility scenario's link: a
// 4×4 transmitter with a 16-beam book, the paper's 8×8 receiver with a
// 64-beam book, a single-path channel at 0 dB and 4 snapshots per
// measurement. Like the scenario's frames, the realignments share one
// pair of codebooks (books, built on the first call).
func mobilityEnv(t *testing.T, seed int64, books *[2]*antenna.Codebook) *Env {
	t.Helper()
	tx, rx := antenna.NewUPA(4, 4), antenna.NewUPA(8, 8)
	if books[0] == nil {
		books[0] = antenna.NewGridCodebook(tx, 4, 4, math.Pi, math.Pi/2)
		books[1] = antenna.NewGridCodebook(rx, 8, 8, math.Pi, math.Pi/2)
	}
	src := rng.New(seed)
	ch, err := channel.NewSinglePath(src.Split("channel"), tx, rx, channel.SinglePathSpec{})
	if err != nil {
		t.Fatal(err)
	}
	sounder, err := meas.NewSounder(ch, 1, src.Split("noise"))
	if err != nil {
		t.Fatal(err)
	}
	sounder.SetSnapshots(4)
	return &Env{TXBook: books[0], RXBook: books[1], Sounder: sounder, Src: src.Split("strategy")}
}

// TestProposedAlignmentAllocations pins the bytes one alignment of the
// proposed scheme allocates (J = 8, window 96, 96 measurements: the
// scenario's realignment) once its strategy has run an alignment long
// enough for the reused estimator to hold the largest problem it can
// meet (an N = 64 basis over a 96-observation window), measured on one
// CPU with the collector off so that neither GEMM fan-out nor the
// runtime's post-GC work is counted. An alignment then allocates its
// measurement record and the 12 returned factors, not a solver
// workspace.
func TestProposedAlignmentAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	strat, err := ForScheme("proposed", nil, SchemeSpec{J: 8, Window: 96, Estimator: covest.Options{MaxIters: 25}})
	if err != nil {
		t.Fatal(err)
	}
	var books [2]*antenna.Codebook
	align := func(seed int64, budget int) uint64 {
		env := mobilityEnv(t, seed, &books)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ms, err := strat.Run(context.Background(), env, budget)
		runtime.ReadMemStats(&after)
		if err != nil || len(ms) != budget {
			t.Fatalf("alignment took %d measurements (err %v), want %d", len(ms), err, budget)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	align(1, 1024)
	var most uint64
	for seed := int64(2); seed <= 6; seed++ {
		most = max(most, align(seed, 96))
	}
	t.Logf("an alignment allocates at most %d bytes", most)
	const bound = 100 << 10
	if most > bound {
		t.Errorf("an alignment allocates %d bytes, above the pinned %d", most, bound)
	}
}

// TestSharedStrategyConcurrentRuns runs one proposed strategy from
// several goroutines at once, as a figure sweep may share it: runs that
// find its idle estimator taken build their own, and every run's
// measurements equal a fresh strategy's on the same link.
func TestSharedStrategyConcurrentRuns(t *testing.T) {
	shared, err := ForScheme("proposed", nil, SchemeSpec{J: 4})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 6
	got := make([][]float64, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms, err := shared.Run(context.Background(), testEnv(t, int64(40+i), 1, i%2 == 1), 40)
			if err != nil {
				t.Error(err)
				return
			}
			for _, m := range ms {
				got[i] = append(got[i], m.Energy)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		fresh, _ := ForScheme("proposed", nil, SchemeSpec{J: 4})
		ms, err := fresh.Run(context.Background(), testEnv(t, int64(40+i), 1, i%2 == 1), 40)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(got[i]) {
			t.Fatalf("run %d: %d measurements shared, %d fresh", i, len(got[i]), len(ms))
		}
		for j, m := range ms {
			if math.Float64bits(m.Energy) != math.Float64bits(got[i][j]) {
				t.Fatalf("run %d: measurement %d differs between the shared and a fresh strategy", i, j)
			}
		}
	}
}
