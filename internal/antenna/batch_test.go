package antenna

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mmwalign/internal/cmat"
)

func randHermQ(seed int64, n int) *cmat.Matrix {
	r := rand.New(rand.NewSource(seed))
	m := cmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(r.NormFloat64(), r.NormFloat64()))
		}
	}
	return m.Hermitianize()
}

func TestQuadFormScoresMatchScalarBitwise(t *testing.T) {
	cb := testCodebook()
	q := randHermQ(21, cb.Array().Elements())
	scores := make([]float64, cb.Size())
	cb.QuadFormScoresInto(q, scores)
	for i := 0; i < cb.Size(); i++ {
		if want := q.QuadForm(cb.Beam(i).Weights); scores[i] != want {
			t.Fatalf("beam %d: batched score %v, want %v (bitwise)", i, scores[i], want)
		}
	}
}

func TestBestQuadFormMatchesScalarScan(t *testing.T) {
	cb := testCodebook()
	for seed := int64(1); seed <= 5; seed++ {
		q := randHermQ(seed, cb.Array().Elements())
		gotIdx, gotVal := BestScore(cb.QuadFormScoresInto(q, make([]float64, cb.Size())))
		wantIdx, wantVal := -1, math.Inf(-1)
		for i := 0; i < cb.Size(); i++ {
			if v := q.QuadForm(cb.Beam(i).Weights); v > wantVal {
				wantIdx, wantVal = i, v
			}
		}
		if gotIdx != wantIdx || gotVal != wantVal {
			t.Fatalf("seed %d: BestScore = (%d, %v), want (%d, %v)", seed, gotIdx, gotVal, wantIdx, wantVal)
		}
	}
}

// TestTopKPathsAgree pins the path-independence promise: for any k the
// small-k repeated scan and the sort path produce the same ranking, so
// the cutoff is purely a performance knob.
func TestTopKPathsAgree(t *testing.T) {
	cb := testCodebook()
	q := randHermQ(33, cb.Array().Elements())
	full := cb.TopKQuadForm(q, cb.Size()) // sort path (k = 32 > cutoff)
	for k := 1; k <= topKScanCutoff; k++ {
		scan := cb.TopKQuadForm(q, k) // scan path
		for i := range scan {
			if scan[i] != full[i] {
				t.Fatalf("k=%d: scan path %v disagrees with sort-path prefix %v", k, scan, full[:k])
			}
		}
	}
}

func TestTopKTieBreakAndNaN(t *testing.T) {
	cb := testCodebook()
	// A zero matrix scores every beam exactly 0: ties must resolve by
	// ascending beam index on both paths.
	zero := cmat.New(cb.Array().Elements(), cb.Array().Elements())
	for _, k := range []int{3, cb.Size()} {
		got := cb.TopKQuadForm(zero, k)
		for i, idx := range got {
			if idx != i {
				t.Fatalf("k=%d: tie order %v, want ascending indices", k, got)
			}
		}
	}
	// NaN scores must rank below every finite score, not poison the
	// comparison order.
	nan := cmat.New(cb.Array().Elements(), cb.Array().Elements())
	nan.Set(0, 0, complex(math.NaN(), 0))
	ranked := cb.TopKQuadForm(nan, cb.Size())
	if len(ranked) != cb.Size() {
		t.Fatalf("ranked %d beams, want %d", len(ranked), cb.Size())
	}
	seen := make(map[int]bool)
	for _, idx := range ranked {
		if seen[idx] {
			t.Fatalf("duplicate index %d in ranking %v", idx, ranked)
		}
		seen[idx] = true
	}
}

func TestTopKQuadFormIntoReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops items)")
	}
	cb := testCodebook()
	q := randHermQ(44, cb.Array().Elements())
	buf := make([]int, 0, cb.Size())
	// Warm the packed cache and the workspace pool.
	buf = cb.TopKQuadFormInto(q, 4, buf)
	allocs := testing.AllocsPerRun(50, func() {
		buf = cb.TopKQuadFormInto(q, 4, buf)
	})
	if allocs != 0 {
		t.Errorf("small-k TopKQuadFormInto allocates %.1f per call, want 0", allocs)
	}
}

func TestQuadFormScoresConcurrentUse(t *testing.T) {
	cb := testCodebook()
	q := randHermQ(55, cb.Array().Elements())
	want := make([]float64, cb.Size())
	cb.QuadFormScoresInto(q, want)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			dst := make([]float64, cb.Size())
			for rep := 0; rep < 50; rep++ {
				cb.QuadFormScoresInto(q, dst)
				for i := range dst {
					if dst[i] != want[i] {
						done <- errTest(i)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent scoring diverged: %v", err)
		}
	}
}

type errTest int

func (e errTest) Error() string { return "score mismatch at beam " + string(rune('0'+int(e))) }

// oldTopK and oldBest are the per-call ranking rules TopKQuadFormInto
// and BestQuadForm applied before scoring moved to a single pass: NaN
// replaced by −Inf in a scratch copy, a repeated scan for k ≤ 8 and a
// sort beyond, and a strict > argmax over the raw scores.
func oldTopK(raw []float64, k int) []int {
	if k > len(raw) {
		k = len(raw)
	}
	var dst []int
	if k <= 0 {
		return dst
	}
	scores := append([]float64(nil), raw...)
	for i, v := range scores {
		if math.IsNaN(v) {
			scores[i] = math.Inf(-1)
		}
	}
	if k <= 8 {
		for n := 0; n < k; n++ {
			best := -1
			for i, v := range scores {
				if best >= 0 && v <= scores[best] {
					continue
				}
				taken := false
				for _, t := range dst {
					taken = taken || t == i
				}
				if !taken {
					best = i
				}
			}
			dst = append(dst, best)
		}
		return dst
	}
	for i := range scores {
		dst = append(dst, i)
	}
	sort.Slice(dst, func(a, b int) bool {
		if scores[dst[a]] != scores[dst[b]] {
			return scores[dst[a]] > scores[dst[b]]
		}
		return dst[a] < dst[b]
	})
	return dst[:k]
}

func oldBest(scores []float64) (int, float64) {
	best, bestVal := -1, math.Inf(-1)
	for i, v := range scores {
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	return best, bestVal
}

// TestSinglePassRankingMatchesPerCall pins that ranking one score
// vector with BestScore and TopKScoresInto gives what the per-call
// BestQuadForm and TopKQuadFormInto gave, on vectors with NaN scores,
// ±Inf, exact ties and all-equal runs, for k on both sides of the scan
// cutoff and past the vector's length. The scores must come back
// unmodified, since the serving path reads them after ranking.
func TestSinglePassRankingMatchesPerCall(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	pool := []float64{0, 1, -1, 2.5, math.NaN(), math.Inf(-1), math.Inf(1)}
	var dst []int
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(40)
		scores := make([]float64, n)
		for i := range scores {
			if r.Intn(3) == 0 {
				scores[i] = pool[r.Intn(len(pool))] // ties, NaN, ±Inf
			} else {
				scores[i] = r.NormFloat64()
			}
		}
		if trial%50 == 0 {
			for i := range scores {
				scores[i] = math.NaN()
			}
		}
		orig := append([]float64(nil), scores...)
		gi, gv := BestScore(scores)
		wi, wv := oldBest(scores)
		if gi != wi || !(gv == wv || math.IsNaN(gv) && math.IsNaN(wv)) {
			t.Fatalf("trial %d: BestScore = (%d, %v), per-call (%d, %v)", trial, gi, gv, wi, wv)
		}
		for _, k := range []int{0, 1, 3, 8, 9, 16, n, n + 5} {
			dst = TopKScoresInto(scores, k, dst)
			want := oldTopK(scores, k)
			if len(dst) != len(want) {
				t.Fatalf("trial %d k=%d: %v, per-call %v", trial, k, dst, want)
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("trial %d k=%d: %v, per-call %v", trial, k, dst, want)
				}
			}
		}
		for i := range scores {
			if math.Float64bits(scores[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: ranking modified score %d", trial, i)
			}
		}
	}

	// And end to end on a codebook: one scoring pass ranked twice equals
	// TopKQuadFormInto's own pass.
	cb := testCodebook()
	q := randHermQ(88, cb.Array().Elements())
	scores := cb.QuadFormScoresInto(q, make([]float64, cb.Size()))
	for _, k := range []int{1, 8, 9, cb.Size() + 3} {
		got := TopKScoresInto(scores, k, nil)
		want := cb.TopKQuadForm(q, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: single pass %v, TopKQuadForm %v", k, got, want)
			}
		}
	}
}
