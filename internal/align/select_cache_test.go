package align

import (
	"math/rand"
	"testing"

	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
)

// TestSelectBeamsScoreCacheMatchesRescoring pins the per-estimate score
// cache in selectScratch: a run that reuses one scratch across calls
// (so repeated calls under the same Q̂ read the cached scores) picks the
// same beams, and consumes the same randomness, as one that rescores
// the codebook on every call. The sequence mixes repeated and fresh
// estimates, an all-zero estimate (random exploration) and no estimate.
func TestSelectBeamsScoreCacheMatchesRescoring(t *testing.T) {
	cached := testEnv(t, 5, 1, false)
	fresh := testEnv(t, 5, 1, false)
	s := NewProposed(ProposedConfig{})
	n := cached.RXBook.Array().Elements()
	r := rand.New(rand.NewSource(9))
	randPSD := func(rank int) *covest.Factor {
		f := &covest.Factor{UH: cmat.New(rank, n), S: make([]float64, rank)}
		for k := 0; k < rank; k++ {
			for x := 0; x < n; x++ {
				f.UH.Set(k, x, complex(r.NormFloat64(), r.NormFloat64()))
			}
			f.S[k] = r.Float64() + 0.1
		}
		return f
	}
	q1, q2, q3 := randPSD(1), randPSD(3), randPSD(2)
	zero := randPSD(0)
	seq := []*covest.Factor{q1, q1, q2, q2, q2, zero, zero, nil, q1, q3, q3}

	scr := &selectScratch{}
	size := cached.RXBook.Size()
	for step, q := range seq {
		avail := r.Perm(size)[:2+r.Intn(size-2)]
		k := 1 + r.Intn(7)
		got := s.selectBeams(cached, q, avail, k, scr)
		want := s.selectBeams(fresh, q, avail, k, &selectScratch{})
		if len(got) != len(want) {
			t.Fatalf("step %d: cached picks %v, rescored %v", step, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: cached picks %v, rescored %v", step, got, want)
			}
		}
	}
	if a, b := cached.Src.Float64(), fresh.Src.Float64(); a != b {
		t.Fatalf("randomness diverged: %v vs %v", a, b)
	}

	// The cache is actually read: planting a score for beam 0 in the
	// cached vector steers the next pick under the same estimate.
	s.selectBeams(cached, q3, []int{0, 1, 2}, 1, scr)
	scr.all[0] = 1e300
	if got := s.selectBeams(cached, q3, []int{0, 1, 2}, 1, scr); got[0] != 0 {
		t.Fatalf("pick under the cached estimate = %v, want the planted beam 0", got)
	}
	// A different estimate is rescored.
	if s.selectBeams(cached, q1, []int{0, 1, 2}, 1, scr); scr.all[0] == 1e300 {
		t.Fatal("a new estimate reused the previous estimate's scores")
	}
}
