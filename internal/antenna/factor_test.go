package antenna

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmwalign/internal/cmat"
)

// TestFactorScoresMatchDense scores the 8×8 receiver's 64-beam codebook
// under random rank-k factors and checks every score against the dense
// quadratic form of the same matrix to 1e-12 relative. It also pins the
// scoring work: k·N·M multiply-adds where the dense pass costs N²·M,
// and none for the zero factor, whose scores are all zero.
func TestFactorScoresMatchDense(t *testing.T) {
	cb := NewGridCodebook(NewUPA(8, 8), 8, 8, math.Pi, math.Pi/2)
	n, m := cb.Array().Elements(), cb.Size()
	r := rand.New(rand.NewSource(5))
	for _, k := range []int{0, 1, 2, 3, 5} {
		uh := cmat.New(k, n)
		s := make([]float64, k)
		for i := 0; i < k; i++ {
			s[i] = 10 * r.Float64()
			for x := 0; x < n; x++ {
				uh.Set(i, x, complex(r.NormFloat64(), r.NormFloat64()))
			}
		}
		q := cmat.New(n, n)
		q.LowRankInto(uh, s)
		want := cb.QuadFormScoresInto(q, make([]float64, m))
		got := make([]float64, m)
		for i := range got {
			got[i] = math.NaN()
		}
		madds := cb.FactorScoresInto(uh, s, got)
		if madds != k*n*m {
			t.Errorf("k=%d: %d multiply-adds, want k·N·M = %d", k, madds, k*n*m)
		}
		if k > 0 && madds*n/k != n*n*m {
			t.Errorf("k=%d: %d multiply-adds is not k/N of the dense %d", k, madds, n*n*m)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("k=%d beam %d: factor score %v, dense %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestFactorScoresOfABeamPickIt checks the eigen-beam rule on a factor
// whose leading eigenvector is a codebook beam: that beam scores its
// eigenvalue and wins.
func TestFactorScoresOfABeamPickIt(t *testing.T) {
	cb := testCodebook()
	n := cb.Array().Elements()
	uh := cmat.New(1, n)
	for x, w := range cb.Beam(11).Weights {
		uh.Set(0, x, cmplx.Conj(w))
	}
	scores := make([]float64, cb.Size())
	cb.FactorScoresInto(uh, []float64{7}, scores)
	best, val := BestScore(scores)
	if best != 11 || math.Abs(val-7) > 1e-12 {
		t.Fatalf("best beam %d scoring %v, want beam 11 scoring 7", best, val)
	}
}
