package antenna

import (
	"math"
	"testing"

	"mmwalign/internal/cmat"
)

// The scoreSpace single-owner assertions guard the pooled GEMM scratch
// behind QuadFormScoresInto/TopKQuadForm: a double put (or
// a put-then-reuse) would hand one buffer to two concurrent scoring
// passes and corrupt scores silently. These tests pin the panics.

func TestScoreSpaceDoublePutPanics(t *testing.T) {
	cb := NewGridCodebook(NewUPA(2, 2), 2, 2, math.Pi, math.Pi/2)
	ws := cb.getScoreSpace()
	cb.putScoreSpace(ws)
	defer func() {
		if recover() == nil {
			t.Error("second putScoreSpace did not panic")
		}
	}()
	cb.putScoreSpace(ws)
}

func TestScoreSpaceLeaseFlagLifecycle(t *testing.T) {
	cb := NewGridCodebook(NewUPA(2, 2), 2, 2, math.Pi, math.Pi/2)
	ws := cb.getScoreSpace()
	if !ws.leased {
		t.Error("getScoreSpace did not mark the workspace leased")
	}
	cb.putScoreSpace(ws)
	if ws.leased {
		t.Error("putScoreSpace did not clear the lease flag")
	}
}

func TestScoreSpaceRecycledOnPanicPath(t *testing.T) {
	// The scoring methods defer putScoreSpace, so a dimension-mismatch
	// panic must still recycle (not leak) the workspace: a subsequent
	// well-formed call reuses the pool without tripping the lease
	// assertion.
	cb := NewGridCodebook(NewUPA(2, 2), 2, 2, math.Pi, math.Pi/2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched Q did not panic")
			}
		}()
		dst := make([]float64, cb.Size())
		// 3×3 Q against a 4-antenna codebook panics inside the scoring
		// pass — after the workspace has been leased.
		cb.QuadFormScoresInto(cmat.New(3, 3), dst)
	}()

	// A full scoring pass after the panic must work and leave the pool
	// healthy (no stuck leases).
	q := cb.Beam(0).Weights.Outer(cb.Beam(0).Weights).Hermitianize()
	dst := make([]float64, cb.Size())
	cb.QuadFormScoresInto(q, dst)
	if best, _ := BestScore(dst); best != 0 {
		t.Errorf("BestScore = %d, want 0 (rank-one Q on beam 0)", best)
	}
}
