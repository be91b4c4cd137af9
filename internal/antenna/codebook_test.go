package antenna

import (
	"math"
	"testing"

	"mmwalign/internal/cmat"
)

func testCodebook() *Codebook {
	return NewGridCodebook(NewUPA(4, 4), 8, 4, math.Pi, math.Pi/2)
}

func TestGridCodebookSize(t *testing.T) {
	cb := testCodebook()
	if cb.Size() != 32 {
		t.Fatalf("Size = %d, want 32", cb.Size())
	}
	nAz, nEl := cb.GridShape()
	if nAz != 8 || nEl != 4 {
		t.Errorf("grid = %dx%d, want 8x4", nAz, nEl)
	}
}

func TestGridCodebookBeamsUnitNorm(t *testing.T) {
	cb := testCodebook()
	for i := 0; i < cb.Size(); i++ {
		if n := cb.Beam(i).Weights.Norm(); math.Abs(n-1) > 1e-12 {
			t.Errorf("beam %d norm = %g", i, n)
		}
	}
}

func TestGridCodebookAnglesWithinSpan(t *testing.T) {
	cb := testCodebook()
	for _, b := range cb.Beams() {
		if math.Abs(b.Dir.Az) > math.Pi/2 || math.Abs(b.Dir.El) > math.Pi/4 {
			t.Errorf("beam %d direction %+v outside span", b.Index, b.Dir)
		}
	}
}

func TestGridCodebookIndexLayout(t *testing.T) {
	cb := testCodebook()
	nAz, _ := cb.GridShape()
	for _, b := range cb.Beams() {
		if b.Index != b.GridEl*nAz+b.GridAz {
			t.Errorf("beam %d has grid (%d,%d), inconsistent layout", b.Index, b.GridAz, b.GridEl)
		}
	}
}

func TestGridCodebookSingleCell(t *testing.T) {
	cb := NewGridCodebook(NewULA(4), 1, 1, math.Pi, 0)
	if cb.Size() != 1 {
		t.Fatalf("Size = %d", cb.Size())
	}
	if d := cb.Beam(0).Dir; d.Az != 0 || d.El != 0 {
		t.Errorf("single beam at %+v, want boresight", d)
	}
}

func TestGridCodebookPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGridCodebook(NewULA(4), 0, 1, math.Pi, 0)
}

func TestBeamPanicsOutOfRange(t *testing.T) {
	cb := testCodebook()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cb.Beam(cb.Size())
}

func TestNeighbors(t *testing.T) {
	cb := testCodebook() // 8x4 grid
	tests := []struct {
		name  string
		idx   int
		count int
	}{
		{"corner", 0, 2},
		{"edge", 1, 3},
		{"interior", 9, 4},
		{"far corner", cb.Size() - 1, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			nb := cb.Neighbors(tt.idx)
			if len(nb) != tt.count {
				t.Fatalf("|neighbors(%d)| = %d, want %d", tt.idx, len(nb), tt.count)
			}
			// Every neighbor must be one grid step away.
			b := cb.Beam(tt.idx)
			for _, j := range nb {
				n := cb.Beam(j)
				d := abs(n.GridAz-b.GridAz) + abs(n.GridEl-b.GridEl)
				if d != 1 {
					t.Errorf("neighbor %d at manhattan distance %d", j, d)
				}
			}
		})
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestSnakeOrderCoversAllAdjacent(t *testing.T) {
	cb := testCodebook()
	order := cb.SnakeOrder()
	if len(order) != cb.Size() {
		t.Fatalf("snake order covers %d of %d beams", len(order), cb.Size())
	}
	seen := make(map[int]bool)
	for _, i := range order {
		if seen[i] {
			t.Fatalf("beam %d visited twice", i)
		}
		seen[i] = true
	}
	for k := 1; k < len(order); k++ {
		a, b := cb.Beam(order[k-1]), cb.Beam(order[k])
		d := abs(a.GridAz-b.GridAz) + abs(a.GridEl-b.GridEl)
		if d != 1 {
			t.Fatalf("snake step %d→%d is not adjacent (distance %d)", order[k-1], order[k], d)
		}
	}
}

func TestBestQuadFormFindsPlantedDirection(t *testing.T) {
	cb := testCodebook()
	// Plant Q = w wᴴ for codeword 13; the best score must be beam 13.
	target := cb.Beam(13).Weights
	q := target.Outer(target)
	idx, val := BestScore(cb.QuadFormScoresInto(q, make([]float64, cb.Size())))
	if idx != 13 {
		t.Errorf("BestScore = %d, want 13", idx)
	}
	if math.Abs(val-1) > 1e-10 {
		t.Errorf("value = %g, want 1", val)
	}
}

func TestTopKQuadFormOrderingAndUniqueness(t *testing.T) {
	cb := testCodebook()
	target := cb.Beam(5).Weights
	q := target.Outer(target)
	top := cb.TopKQuadForm(q, 6)
	if len(top) != 6 {
		t.Fatalf("len = %d, want 6", len(top))
	}
	if top[0] != 5 {
		t.Errorf("top beam = %d, want 5", top[0])
	}
	seen := make(map[int]bool)
	prev := math.Inf(1)
	for _, i := range top {
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
		v := q.QuadForm(cb.Beam(i).Weights)
		if v > prev+1e-12 {
			t.Fatalf("values not descending")
		}
		prev = v
	}
}

func TestTopKQuadFormClampsK(t *testing.T) {
	cb := testCodebook()
	q := cmat.Identity(cb.Array().Elements())
	if got := cb.TopKQuadForm(q, cb.Size()+100); len(got) != cb.Size() {
		t.Errorf("len = %d, want %d", len(got), cb.Size())
	}
}

func TestDFTCodebookOrthogonality(t *testing.T) {
	cb := NewDFTCodebook(NewULA(8))
	if cb.Size() != 8 {
		t.Fatalf("Size = %d, want 8", cb.Size())
	}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			ip := cb.Beam(i).Weights.Dot(cb.Beam(j).Weights)
			if math.Hypot(real(ip), imag(ip)) > 1e-10 {
				t.Errorf("DFT beams %d,%d not orthogonal", i, j)
			}
		}
	}
}
