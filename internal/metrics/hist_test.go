package metrics

import (
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0.5, 1, 3, 3.5, 9.9} {
		if !h.Add(x) {
			t.Fatalf("Add(%g) rejected", x)
		}
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d", h.Total())
	}
	if c, lo, hi := h.Bin(0); c != 2 || lo != 0 || hi != 2 {
		t.Errorf("bin 0 = (%d, %g, %g)", c, lo, hi)
	}
	if c, _, _ := h.Bin(1); c != 2 {
		t.Errorf("bin 1 count = %d", c)
	}
	if c, _, _ := h.Bin(4); c != 1 {
		t.Errorf("bin 4 count = %d", c)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(-5)
	h.Add(99)
	if c, _, _ := h.Bin(0); c != 1 {
		t.Errorf("low clamp count = %d", c)
	}
	if c, _, _ := h.Bin(1); c != 1 {
		t.Errorf("high clamp count = %d", c)
	}
}

func TestHistogramBoundaryValues(t *testing.T) {
	// x == hi lands exactly on len(counts) before clamping; it must count
	// in the last bin, not panic or vanish. x == lo belongs to bin 0, and
	// a value just below lo clamps into bin 0.
	h := NewHistogram(-2, 2, 4)
	h.Add(2)  // exactly hi
	h.Add(-2) // exactly lo
	h.Add(math.Nextafter(-2, -3))
	if c, _, _ := h.Bin(3); c != 1 {
		t.Errorf("count at x=hi bin = %d, want 1", c)
	}
	if c, _, _ := h.Bin(0); c != 2 {
		t.Errorf("count at x=lo bin = %d, want 2", c)
	}
	if h.Total() != 3 {
		t.Errorf("Total = %d, want 3", h.Total())
	}
}

func TestHistogramRejectsNonFinite(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	if h.Add(math.NaN()) || h.Add(math.Inf(1)) {
		t.Error("non-finite values accepted")
	}
	if h.Total() != 0 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestHistogramPanicsOnBadConfig(t *testing.T) {
	cases := []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 4) },
		func() { NewHistogram(2, 1, 4) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestECDF(t *testing.T) {
	s := ECDF("snr", []float64{3, 1, 2, math.NaN()})
	if len(s.X) != 3 {
		t.Fatalf("len = %d", len(s.X))
	}
	if s.X[0] != 1 || s.X[2] != 3 {
		t.Errorf("X = %v", s.X)
	}
	if math.Abs(s.Y[0]-1.0/3) > 1e-12 || s.Y[2] != 1 {
		t.Errorf("Y = %v", s.Y)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1] {
			t.Fatal("ECDF not monotone")
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	s := ECDF("empty", nil)
	if len(s.X) != 0 || len(s.Y) != 0 {
		t.Errorf("non-empty ECDF from empty input: %+v", s)
	}
}
