package cmat

import (
	"math/rand"
	"runtime"
	"testing"
)

func randomPanelSet(rng *rand.Rand, count, rows, inner, cols, hermCols int) ([]Panel, []Panel) {
	herm := hermCols >= 0
	batch := make([]Panel, count)
	single := make([]Panel, count)
	for p := 0; p < count; p++ {
		var a, b *Matrix
		if herm {
			a = New(rows, inner)
			b = New(cols, inner)
		} else {
			a = New(rows, inner)
			b = New(inner, cols)
		}
		for _, m := range []*Matrix{a, b} {
			for i := range m.data {
				m.data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		batch[p] = Panel{Dst: New(rows, cols), A: a, B: b}
		single[p] = Panel{Dst: New(rows, cols), A: a, B: b}
	}
	return batch, single
}

// TestMulIntoPanelsMatchesPerPanel pins the batched entry point against
// per-panel MulInto calls, bit for bit, across shapes on both sides of
// the parallel threshold. GOMAXPROCS is forced up so the virtual-stack
// parallel path actually runs on single-CPU machines.
func TestMulIntoPanelsMatchesPerPanel(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(41))
	for _, tc := range [][4]int{
		{1, 3, 4, 5},
		{2, 5, 7, 3},
		{3, 2, 9, 2}, // rows·panels < gemmParallelRows: serial path
		{7, 16, 48, 64},
		{4, 33, 64, 48}, // panels·rows = 132 ≥ 32 and ops ≥ 2^17: parallel path
	} {
		count, rows, inner, cols := tc[0], tc[1], tc[2], tc[3]
		batch, single := randomPanelSet(rng, count, rows, inner, cols, -1)
		MulIntoPanels(batch)
		for p := range single {
			single[p].Dst.MulInto(single[p].A, single[p].B)
			for i := range single[p].Dst.data {
				if !bitEqualComplex(batch[p].Dst.data[i], single[p].Dst.data[i]) {
					t.Fatalf("panels %dx(%d,%d,%d): panel %d entry %d = %v, want %v",
						count, rows, inner, cols, p, i, batch[p].Dst.data[i], single[p].Dst.data[i])
				}
			}
		}
	}
	MulIntoPanels(nil) // empty batch is a no-op
}

// TestMulHermIntoPanelsMatchesPerPanel is the a·bᴴ counterpart,
// including a Gram panel where a aliases b.
func TestMulHermIntoPanelsMatchesPerPanel(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(43))
	for _, tc := range [][4]int{
		{1, 3, 5, 4},
		{3, 6, 9, 6},
		{4, 33, 64, 48},
	} {
		count, rows, inner, cols := tc[0], tc[1], tc[2], tc[3]
		batch, single := randomPanelSet(rng, count, rows, inner, cols, cols)
		MulHermIntoPanels(batch)
		for p := range single {
			single[p].Dst.MulHermInto(single[p].A, single[p].B)
			for i := range single[p].Dst.data {
				if !bitEqualComplex(batch[p].Dst.data[i], single[p].Dst.data[i]) {
					t.Fatalf("herm panels %dx(%d,%d,%d): panel %d entry %d mismatch",
						count, rows, inner, cols, p, i)
				}
			}
		}
	}
	// Gram case: a aliases b within a panel.
	a := New(34, 40)
	for i := range a.data {
		a.data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := New(34, 34)
	MulHermIntoPanels([]Panel{{Dst: got, A: a, B: a}})
	want := New(34, 34)
	want.MulHermInto(a, a)
	for i := range want.data {
		if !bitEqualComplex(got.data[i], want.data[i]) {
			t.Fatalf("gram panel entry %d mismatch", i)
		}
	}
}

// TestPanelsShapeValidation checks that per-panel and cross-panel shape
// violations panic with attribution instead of corrupting memory.
func TestPanelsShapeValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a, b, dst := New(3, 4), New(4, 5), New(3, 5)
	mustPanic("bad inner", func() {
		MulIntoPanels([]Panel{{Dst: dst, A: a, B: New(3, 5)}})
	})
	mustPanic("dst aliases a", func() {
		sq := New(4, 4)
		MulIntoPanels([]Panel{{Dst: sq, A: sq, B: New(4, 4)}})
	})
	mustPanic("cross-panel disagreement", func() {
		MulIntoPanels([]Panel{
			{Dst: dst, A: a, B: b},
			{Dst: New(2, 5), A: New(2, 4), B: b},
		})
	})
	mustPanic("herm bad dst cols", func() {
		MulHermIntoPanels([]Panel{{Dst: New(3, 4), A: a, B: New(5, 4)}})
	})
}
