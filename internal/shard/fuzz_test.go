package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mmwalign/internal/experiment"
	"mmwalign/internal/journal"
)

// validHeader returns the shard.json InitDir writes for cfg's Fig. 5
// run.
func validHeader(tb testing.TB, cfg experiment.Config) []byte {
	tb.Helper()
	dir := tb.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "shard.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// negativeDrops returns a copy of the header with the right config hash
// and a restated drop count of -1.
func negativeDrops(tb testing.TB, header []byte) []byte {
	tb.Helper()
	var h DirHeader
	if err := json.Unmarshal(header, &h); err != nil {
		tb.Fatal(err)
	}
	h.Drops = -1
	data, err := json.Marshal(h)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzInitDir throws arbitrary bytes at shard.json, the file every
// worker and the merge read the run's identity from. InitDir must never
// panic, and it may accept only a header that restates the config's own
// run shape.
func FuzzInitDir(f *testing.F) {
	cfg := tinyConfig()
	rc, _, err := experiment.ConfigForFigure(5, cfg)
	if err != nil {
		f.Fatal(err)
	}
	valid := validHeader(f, cfg)
	f.Add(valid)
	f.Add(negativeDrops(f, valid))
	for _, n := range []int{0, 1, len(valid) / 2, len(valid) - 2} {
		f.Add(valid[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "shard.json"), data, 0o644); err != nil {
			t.Skip()
		}
		h, err := InitDir(dir, 5, cfg)
		if err != nil {
			return
		}
		if h.Seed != rc.Seed || h.Drops != rc.Drops || !slices.Equal(h.Schemes, rc.Schemes) {
			t.Fatalf("accepted header shape seed %d drops %d schemes %v, config has %d / %d / %v",
				h.Seed, h.Drops, h.Schemes, rc.Seed, rc.Drops, rc.Schemes)
		}
	})
}

// TestTamperedShapeIsRefused pins that a worker and the merge refuse a
// shard.json whose hash is right but whose restated drop count is not,
// with the typed error, instead of building a cell grid from it.
func TestTamperedShapeIsRefused(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		t.Fatal(err)
	}
	hp := filepath.Join(dir, "shard.json")
	valid, err := os.ReadFile(hp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hp, negativeDrops(t, valid), 0o644); err != nil {
		t.Fatal(err)
	}
	var me *HeaderMismatchError
	w := &Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg}
	if _, err := w.Run(context.Background()); !errors.As(err, &me) || me.Got.Drops != -1 {
		t.Errorf("Worker.Run err = %v, want a *HeaderMismatchError for drops -1", err)
	}
	if _, err := Merge(dir, 5, cfg); !errors.As(err, &me) || me.Got.Drops != -1 {
		t.Errorf("Merge err = %v, want a *HeaderMismatchError for drops -1", err)
	}
}

// mergeFixture returns a shard directory where worker w1 computed the
// whole tiny grid and reported it, and the size of that grid.
func mergeFixture(tb testing.TB, cfg experiment.Config) (dir string, cells int) {
	tb.Helper()
	dir = tb.TempDir()
	sum, err := (&Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg}).Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return dir, sum.ComputedCells
}

// FuzzWorkerSummary throws arbitrary bytes at a worker's summary file,
// whose counts Merge copies into the run manifest. Merge must never
// panic, and every count it accepts must fit the worker's journal:
// none negative, none above the journaled cells, and no more stolen
// cells than computed ones.
func FuzzWorkerSummary(f *testing.F) {
	cfg := tinyConfig()
	dir, cells := mergeFixture(f, cfg)
	sp := filepath.Join(dir, "workers", "w1.summary.json")
	valid, err := os.ReadFile(sp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"worker":"w1","computed_cells":6,"stolen_cells":-5}`))
	f.Add([]byte(`{"worker":"w1","computed_cells":1000000}`))
	f.Add([]byte(`{"worker":"w1","computed_cells":2,"stolen_cells":3}`))
	f.Add([]byte(`{"worker":"w1","computed_cells":6,"resumed_cells":6}`))
	f.Add([]byte(`{"failed_cells":-1}`))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(sp, data, 0o644); err != nil {
			t.Skip()
		}
		res, err := Merge(dir, 5, cfg)
		if err != nil {
			return
		}
		s := res.Summary
		for _, w := range s.Workers {
			if w.ComputedCells < 0 || w.ComputedCells > w.JournaledCells || w.StolenCells < 0 ||
				w.StolenCells > w.ComputedCells || w.FailedCells < 0 || w.FailedCells > w.JournaledCells {
				t.Fatalf("accepted worker counts %+v", w)
			}
		}
		if s.StolenCells < 0 || s.StolenCells > cells {
			t.Fatalf("manifest stolen_cells %d outside [0, %d]", s.StolenCells, cells)
		}
	})
}

// TestImpossibleSummaryIsRefused pins the typed error for summary
// counts that cannot describe the worker's journal.
func TestImpossibleSummaryIsRefused(t *testing.T) {
	cfg := tinyConfig()
	dir, cells := mergeFixture(t, cfg)
	sp := filepath.Join(dir, "workers", "w1.summary.json")
	for _, tc := range []struct {
		body, field string
	}{
		{`{"computed_cells":6,"stolen_cells":-5}`, "stolen_cells"},
		{`{"computed_cells":7}`, "computed_cells"},
		{`{"computed_cells":2,"stolen_cells":3}`, "stolen_cells"},
		{`{"computed_cells":6,"resumed_cells":1}`, "resumed_cells"},
		{`{"failed_cells":-1}`, "failed_cells"},
	} {
		if err := os.WriteFile(sp, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var se *SummaryError
		if _, err := Merge(dir, 5, cfg); !errors.As(err, &se) || se.Field != tc.field || se.Journaled != cells {
			t.Errorf("%s: Merge err = %v, want a *SummaryError on %s", tc.body, err, tc.field)
		}
	}
}

// FuzzLease throws arbitrary bytes at a cell's lease file, which every
// worker reads before claiming the cell. tryClaim must never panic. A
// live lease, however garbled, is never taken over or counted as a
// steal; a done marker is never recomputed; a lease left stale by its
// holder is taken over and counted once.
func FuzzLease(f *testing.F) {
	f.Add([]byte(`{"worker":"w2","pid":7,"state":"claimed"}`), false)
	f.Add([]byte(`{"worker":"w2","pid":7,"state":"claimed"}`), true)
	f.Add([]byte(`{"worker":"w2","pid":7,"state":"done"}`), true)
	f.Add([]byte(`{"state":"claimed"`), false)
	f.Add([]byte(`{"state":"claimed"`), true)
	f.Add([]byte(``), true)
	f.Add([]byte(`[1,2,3]`), false)
	f.Add([]byte(`{"pid":"x","state":7}`), true)

	c := journal.CellKey{Drop: 1, Scheme: "proposed"}
	f.Fuzz(func(t *testing.T, data []byte, stale bool) {
		dir := t.TempDir()
		lp := leasePath(dir, c)
		if err := os.MkdirAll(filepath.Dir(lp), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if stale {
			old := time.Now().Add(-time.Hour)
			if err := os.Chtimes(lp, old, old); err != nil {
				t.Fatal(err)
			}
		}
		done := readLease(lp).State == leaseDone
		w := &Worker{Dir: dir, ID: "w1", TTL: time.Minute}
		status, stolen, err := w.tryClaim(c)
		switch {
		case err != nil:
			t.Fatalf("tryClaim: %v", err)
		case done:
			if status != claimDone || stolen {
				t.Fatalf("done marker: status %v stolen %v, want done and no steal", status, stolen)
			}
		case !stale:
			if status != claimHeld || stolen {
				t.Fatalf("live lease: status %v stolen %v, want held and no steal", status, stolen)
			}
		default:
			if status != claimAcquired || !stolen || readLease(lp).Worker != w.ID {
				t.Fatalf("stale lease: status %v stolen %v holder %q, want acquired, stolen, w1",
					status, stolen, readLease(lp).Worker)
			}
		}
	})
}
