package experiment

import (
	"context"
	"path/filepath"
	"testing"
)

// TestComputeCellMatchesSweepPayloads is the shard engine's foundation:
// a cell computed in isolation through ComputeCell must journal the
// exact bytes an in-process sweep records for the same (drop, scheme) —
// otherwise a merged sharded run could not be byte-identical to a
// single-process one.
func TestComputeCellMatchesSweepPayloads(t *testing.T) {
	cfg := tinyConfig(false)
	path := filepath.Join(t.TempDir(), "fig5.journal")
	jcfg := cfg
	jcfg.Journal = openTestJournal(t, path, cfg, false)
	if _, err := GenerateContext(context.Background(), 5, jcfg); err != nil {
		t.Fatal(err)
	}

	rc, _, err := ConfigForFigure(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for drop := 0; drop < rc.Drops; drop++ {
		for _, scheme := range rc.Schemes {
			want, ok := jcfg.Journal.Lookup(drop, scheme)
			if !ok {
				t.Fatalf("sweep did not journal cell (%d, %s)", drop, scheme)
			}
			got, attempts, err := ComputeCell(context.Background(), 5, cfg, drop, scheme)
			if err != nil {
				t.Fatalf("ComputeCell(%d, %s): %v", drop, scheme, err)
			}
			if attempts != 1 {
				t.Errorf("ComputeCell(%d, %s) attempts = %d, want 1", drop, scheme, attempts)
			}
			if string(got) != string(want) {
				t.Errorf("ComputeCell(%d, %s) payload differs from sweep journal:\n got %s\nwant %s", drop, scheme, got, want)
			}
		}
	}
}

func TestComputeCellRejectsUnknownFigure(t *testing.T) {
	if _, _, err := ComputeCell(context.Background(), 4, tinyConfig(false), 0, "random"); err == nil {
		t.Error("figure 4 accepted")
	}
}

func TestCellBudgetMatchesSweep(t *testing.T) {
	cfg := tinyConfig(false)
	// tinyConfig: books 4×2 TX, 4×4 RX → T = 128; max rate 0.3 → ceil(38.4) = 39.
	if got := cfg.CellBudget(); got != 39 {
		t.Errorf("CellBudget = %d, want 39", got)
	}
}
