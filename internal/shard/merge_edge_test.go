package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmwalign/internal/experiment"
	"mmwalign/internal/journal"
)

// TestMergeDuplicateOnlyJournal: a journal whose every cell duplicates
// another journal byte for byte must merge cleanly — byte-identical
// duplicates are the normal signature of a stolen-then-recomputed cell,
// never grounds for refusal. The duplicate copies must all land in the
// DuplicateCells accounting and leave the merged figure untouched.
func TestMergeDuplicateOnlyJournal(t *testing.T) {
	cfg := tinyConfig()
	clean, err := experiment.GenerateContext(context.Background(), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w := &Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg, TTL: time.Second}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker run: %v", err)
	}
	// A second "worker" whose journal is a byte-for-byte copy of the
	// first: 100% duplicates, 0 fresh cells.
	src, err := os.ReadFile(filepath.Join(dir, "journals", "w1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journals", "w2.journal"), src, 0o644); err != nil {
		t.Fatal(err)
	}

	fig, res := mergedFigure(t, dir, 5, cfg)
	s := res.Summary
	if s.MergedCells != 6 || s.DuplicateCells != 6 {
		t.Errorf("summary = %+v, want 6 merged + 6 duplicates", s)
	}
	journaled := 0
	for _, ws := range s.Workers {
		journaled += ws.JournaledCells
		if ws.Worker == "w2" {
			if ws.JournaledCells != 6 || ws.Reported {
				t.Errorf("copied journal's worker evidence = %+v, want 6 journaled, unreported", ws)
			}
		}
	}
	if journaled != s.MergedCells+s.DuplicateCells {
		t.Errorf("Σ journaled %d != merged %d + duplicates %d", journaled, s.MergedCells, s.DuplicateCells)
	}
	if !bytes.Equal(figureCSV(t, fig), figureCSV(t, clean)) {
		t.Error("duplicate-only merge changed the figure CSV")
	}
}

// TestMergeEmptyHeaderedJournal: a journal holding a valid header and
// zero cells — a worker killed before its first Record, or one that
// found every lease already taken — must merge without error and count
// zero toward everything.
func TestMergeEmptyHeaderedJournal(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		t.Fatal(err)
	}
	hdr, err := experiment.JournalHeader(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Create(filepath.Join(dir, "journals", "idle.journal"), hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Merge(dir, 5, cfg)
	if err != nil {
		t.Fatalf("Merge refused an empty-but-headered journal: %v", err)
	}
	s := res.Summary
	if s.MergedCells != 0 || s.DuplicateCells != 0 {
		t.Errorf("summary = %+v, want 0 merged, 0 duplicates", s)
	}
	if len(s.Workers) != 1 || s.Workers[0].JournaledCells != 0 || s.Workers[0].Reported {
		t.Errorf("worker evidence = %+v, want one unreported worker with 0 journaled cells", s.Workers)
	}
	// The merged journal itself must be a valid, loadable, cell-free
	// checkpoint — not a missing or torn file.
	_, cells, _, err := journal.Load(res.JournalPath)
	if err != nil {
		t.Fatalf("loading merged journal: %v", err)
	}
	if len(cells) != 0 {
		t.Errorf("merged journal holds %d cells, want 0", len(cells))
	}
}

// TestMergeAccountingInvariant: across a mixed fleet — partial journals
// with overlap, plus an idle empty one — the summary must tie out:
// Σ JournaledCells over workers == MergedCells + DuplicateCells.
func TestMergeAccountingInvariant(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		t.Fatal(err)
	}
	hdr, err := experiment.JournalHeader(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		drop    int
		scheme  string
		payload string
	}
	// Merge never interprets payloads, so synthetic ones exercise the
	// accounting without the cost of real cells. Cell (1, random) appears
	// in both a and b with identical bytes.
	journals := map[string][]cell{
		"a":    {{0, "random", `{"v":1}`}, {0, "proposed", `{"v":2}`}, {1, "random", `{"v":3}`}},
		"b":    {{1, "random", `{"v":3}`}, {1, "proposed", `{"v":4}`}, {2, "random", `{"v":5}`}},
		"idle": nil,
	}
	for name, cells := range journals {
		jnl, err := journal.Create(filepath.Join(dir, "journals", name+".journal"), hdr)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if err := jnl.Record(c.drop, c.scheme, json.RawMessage(c.payload)); err != nil {
				t.Fatal(err)
			}
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
	}

	res, err := Merge(dir, 5, cfg)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	s := res.Summary
	if s.MergedCells != 5 || s.DuplicateCells != 1 {
		t.Errorf("summary = %+v, want 5 merged + 1 duplicate", s)
	}
	journaled := 0
	perWorker := map[string]int{}
	for _, ws := range s.Workers {
		journaled += ws.JournaledCells
		perWorker[ws.Worker] = ws.JournaledCells
	}
	if journaled != s.MergedCells+s.DuplicateCells {
		t.Errorf("Σ journaled %d != merged %d + duplicates %d", journaled, s.MergedCells, s.DuplicateCells)
	}
	if perWorker["a"] != 3 || perWorker["b"] != 3 || perWorker["idle"] != 0 {
		t.Errorf("per-worker journaled cells = %v, want a=3 b=3 idle=0", perWorker)
	}
}

// TestMergeDuplicateRefusalIsByteExact pins the refusal boundary from
// both sides in one directory: byte-identical duplicates are accepted
// however many times they recur, and the moment one journal's copy of a
// cell differs by a single byte the merge refuses with the determinism
// diagnostic — it must never silently pick a winner.
func TestMergeDuplicateRefusalIsByteExact(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		t.Fatal(err)
	}
	hdr, err := experiment.JournalHeader(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name, payload string) {
		t.Helper()
		jnl, err := journal.Create(filepath.Join(dir, "journals", name+".journal"), hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Record(0, "random", json.RawMessage(payload)); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("a", `{"v":1}`)
	write("b", `{"v":1}`)
	write("c", `{"v":1}`)

	res, err := Merge(dir, 5, cfg)
	if err != nil {
		t.Fatalf("Merge refused byte-identical triplicate payloads: %v", err)
	}
	if res.Summary.MergedCells != 1 || res.Summary.DuplicateCells != 2 {
		t.Errorf("summary = %+v, want 1 merged + 2 duplicates", res.Summary)
	}

	// One byte of drift in a fourth copy flips the merge to refusal.
	write("d", `{"v":2}`)
	if _, err := Merge(dir, 5, cfg); err == nil {
		t.Error("Merge accepted a byte-differing duplicate payload")
	} else if !strings.Contains(err.Error(), "determinism violation") {
		t.Errorf("refusal error = %v, want the determinism-violation diagnostic", err)
	}
}
