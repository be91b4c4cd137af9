package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mmwalign/internal/experiment"
	"mmwalign/internal/journal"
	"mmwalign/internal/metrics"
)

// tinyConfig is a grid small enough for -race chaos runs: 3 drops × 2
// schemes = 6 cells.
func tinyConfig() experiment.Config {
	return experiment.Config{
		Seed:  42,
		Drops: 3,
		TXx:   2, TXz: 2, RXx: 4, RXz: 4,
		TXBookAz: 4, TXBookEl: 2, RXBookAz: 4, RXBookEl: 4,
		Snapshots:   4,
		J:           4,
		SearchRates: []float64{0.1, 0.2, 0.3},
		TargetsDB:   []float64{1, 3},
		Schemes:     []string{"random", "proposed"},
	}
}

// figureCSV renders a figure's CSV bytes — the byte-identity unit of
// comparison.
func figureCSV(t *testing.T, fig experiment.Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteCSV(&buf, fig.XLabel, fig.Series); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mergedFigure merges dir and regenerates the figure from the merged
// journal, returning the figure and the merge result.
func mergedFigure(t *testing.T, dir string, figure int, cfg experiment.Config) (experiment.Figure, *MergeResult) {
	t.Helper()
	res, err := Merge(dir, figure, cfg)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	hdr, err := experiment.JournalHeader(figure, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(res.JournalPath, hdr)
	if err != nil {
		t.Fatalf("opening merged journal: %v", err)
	}
	defer jnl.Close()
	mcfg := cfg
	mcfg.Journal = jnl
	fig, err := experiment.GenerateContext(context.Background(), figure, mcfg)
	if err != nil {
		t.Fatalf("generating from merged journal: %v", err)
	}
	return fig, res
}

func TestSingleWorkerByteIdentity(t *testing.T) {
	cfg := tinyConfig()
	clean, err := experiment.GenerateContext(context.Background(), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w := &Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg, TTL: 2 * time.Second}
	sum, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("worker run: %v", err)
	}
	if !sum.Complete || sum.ComputedCells != 6 || sum.StolenCells != 0 {
		t.Fatalf("summary = %+v, want 6 computed, 0 stolen, complete", sum)
	}

	fig, res := mergedFigure(t, dir, 5, cfg)
	if !bytes.Equal(figureCSV(t, fig), figureCSV(t, clean)) {
		t.Error("single-worker sharded CSV differs from single-process run")
	}
	s := res.Summary
	if s.TotalCells != 6 || s.MergedCells != 6 || s.DuplicateCells != 0 || s.StolenCells != 0 {
		t.Errorf("merge summary = %+v", s)
	}
	if len(s.Workers) != 1 || !s.Workers[0].Reported || s.Workers[0].JournaledCells != 6 {
		t.Errorf("worker evidence = %+v", s.Workers)
	}
	// The merged manifest path: figure runs fed a journal carry resume
	// evidence; the shard summary is attached by the CLI layer.
	if fig.Manifest == nil || fig.Manifest.Resume == nil || fig.Manifest.Resume.SkippedCells != 6 {
		t.Errorf("merged run did not resume-skip every cell: %+v", fig.Manifest.Resume)
	}
}

func TestThreeWorkersConcurrentByteIdentity(t *testing.T) {
	cfg := tinyConfig()
	cfg.Drops = 4 // 8 cells across 3 workers
	clean, err := experiment.GenerateContext(context.Background(), 6, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	type out struct {
		sum *WorkerSummary
		err error
	}
	results := make(chan out, 3)
	for _, id := range []string{"w1", "w2", "w3"} {
		w := &Worker{Dir: dir, ID: id, Figure: 6, Config: cfg, TTL: 2 * time.Second}
		go func() {
			sum, err := w.Run(context.Background())
			results <- out{sum, err}
		}()
	}
	computed := 0
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("worker: %v", r.err)
		}
		if !r.sum.Complete {
			t.Errorf("worker %s exited incomplete: %+v", r.sum.Worker, r.sum)
		}
		computed += r.sum.ComputedCells
	}
	if computed < 8 {
		t.Fatalf("workers computed %d cells, want >= 8", computed)
	}

	fig, res := mergedFigure(t, dir, 6, cfg)
	if !bytes.Equal(figureCSV(t, fig), figureCSV(t, clean)) {
		t.Error("3-worker sharded CSV differs from single-process run")
	}
	if res.Summary.MergedCells != 8 {
		t.Errorf("merged %d cells, want 8", res.Summary.MergedCells)
	}
	// Any duplicates must have been byte-identical or Merge would have
	// refused; the accounting ties out either way.
	if computed != res.Summary.MergedCells+res.Summary.DuplicateCells {
		t.Errorf("computed %d != merged %d + duplicates %d",
			computed, res.Summary.MergedCells, res.Summary.DuplicateCells)
	}
}

// TestKilledWorkerCellsStolenByteIdentity is the in-repo chaos proof:
// a "killed" worker is simulated by running a MaxCells-limited victim
// and then reconstructing, by hand, the exact on-disk states a SIGKILL
// leaves behind — both kill windows — before survivors sweep the rest.
//
//	window 1: killed mid-compute  → claimed lease, stale mtime, no record
//	window 2: killed after Record → journaled cell, lease claimed + stale
//
// Survivors must steal both leases, the window-2 cell must surface as
// a byte-identical duplicate at merge, and the merged CSV must equal
// the single-process run byte for byte.
func TestKilledWorkerCellsStolenByteIdentity(t *testing.T) {
	cfg := tinyConfig()
	clean, err := experiment.GenerateContext(context.Background(), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	victim := &Worker{Dir: dir, ID: "victim", Figure: 5, Config: cfg, TTL: 300 * time.Millisecond, MaxCells: 3}
	vsum, err := victim.Run(context.Background())
	if err != nil {
		t.Fatalf("victim run: %v", err)
	}
	if vsum.Complete || vsum.ComputedCells != 3 {
		t.Fatalf("victim summary = %+v, want 3 computed, incomplete", vsum)
	}
	// A killed worker never writes its summary.
	if err := os.Remove(filepath.Join(dir, "workers", "victim.summary.json")); err != nil {
		t.Fatal(err)
	}

	// Window 2: one of the victim's journaled cells loses its done
	// marker — as if the kill landed between the journal fsync and the
	// rename. Its lease is claimed and stale.
	hdr, err := ReadDirHeader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var window2 journal.CellKey
	found := false
	_, cells, _, err := journal.Load(filepath.Join(dir, "journals", "victim.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for key := range cells {
		window2, found = key, true
		break
	}
	if !found {
		t.Fatal("victim journaled no cells")
	}
	stale := time.Now().Add(-time.Minute)
	claimed, _ := json.Marshal(leaseInfo{Worker: "victim", PID: 999999, State: leaseClaimed})
	if err := os.WriteFile(leasePath(dir, window2), claimed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(leasePath(dir, window2), stale, stale); err != nil {
		t.Fatal(err)
	}

	// Window 1: a pending cell carries the victim's claimed, stale
	// lease and no journal record — as if the kill landed mid-compute.
	var window1 journal.CellKey
	found = false
	for _, c := range grid(hdr.Drops, hdr.Schemes) {
		if _, ok := cells[c]; !ok {
			if li := readLease(leasePath(dir, c)); li.State != leaseDone {
				window1, found = c, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no pending cell left for the window-1 lease")
	}
	if err := os.WriteFile(leasePath(dir, window1), claimed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(leasePath(dir, window1), stale, stale); err != nil {
		t.Fatal(err)
	}

	// Two survivors sweep concurrently with a short TTL.
	type out struct {
		sum *WorkerSummary
		err error
	}
	results := make(chan out, 2)
	for _, id := range []string{"s1", "s2"} {
		w := &Worker{Dir: dir, ID: id, Figure: 5, Config: cfg, TTL: 300 * time.Millisecond}
		go func() {
			sum, err := w.Run(context.Background())
			results <- out{sum, err}
		}()
	}
	stolen := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("survivor: %v", r.err)
		}
		if !r.sum.Complete {
			t.Errorf("survivor %s exited incomplete: %+v", r.sum.Worker, r.sum)
		}
		stolen += r.sum.StolenCells
	}
	if stolen < 2 {
		t.Errorf("survivors stole %d leases, want >= 2 (both kill windows)", stolen)
	}

	fig, res := mergedFigure(t, dir, 5, cfg)
	if !bytes.Equal(figureCSV(t, fig), figureCSV(t, clean)) {
		t.Error("post-kill merged CSV differs from single-process run")
	}
	s := res.Summary
	if s.MergedCells != 6 {
		t.Errorf("merged %d of 6 cells", s.MergedCells)
	}
	if s.StolenCells < 2 {
		t.Errorf("merge summary stolen = %d, want >= 2", s.StolenCells)
	}
	if s.DuplicateCells < 1 {
		t.Errorf("merge summary duplicates = %d, want >= 1 (the window-2 recompute)", s.DuplicateCells)
	}
	reported := map[string]bool{}
	for _, w := range s.Workers {
		reported[w.Worker] = w.Reported
	}
	if reported["victim"] {
		t.Error("killed victim shows Reported=true")
	}
	if !reported["s1"] || !reported["s2"] {
		t.Errorf("survivors not reported: %+v", s.Workers)
	}
}

// TestWorkerRestartResumesOwnJournal: a worker that dies after
// journaling and restarts under the same ID re-marks its own cells
// done instead of recomputing them.
func TestWorkerRestartResumesOwnJournal(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	first := &Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg, TTL: time.Second, MaxCells: 2}
	if _, err := first.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Strip the done markers, as a kill between Record and markDone
	// would for every in-flight cell.
	leases, err := filepath.Glob(filepath.Join(dir, "leases", "*.lease"))
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range leases {
		if err := os.Remove(lp); err != nil {
			t.Fatal(err)
		}
	}

	second := &Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg, TTL: time.Second}
	sum, err := second.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.ResumedCells != 2 {
		t.Errorf("resumed %d cells, want 2", sum.ResumedCells)
	}
	if !sum.Complete || sum.ComputedCells != 4 {
		t.Errorf("summary = %+v, want 4 computed, complete", sum)
	}
}

func TestInitDirRefusesForeignRun(t *testing.T) {
	dir := t.TempDir()
	if _, err := InitDir(dir, 5, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	other := tinyConfig()
	other.Seed = 99
	if _, err := InitDir(dir, 5, other); err == nil {
		t.Error("InitDir accepted a different config in the same directory")
	}
	if _, err := InitDir(dir, 7, tinyConfig()); err == nil {
		t.Error("InitDir accepted a different figure in the same directory")
	}
	if _, err := InitDir(dir, 5, tinyConfig()); err != nil {
		t.Errorf("InitDir refused the matching run: %v", err)
	}
}

func TestWorkerRejectsBadID(t *testing.T) {
	for _, id := range []string{"", "a/b", "..", ".hidden", "x y", "too" + string(make([]byte, 80))} {
		w := &Worker{Dir: t.TempDir(), ID: id, Figure: 5, Config: tinyConfig()}
		if _, err := w.Run(context.Background()); err == nil {
			t.Errorf("ID %q accepted", id)
		}
	}
}

func TestDuplicateWorkerIDRefused(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		t.Fatal(err)
	}
	// Hold the journal lock as a live first instance would.
	hdr, err := experiment.JournalHeader(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Create(filepath.Join(dir, "journals", "w1.journal"), hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()

	w := &Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg, TTL: time.Second}
	var le *journal.LockedError
	if _, err := w.Run(context.Background()); err == nil {
		t.Error("second live worker under the same ID accepted")
	} else if !errors.As(err, &le) {
		t.Errorf("duplicate-ID error = %v, want *journal.LockedError", err)
	}
}

func TestMergeRefusesByteDifferingDuplicates(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		t.Fatal(err)
	}
	hdr, err := experiment.JournalHeader(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, payload := range []string{`{"v":1}`, `{"v":2}`} {
		jnl, err := journal.Create(filepath.Join(dir, "journals", []string{"a", "b"}[i]+".journal"), hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Record(0, "random", json.RawMessage(payload)); err != nil {
			t.Fatal(err)
		}
		jnl.Close()
	}
	if _, err := Merge(dir, 5, cfg); err == nil {
		t.Error("Merge accepted byte-differing duplicate payloads")
	}
}

func TestMergeRefusesForeignConfig(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	w := &Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg, TTL: time.Second, MaxCells: 1}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 1234
	if _, err := Merge(dir, 5, other); err == nil {
		t.Error("Merge accepted a mismatched config")
	}
	if _, err := Merge(dir, 6, cfg); err == nil {
		t.Error("Merge accepted a mismatched figure")
	}
}
