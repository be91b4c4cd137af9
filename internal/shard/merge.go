package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mmwalign/internal/experiment"
	"mmwalign/internal/journal"
	"mmwalign/internal/obs"
)

// MergeResult is the outcome of folding a shard directory's worker
// journals into one figure-ready journal.
type MergeResult struct {
	// JournalPath is the merged journal (dir/merged.journal): a normal
	// single-process checkpoint containing every recovered cell, which
	// the experiment engine resume-skips — so the aggregation path of a
	// merged run is byte-for-byte the aggregation path of an
	// uninterrupted one.
	JournalPath string
	// Summary is the shard evidence for the run manifest.
	Summary *obs.ShardSummary
}

// Merge folds every worker journal under dir into dir/merged.journal,
// resolving duplicate cells last-write-wins across journals (sorted
// filename order, then file order within a journal — deterministic).
// Duplicates are required to be byte-identical: cells are pure
// functions of (seed, drop, scheme), so differing bytes for one cell
// mean two workers ran different configurations (or a determinism bug)
// and the merge refuses rather than pick silently.
//
// Merge is read-only toward the worker journals (no owner lock taken),
// so it may run while stragglers are still finishing; an incomplete
// grid simply merges fewer cells and the figure run computes the rest
// in-process.
func Merge(dir string, figure int, cfg experiment.Config) (*MergeResult, error) {
	rc, want, err := runHeader(figure, cfg)
	if err != nil {
		return nil, err
	}
	hdr, err := ReadDirHeader(dir)
	if err != nil {
		return nil, err
	}
	if err := hdr.check(filepath.Join(dir, "shard.json"), want); err != nil {
		return nil, err
	}

	paths, err := filepath.Glob(filepath.Join(dir, "journals", "*.journal"))
	if err != nil {
		return nil, fmt.Errorf("shard: listing journals: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("shard: no worker journals under %s", dir)
	}
	sort.Strings(paths)

	merged := make(map[journal.CellKey]struct {
		payload []byte
		worker  string
	})
	summary := &obs.ShardSummary{
		Dir:        dir,
		TotalCells: rc.Drops * len(rc.Schemes),
	}
	journaledTotal := 0
	for _, p := range paths {
		worker := strings.TrimSuffix(filepath.Base(p), ".journal")
		// A torn tail (the killed worker's signature: a record that died
		// mid-write) is dropped by Load, exactly as a resume would drop
		// it — the cell's lease went stale and a survivor recomputed it.
		jh, cells, _, err := journal.Load(p)
		if err != nil {
			return nil, fmt.Errorf("shard: loading %s: %w", p, err)
		}
		if jh.Figure != want.Figure || jh.ConfigHash != want.ConfigHash {
			return nil, fmt.Errorf("shard: journal %s holds %s/%.12s…, want %s/%.12s…",
				p, jh.Figure, jh.ConfigHash, want.Figure, want.ConfigHash)
		}
		for key, payload := range cells {
			if prev, dup := merged[key]; dup {
				summary.DuplicateCells++
				if !bytes.Equal(prev.payload, payload) {
					return nil, fmt.Errorf("shard: drop %d scheme %s has byte-differing payloads in journals of %s and %s — determinism violation, refusing to merge",
						key.Drop, key.Scheme, prev.worker, worker)
				}
			}
			// Last-write-wins in sorted-journal order; duplicates are
			// byte-identical (just verified), so the winner is academic.
			merged[key] = struct {
				payload []byte
				worker  string
			}{payload, worker}
		}
		ws := obs.ShardWorker{Worker: worker, JournaledCells: len(cells)}
		journaledTotal += len(cells)
		if rep, err := readWorkerSummary(dir, worker); err != nil {
			return nil, err
		} else if rep != nil {
			if err := rep.check(worker, len(cells)); err != nil {
				return nil, err
			}
			ws.ComputedCells = rep.ComputedCells
			ws.StolenCells = rep.StolenCells
			ws.FailedCells = rep.FailedCells
			ws.Reported = true
			summary.StolenCells += rep.StolenCells
		}
		summary.Workers = append(summary.Workers, ws)
	}
	summary.MergedCells = len(merged)
	if journaledTotal != summary.MergedCells+summary.DuplicateCells {
		return nil, fmt.Errorf("shard: internal accounting error: %d journaled != %d merged + %d duplicates",
			journaledTotal, summary.MergedCells, summary.DuplicateCells)
	}

	// Write the merged journal in deterministic grid order. It is a
	// plain single-process checkpoint: the figure run opens it with the
	// usual config-hash validation and resume-skips every merged cell.
	jhdr, err := experiment.JournalHeader(figure, cfg)
	if err != nil {
		return nil, err
	}
	jhdr.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	mpath := filepath.Join(dir, "merged.journal")
	os.Remove(mpath) // a re-merge replaces the previous result
	mj, err := journal.Create(mpath, jhdr)
	if err != nil {
		return nil, err
	}
	for _, c := range grid(rc.Drops, rc.Schemes) {
		m, ok := merged[c]
		if !ok {
			continue
		}
		if err := mj.Record(c.Drop, c.Scheme, m.payload); err != nil {
			mj.Close()
			return nil, err
		}
	}
	if err := mj.Close(); err != nil {
		return nil, fmt.Errorf("shard: closing %s: %w", mpath, err)
	}
	return &MergeResult{JournalPath: mpath, Summary: summary}, nil
}

// readWorkerSummary loads workers/<id>.summary.json, nil when the
// worker never reported (killed before finishing).
func readWorkerSummary(dir, worker string) (*WorkerSummary, error) {
	data, err := os.ReadFile(filepath.Join(dir, "workers", worker+".summary.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading summary of worker %s: %w", worker, err)
	}
	var s WorkerSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("shard: parsing summary of worker %s: %w", worker, err)
	}
	return &s, nil
}

// SummaryError reports a worker summary whose counts no run of the
// worker could have written for its journal: a negative count, more
// computed or resumed cells than the journal holds, or more stolen
// cells than computed ones.
type SummaryError struct {
	// Worker names the summary; Field is the offending count's JSON
	// name, Count its value and Max the largest value it could take.
	Worker, Field string
	Count, Max    int
	// Journaled is how many cells the worker's journal holds.
	Journaled int
}

func (e *SummaryError) Error() string {
	return fmt.Sprintf("shard: summary of worker %s reports %s %d, outside [0, %d] for a journal of %d cells",
		e.Worker, e.Field, e.Count, e.Max, e.Journaled)
}

// check refuses a summary whose counts cannot describe a journal of
// journaled cells. Merge copies the counts into the run manifest, so a
// tampered or corrupt summary must not reach it.
func (s *WorkerSummary) check(worker string, journaled int) error {
	for _, c := range []struct {
		field  string
		n, max int
	}{
		{"computed_cells", s.ComputedCells, journaled},
		{"resumed_cells", s.ResumedCells, journaled - s.ComputedCells},
		{"stolen_cells", s.StolenCells, s.ComputedCells},
		{"failed_cells", s.FailedCells, journaled},
	} {
		if c.n < 0 || c.n > c.max {
			return &SummaryError{Worker: worker, Field: c.field, Count: c.n, Max: c.max, Journaled: journaled}
		}
	}
	return nil
}
