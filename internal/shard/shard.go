// Package shard is the crash-safe multi-process sweep coordinator: N
// figgen worker processes share one directory, claim (drop, scheme)
// cells through crash-tolerant lease files, append completions to
// per-worker journals (each protected by the journal's single-writer
// owner lock), and a merge step folds the shard journals into one
// figure whose CSV and trajectory bytes are identical to an
// uninterrupted single-process run.
//
// The byte-identity guarantee rests on one property the experiment
// engine already proves in its own tests: a cell is a pure function of
// (seed, drop, scheme). Leases are therefore work-avoidance, not
// correctness — a lost, stolen, or double-claimed lease at worst makes
// two workers compute the same cell, and the duplicates are
// byte-identical, so last-write-wins merging cannot perturb the
// figure.
//
// Shared-directory protocol (all files under the shard dir):
//
//	shard.json                    run identity: figure + canonical config hash
//	leases/<drop>.<scheme>.lease  claim state machine (see below)
//	journals/<worker>.journal     per-worker completion journal (locked)
//	workers/<worker>.summary.json final per-worker tally (absent ⇒ killed)
//
// Lease state machine per cell:
//
//	absent ──O_CREATE|O_EXCL──▶ claimed ──temp+rename──▶ done
//	                              │ ▲
//	             mtime older than TTL (holder dead or wedged)
//	                              ▼ │
//	             set aside (renamed to a tombstone) + re-claimed
//
// A claimed lease is kept alive by its holder refreshing the file
// mtime (heartbeat) every TTL/3; a SIGKILLed worker stops heartbeating
// and its leases go stale after TTL, at which point survivors steal
// them. Exactly one claimant wins the O_EXCL re-claim and counts the
// steal by removing the tombstone; the set-aside/re-create window can,
// rarely, let two workers compute the same cell — accepted per the
// purity argument above. Done-marking happens only
// after the cell is fsynced to the worker's journal, so a done lease
// always has journal bytes behind it; the converse kill window
// (journaled but not done-marked) surfaces as a stolen, recomputed,
// byte-identical duplicate that the merge resolves and counts.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mmwalign/internal/experiment"
	"mmwalign/internal/journal"
)

// DirSchema identifies the shard-directory layout; bump on breaking
// changes so stale directories are refused instead of misread.
const DirSchema = "mmwalign/shard/v1"

// DirHeader is the shard directory's identity record (shard.json): the
// first worker writes it, every later worker and the merge validate
// against it, so two differently-configured runs can never share a
// directory unnoticed.
type DirHeader struct {
	// Schema is DirSchema.
	Schema string `json:"schema"`
	// Figure is the figure identifier ("fig5".."fig8").
	Figure string `json:"figure"`
	// ConfigHash is the canonical experiment config hash every worker
	// must match (experiment.Config.CanonicalHash).
	ConfigHash string `json:"config_hash"`
	// Seed, Drops and Schemes restate the run shape for inspection.
	Seed    int64    `json:"seed"`
	Drops   int      `json:"drops"`
	Schemes []string `json:"schemes,omitempty"`
	// CreatedAt is the RFC 3339 UTC creation timestamp (informational).
	CreatedAt string `json:"created_at,omitempty"`
}

// WorkerSummary is one worker's final self-report
// (workers/<id>.summary.json), written atomically on clean exit. A
// worker that was killed never writes one — its absence is the
// manifest's evidence of the kill.
type WorkerSummary struct {
	// Worker is the worker ID; PID the process that ran it.
	Worker string `json:"worker"`
	PID    int    `json:"pid"`
	// ComputedCells is how many cells this worker computed and
	// journaled; StolenCells how many of those were reclaimed from a
	// stale lease; ResumedCells how many were already in its own
	// journal at startup (a restarted worker).
	ComputedCells int `json:"computed_cells"`
	StolenCells   int `json:"stolen_cells"`
	ResumedCells  int `json:"resumed_cells"`
	// FailedCells counts cells the worker attempted and could not
	// complete (at most 1: a post-retry failure aborts the worker,
	// since cells are deterministic and every other worker would fail
	// the same way).
	FailedCells int `json:"failed_cells"`
	// Complete reports whether the worker observed every cell of the
	// grid done before exiting (false for a MaxCells-limited run).
	Complete bool `json:"complete"`
	// FinishedAt is the RFC 3339 UTC exit timestamp.
	FinishedAt string `json:"finished_at,omitempty"`
}

// Worker is one shard worker process's view of the run.
type Worker struct {
	// Dir is the shared shard directory (created if absent).
	Dir string
	// ID names this worker: its journal and summary file basenames.
	// Must be a portable filename fragment (letters, digits, ., _, -).
	ID string
	// Figure is the paper figure number (5–8).
	Figure int
	// Config is the experiment configuration; every worker of a shard
	// must use configs with equal canonical hashes.
	Config experiment.Config
	// TTL is the lease time-to-live: a claimed lease whose mtime is
	// older than TTL is stale and may be stolen. Holders heartbeat at
	// TTL/3. Zero defaults to 10s — set it well above the worst
	// per-cell compute time divided by 3, or livelock-free but wasteful
	// duplicate computation ensues.
	TTL time.Duration
	// MaxCells, when positive, stops the worker after computing that
	// many cells (it exits without waiting for the grid to finish) —
	// an operational knob for bounded work stints and the chaos tests'
	// victim control.
	MaxCells int
	// Log, when non-nil, receives human-readable progress notes.
	Log io.Writer
}

// leaseState is the state field of a lease file.
const (
	leaseClaimed = "claimed"
	leaseDone    = "done"
)

// leaseInfo is the content of a lease file.
type leaseInfo struct {
	Worker string `json:"worker"`
	PID    int    `json:"pid"`
	Host   string `json:"host,omitempty"`
	State  string `json:"state"`
}

// claimStatus is the outcome of one claim attempt.
type claimStatus int

const (
	claimAcquired claimStatus = iota // this worker now holds the lease
	claimDone                        // the cell is already done
	claimHeld                        // another live worker holds a fresh lease
)

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, "shard[%s]: "+format+"\n", append([]any{w.ID}, args...)...)
	}
}

// validID reports whether id is safe as a filename fragment.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return id[0] != '.'
}

// tmpSeq disambiguates temp-file names within one process: PID alone
// collides when two workers share a process (as the tests' goroutine
// workers do), and a collision lets one writer unlink the temp file
// out from under the other.
var tmpSeq atomic.Int64

// writeFileAtomic writes data at path via a temp file and rename, so
// readers never observe a torn file.
func writeFileAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpSeq.Add(1))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// createExclusive links data into place at path only if nothing exists
// there yet; fs.ErrExist reports a loser of the creation race.
func createExclusive(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpSeq.Add(1))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	linkErr := os.Link(tmp, path)
	os.Remove(tmp)
	return linkErr
}

// runHeader resolves the figure config exactly as the sweep runs it,
// and the shard.json identity of that run.
func runHeader(figure int, cfg experiment.Config) (experiment.Config, DirHeader, error) {
	rc, figID, err := experiment.ConfigForFigure(figure, cfg)
	if err != nil {
		return experiment.Config{}, DirHeader{}, err
	}
	return rc, DirHeader{
		Schema:     DirSchema,
		Figure:     figID,
		ConfigHash: rc.CanonicalHash(),
		Seed:       rc.Seed,
		Drops:      rc.Drops,
		Schemes:    append([]string(nil), rc.Schemes...),
	}, nil
}

// HeaderMismatchError reports a shard.json that does not belong to the
// run reading it: another schema, figure or config hash, or a restated
// run shape (seed, drops, schemes) other than the one the hash commits
// to. Workers and the merge build their cell grid from the run config,
// so a disagreeing shape is as foreign as another hash.
type HeaderMismatchError struct {
	// Path is the shard.json file; Got is its header, Want the run's.
	Path      string
	Got, Want DirHeader
}

func (e *HeaderMismatchError) Error() string {
	g, w := e.Got, e.Want
	return fmt.Sprintf("shard: %s holds %s %s/%.12s… (seed %d, %d drops, schemes %v), this run is %s %s/%.12s… (seed %d, %d drops, schemes %v) — one shard directory per run",
		e.Path, g.Schema, g.Figure, g.ConfigHash, g.Seed, g.Drops, g.Schemes, w.Schema, w.Figure, w.ConfigHash, w.Seed, w.Drops, w.Schemes)
}

// check returns a *HeaderMismatchError unless h is the header of the
// run want describes.
func (h *DirHeader) check(path string, want DirHeader) error {
	if h.Schema != want.Schema || h.Figure != want.Figure || h.ConfigHash != want.ConfigHash ||
		h.Seed != want.Seed || h.Drops != want.Drops || !slices.Equal(h.Schemes, want.Schemes) {
		return &HeaderMismatchError{Path: path, Got: *h, Want: want}
	}
	return nil
}

// InitDir ensures the shard directory exists with the protocol layout
// and a shard.json matching the (figure, config) identity; the first
// caller creates it, later callers validate against it. Mismatched
// identity is a *HeaderMismatchError — a shard directory belongs to
// exactly one run.
func InitDir(dir string, figure int, cfg experiment.Config) (*DirHeader, error) {
	_, want, err := runHeader(figure, cfg)
	if err != nil {
		return nil, err
	}
	for _, sub := range []string{"", "leases", "journals", "workers"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("shard: creating %s: %w", filepath.Join(dir, sub), err)
		}
	}
	want.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	hp := filepath.Join(dir, "shard.json")
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("shard: encoding header: %w", err)
	}
	switch err := createExclusive(hp, data); {
	case err == nil:
		return &want, nil
	case errors.Is(err, fs.ErrExist):
		got, err := ReadDirHeader(dir)
		if err != nil {
			return nil, err
		}
		if err := got.check(hp, want); err != nil {
			return nil, err
		}
		return got, nil
	default:
		return nil, fmt.Errorf("shard: writing %s: %w", hp, err)
	}
}

// ReadDirHeader loads and parses a shard directory's shard.json.
func ReadDirHeader(dir string) (*DirHeader, error) {
	hp := filepath.Join(dir, "shard.json")
	data, err := os.ReadFile(hp)
	if err != nil {
		return nil, fmt.Errorf("shard: reading %s: %w", hp, err)
	}
	var h DirHeader
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("shard: parsing %s: %w", hp, err)
	}
	return &h, nil
}

// leasePath returns the lease file of one cell.
func leasePath(dir string, c journal.CellKey) string {
	return filepath.Join(dir, "leases", fmt.Sprintf("%d.%s.lease", c.Drop, c.Scheme))
}

// readLease parses a lease file. A lease that cannot be read or parsed
// (claim-write in flight, debris) reports an empty leaseInfo and no
// error with ok=false semantics folded into State == "".
func readLease(path string) leaseInfo {
	data, err := os.ReadFile(path)
	if err != nil {
		return leaseInfo{}
	}
	var li leaseInfo
	if json.Unmarshal(data, &li) != nil {
		return leaseInfo{}
	}
	return li
}

// staleSuffix names the tombstone a stale lease is renamed to when a
// stealer sets it aside: lease path + staleSuffix.
const staleSuffix = ".stale"

// testHookStaleSetAside, when non-nil, runs right after tryClaim sets a
// stale lease aside and before it re-creates the lease, so tests can
// let another worker claim the cell in that window.
var testHookStaleSetAside func(lease string)

// tryClaim attempts to take the lease for cell c: fresh claim on an
// absent lease, steal on a stale one. stolen reports a steal.
//
// A stealer renames the stale lease to a tombstone instead of deleting
// it, and whoever wins the O_EXCL re-create removes the tombstone:
// exactly one remove succeeds, so the takeover is counted once, by the
// worker that computes the cell. That holds when another worker's
// first-attempt claim lands between the set-aside and the stealer's
// re-create — counting "attempt > 0" instead would count that steal
// nowhere.
func (w *Worker) tryClaim(c journal.CellKey) (status claimStatus, stolen bool, err error) {
	lp := leasePath(w.Dir, c)
	host, _ := os.Hostname()
	content, merr := json.Marshal(leaseInfo{Worker: w.ID, PID: os.Getpid(), Host: host, State: leaseClaimed})
	if merr != nil {
		return 0, false, fmt.Errorf("shard: encoding lease: %w", merr)
	}
	for attempt := 0; attempt < 2; attempt++ {
		switch err := createExclusive(lp, content); {
		case err == nil:
			return claimAcquired, os.Remove(lp+staleSuffix) == nil, nil
		case !errors.Is(err, fs.ErrExist):
			return 0, false, fmt.Errorf("shard: claiming %s: %w", lp, err)
		}
		li := readLease(lp)
		if li.State == leaseDone {
			return claimDone, false, nil
		}
		st, statErr := os.Stat(lp)
		if statErr != nil {
			// The lease vanished between create and stat: its holder
			// released (compute failure) or a stealer is mid-swap. Retry
			// the claim.
			continue
		}
		if time.Since(st.ModTime()) <= w.TTL {
			return claimHeld, false, nil
		}
		// Stale: the holder stopped heartbeating TTL ago — dead or
		// wedged. Set it aside and re-claim; O_EXCL arbitration means
		// exactly one claimant wins the re-create, and the rare
		// set-aside/re-create interleaving that double-computes a cell
		// is harmless (cells are pure, duplicates merge
		// byte-identically).
		w.logf("stealing stale lease for drop %d scheme %s (held by %s pid %d, idle %s)",
			c.Drop, c.Scheme, li.Worker, li.PID, time.Since(st.ModTime()).Round(time.Millisecond))
		if os.Rename(lp, lp+staleSuffix) == nil && testHookStaleSetAside != nil {
			testHookStaleSetAside(lp)
		}
	}
	return claimHeld, false, nil
}

// markDone atomically flips a cell's lease to the done state. Called
// only after the cell is fsynced to the worker's journal; rename makes
// it total — it also creates the marker when the lease was removed or
// never existed (a restarted worker re-marking its journaled cells).
func (w *Worker) markDone(c journal.CellKey) error {
	host, _ := os.Hostname()
	data, err := json.Marshal(leaseInfo{Worker: w.ID, PID: os.Getpid(), Host: host, State: leaseDone})
	if err != nil {
		return fmt.Errorf("shard: encoding done marker: %w", err)
	}
	if err := writeFileAtomic(leasePath(w.Dir, c), data); err != nil {
		return fmt.Errorf("shard: marking drop %d scheme %s done: %w", c.Drop, c.Scheme, err)
	}
	return nil
}

// heartbeats keeps the worker's held leases fresh: a background
// goroutine refreshing each held lease's mtime every TTL/3, so only a
// dead (or fully wedged) process lets its leases go stale.
type heartbeats struct {
	mu   sync.Mutex
	held map[string]struct{}
}

func (h *heartbeats) add(path string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.held[path] = struct{}{}
}

func (h *heartbeats) remove(path string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.held, path)
}

func (h *heartbeats) beat() {
	h.mu.Lock()
	paths := make([]string, 0, len(h.held))
	for p := range h.held {
		paths = append(paths, p)
	}
	h.mu.Unlock()
	now := time.Now()
	for _, p := range paths {
		// A failed Chtimes (lease stolen out from under a wedged compute)
		// is not an error here: the steal already has a byte-identical
		// recompute in flight.
		os.Chtimes(p, now, now)
	}
}

// grid returns every cell of the run in deterministic drop-major
// order.
func grid(drops int, schemes []string) []journal.CellKey {
	cells := make([]journal.CellKey, 0, drops*len(schemes))
	for d := 0; d < drops; d++ {
		for _, s := range schemes {
			cells = append(cells, journal.CellKey{Drop: d, Scheme: s})
		}
	}
	return cells
}

// idOffset rotates each worker's scan start so N workers racing over
// the same grid mostly claim disjoint cells instead of contending on
// cell 0.
func idOffset(id string, n int) int {
	if n == 0 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h % uint32(n))
}

// Run executes this worker's share of the sweep: claim, compute,
// journal, done-mark, steal stale leases, until every cell of the grid
// is done (or MaxCells is reached). It returns the worker's summary,
// also persisted to workers/<ID>.summary.json. A post-retry cell
// failure aborts the run: cells are deterministic, so every worker
// would fail the same cell the same way and retrying across processes
// cannot help.
func (w *Worker) Run(ctx context.Context) (*WorkerSummary, error) {
	if !validID(w.ID) {
		return nil, fmt.Errorf("shard: worker ID %q must be a portable filename fragment (letters, digits, '.', '_', '-')", w.ID)
	}
	ttl := w.TTL
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	w.TTL = ttl
	rc, _, err := experiment.ConfigForFigure(w.Figure, w.Config)
	if err != nil {
		return nil, err
	}
	if _, err := InitDir(w.Dir, w.Figure, w.Config); err != nil {
		return nil, err
	}

	jhdr, err := experiment.JournalHeader(w.Figure, w.Config)
	if err != nil {
		return nil, err
	}
	jpath := filepath.Join(w.Dir, "journals", w.ID+".journal")
	var jnl *journal.Journal
	if _, statErr := os.Stat(jpath); statErr == nil {
		// A restarted worker resumes its own journal; the owner lock
		// refuses the same ID running twice concurrently, and takes over
		// from a dead predecessor.
		jnl, err = journal.Open(jpath, jhdr)
	} else if errors.Is(statErr, fs.ErrNotExist) {
		jhdr.CreatedAt = time.Now().UTC().Format(time.RFC3339)
		jnl, err = journal.Create(jpath, jhdr)
	} else {
		return nil, fmt.Errorf("shard: stat %s: %w", jpath, statErr)
	}
	if err != nil {
		return nil, err
	}
	defer jnl.Close()

	cells := grid(rc.Drops, rc.Schemes)
	sum := &WorkerSummary{Worker: w.ID, PID: os.Getpid()}

	// Re-mark every cell already in our journal: a predecessor killed
	// between Record and markDone left a journaled cell behind a
	// claimed lease, and re-marking is how its bytes get counted
	// instead of stolen and recomputed.
	for _, c := range cells {
		if _, ok := jnl.Lookup(c.Drop, c.Scheme); ok {
			if err := w.markDone(c); err != nil {
				return nil, err
			}
			sum.ResumedCells++
		}
	}
	if sum.ResumedCells > 0 {
		w.logf("resumed: %d cells already journaled", sum.ResumedCells)
	}

	hb := &heartbeats{held: make(map[string]struct{})}
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				hb.beat()
			}
		}
	}()
	defer func() {
		close(hbStop)
		hbWG.Wait()
	}()

	computeWorkers := w.Config.Workers
	if computeWorkers <= 0 {
		computeWorkers = runtime.GOMAXPROCS(0)
	}
	offset := idOffset(w.ID, len(cells))
	poll := ttl / 4
	if poll > 500*time.Millisecond {
		poll = 500 * time.Millisecond
	}
	if poll <= 0 {
		poll = time.Millisecond
	}

	done := make(map[journal.CellKey]bool, len(cells))
	claims := 0 // cells claimed by this process, MaxCells' budget basis
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// One round: claim every cell we can and compute the claims on a
		// bounded pool. Rounds repeat until the whole grid is done —
		// a worker exits only when no cell remains, so survivors outlive
		// a killed peer's TTL and steal its cells.
		var (
			wg       sync.WaitGroup
			sem      = make(chan struct{}, computeWorkers)
			mu       sync.Mutex // guards sum counters and firstErr
			firstErr error
			pending  int
		)
		roundCtx, cancelRound := context.WithCancel(ctx)
		for i := 0; i < len(cells); i++ {
			c := cells[(i+offset)%len(cells)]
			if done[c] {
				continue
			}
			mu.Lock()
			aborted := firstErr != nil
			mu.Unlock()
			if aborted {
				break
			}
			if w.MaxCells > 0 && claims >= w.MaxCells {
				pending++
				continue
			}
			status, stolen, err := w.tryClaim(c)
			if err != nil {
				cancelRound()
				wg.Wait()
				return nil, err
			}
			switch status {
			case claimDone:
				done[c] = true
				continue
			case claimHeld:
				pending++
				continue
			}
			claims++
			lp := leasePath(w.Dir, c)
			hb.add(lp)
			if stolen {
				mu.Lock()
				sum.StolenCells++
				mu.Unlock()
			}
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				payload, _, err := experiment.ComputeCell(roundCtx, w.Figure, w.Config, c.Drop, c.Scheme)
				if err == nil {
					// Record (fsync) strictly before done-marking: a done
					// lease always has journal bytes behind it.
					err = jnl.Record(c.Drop, c.Scheme, payload)
				}
				if err == nil {
					err = w.markDone(c)
				}
				hb.remove(lp)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					// Release the claim so the cell is observably unowned,
					// then abort: deterministic cells fail identically
					// everywhere, so limping on would just spread the
					// failure.
					os.Remove(lp)
					sum.FailedCells++
					if firstErr == nil {
						firstErr = fmt.Errorf("shard: worker %s, drop %d scheme %s: %w", w.ID, c.Drop, c.Scheme, err)
						cancelRound()
					}
					return
				}
				sum.ComputedCells++
			}()
			done[c] = true // claimed by us: either we finish it or we abort the run
		}
		wg.Wait()
		cancelRound()
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if pending == 0 {
			sum.Complete = true
			break
		}
		if w.MaxCells > 0 && claims >= w.MaxCells {
			w.logf("stopping at MaxCells=%d with %d cells still pending", w.MaxCells, pending)
			break
		}
		// Everything left is held by someone else (or freshly failed
		// elsewhere): wait out a poll interval so stale leases can age.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}

	sum.FinishedAt = time.Now().UTC().Format(time.RFC3339)
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("shard: encoding worker summary: %w", err)
	}
	sp := filepath.Join(w.Dir, "workers", w.ID+".summary.json")
	if err := writeFileAtomic(sp, data); err != nil {
		return nil, fmt.Errorf("shard: writing %s: %w", sp, err)
	}
	w.logf("finished: %d computed (%d stolen), %d resumed, complete=%v",
		sum.ComputedCells, sum.StolenCells, sum.ResumedCells, sum.Complete)
	return sum, nil
}
