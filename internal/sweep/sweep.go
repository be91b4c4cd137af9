// Package sweep is the in-process cell engine that every Monte Carlo
// sweep of the repository runs on: the paper's figure sweeps
// (internal/experiment, Figs. 5–8) and the mobility sweeps
// (internal/scenario). A sweep is a grid of (drop, scheme) cells, each
// a pure function of (seed, drop, scheme). The engine owns everything
// about running that grid except the cell itself:
//
//   - resume: a cell already on the checkpoint journal is decoded
//     instead of recomputed;
//   - a bounded worker pool whose schedule cannot change a result;
//   - panic recovery into an attributed *PanicError;
//   - per-cell retries with capped exponential backoff;
//   - record-then-fsync of each finished cell before it is reported
//     done, with the first journal-write error latched into a run
//     error;
//   - cancel-and-drain.
//
// Policy — what a failed cell means for the run — stays with the
// caller: Run hands back every cell's outcome in drop-major order.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mmwalign/internal/journal"
	"mmwalign/internal/obs"
)

// Spec describes one sweep: its grid, the cell function with its
// journal codec, and the runtime knobs that cannot change a computed
// cell.
type Spec[T any] struct {
	// Name prefixes the errors the engine attributes ("experiment",
	// "scenario").
	Name string
	// Drops and Schemes span the grid.
	Drops   int
	Schemes []string
	// Cell computes one cell. It must be deterministic in (drop,
	// scheme) for the worker-count and resume guarantees to hold.
	Cell func(ctx context.Context, drop int, scheme string) (T, error)
	// Encode and Decode are the payload's journal codec. Decode must
	// restore the value Encode was given bit for bit.
	Encode func(T) (json.RawMessage, error)
	Decode func(json.RawMessage) (T, error)
	// Workers bounds the concurrent cells (0 = GOMAXPROCS).
	Workers int
	// MaxRetries re-runs a failed cell up to this many extra times;
	// RetryBackoff is the delay before the first retry (see retryDelay).
	MaxRetries   int
	RetryBackoff time.Duration
	// Journal, when non-nil, is the crash-safe checkpoint of the run.
	// The caller owns opening and closing it.
	Journal *journal.Journal
}

// Result is the outcome of one cell: its value, or the attributed error
// of its final attempt.
type Result[T any] struct {
	Value T
	Err   error
	// Attempts is how many times the cell ran: 0 for a resume skip (the
	// work happened in a previous process), 1 + retries burned
	// otherwise.
	Attempts int
}

// PanicError is a worker panic recovered into an attributed error: the
// drop and scheme that crashed, the panic value, and the goroutine
// stack at the point of the panic. It preserves failure isolation — a
// shape or index bug in one drop's linear algebra becomes one failed
// cell instead of a process crash.
type PanicError struct {
	// Drop and Scheme attribute the cell that panicked.
	Drop   int
	Scheme string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: drop %d scheme %s panicked: %v\n%s", e.Drop, e.Scheme, e.Value, e.Stack)
}

// Stats is the robustness ledger of one run — resume skips and retry
// outcomes — from which Manifest writes the Resume/Retries evidence.
// The counters are atomic because cell workers update them
// concurrently.
type Stats struct {
	journal    *journal.Journal
	totalCells int
	maxRetries int

	resumedCells   atomic.Int64
	retryAttempts  atomic.Int64
	retryRecovered atomic.Int64
	retryExhausted atomic.Int64
}

// NewStats returns an empty ledger for a run of s.
func (s Spec[T]) NewStats() *Stats {
	return &Stats{journal: s.Journal, totalCells: s.Drops * len(s.Schemes), maxRetries: s.MaxRetries}
}

// Run executes every cell of the grid and returns the outcomes indexed
// [drop][scheme], plus the run's ledger.
//
// Cells execute concurrently on a bounded worker pool; the results are
// buffered by coordinate, so the output is bit-identical to a
// sequential run. Every cell error is kept with its cell — never just
// the first. Cancelling ctx stops spawning, drains the running workers
// and returns the context's error, with every finished cell already
// fsynced to the journal when one is attached, which is what makes the
// interruption resumable. A journal write failure is returned as a run
// error after the workers drain.
func (s Spec[T]) Run(ctx context.Context) ([][]Result[T], *Stats, error) {
	rec := obs.From(ctx)
	rec.StartRun(s.Drops * len(s.Schemes))
	st := s.NewStats()

	results := make([][]Result[T], s.Drops)
	for d := range results {
		results[d] = make([]Result[T], len(s.Schemes))
	}

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	// The first journal-write error aborts checkpointing credibility
	// for the whole run, so it is surfaced as a run error after the
	// workers drain rather than silently degrading durability.
	var journalErr atomic.Pointer[error]
spawn:
	for drop := range s.Drops {
		for si, scheme := range s.Schemes {
			if s.Journal != nil {
				if payload, ok := s.Journal.Lookup(drop, scheme); ok {
					// Resume skip: the journaled payload is bit-exact, so
					// consuming it is indistinguishable from re-running
					// the cell. A payload that fails to decode is treated
					// as not-completed and recomputed — the journal's CRC
					// already vouched for the bytes, so this only fires
					// across an engine codec change.
					v, err := s.Decode(payload)
					if err == nil {
						results[drop][si] = Result[T]{Value: v}
						st.resumedCells.Add(1)
						rec.Counter("resume_skipped_cells").Add(1)
						rec.CellDone(false)
						continue
					}
					rec.Counter("resume_decode_failures").Add(1)
				}
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				break spawn
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				slot := &results[drop][si]
				defer func() {
					if r := recover(); r != nil {
						*slot = Result[T]{Err: &PanicError{Drop: drop, Scheme: scheme, Value: r, Stack: debug.Stack()}}
					}
					// Progress is emitted on every completion — including
					// recovered panics — so live failure counts match what
					// the caller eventually reports.
					rec.CellDone(slot.Err != nil)
				}()
				*slot = s.RunCell(ctx, drop, scheme, st)
				if slot.Err == nil && s.Journal != nil {
					// Record-then-fsync before the slot is observable as
					// done: once CellDone fires, a crash cannot lose the
					// cell.
					payload, err := s.Encode(slot.Value)
					if err == nil {
						err = s.Journal.Record(drop, scheme, payload)
					}
					if err != nil {
						journalErr.CompareAndSwap(nil, &err)
					} else {
						rec.Counter("journal_cells_recorded").Add(1)
					}
				}
			}()
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	if errp := journalErr.Load(); errp != nil {
		return nil, st, fmt.Errorf("%s: checkpoint journal write failed (results would not be resumable): %w", s.Name, *errp)
	}
	return results, st, nil
}

// runCellAttempt is one recovered attempt of a cell: a panic anywhere
// in the computation becomes an attributed *PanicError instead of
// crossing the retry loop, so a panicking first attempt is as
// retryable as an erroring one. Any other failure is attributed with
// the cell's coordinates; cancellation errors pass through unwrapped so
// callers can match errors.Is(err, context.Canceled).
func (s Spec[T]) runCellAttempt(ctx context.Context, drop int, scheme string) (r Result[T]) {
	defer func() {
		if p := recover(); p != nil {
			r = Result[T]{Err: &PanicError{Drop: drop, Scheme: scheme, Value: p, Stack: debug.Stack()}}
		}
	}()
	if err := ctx.Err(); err != nil {
		return Result[T]{Err: err}
	}
	v, err := s.Cell(ctx, drop, scheme)
	if err != nil {
		if ctx.Err() != nil {
			return Result[T]{Err: ctx.Err()}
		}
		return Result[T]{Err: fmt.Errorf("%s: drop %d scheme %s: %w", s.Name, drop, scheme, err)}
	}
	return Result[T]{Value: v}
}

// retryDelay returns the capped exponential backoff before retry
// number attempt (0-based): base, 2·base, 4·base, … capped at 100×
// base, or at 5s when retries are configured with no base. Every step
// is overflow-guarded: 100·base can wrap int64 for a pathological
// base, and doubling past attempt 62 shifts through the sign bit —
// both used to surface as negative (i.e. zero) delays, so the cap is
// computed saturating and the exponent is bounded before any multiply.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	const maxDelay = time.Duration(math.MaxInt64)
	cap := maxDelay
	if base <= maxDelay/100 {
		cap = 100 * base
	}
	if cap > 5*time.Second && base <= 5*time.Second {
		cap = 5 * time.Second
	}
	// 2^attempt·base with attempt ≥ 63 exceeds int64 for any positive
	// base; saturate at the cap without shifting at all.
	if attempt >= 63 {
		return cap
	}
	d := base
	for i := 0; i < attempt; i++ {
		if d > cap/2 {
			// The next doubling would pass the cap (or wrap); the
			// backoff has saturated.
			return cap
		}
		d *= 2
	}
	if d > cap {
		return cap
	}
	return d
}

// RunCell runs one cell through the retry engine: up to MaxRetries
// re-runs after a failed attempt, with capped exponential backoff
// between attempts, tallied in st. Cancellation is never retried (the
// run is shutting down), and a success after retries is
// indistinguishable from a first-attempt success — cells are
// deterministic in (drop, scheme) — so retries cannot perturb results,
// only rescue transiently failed cells.
func (s Spec[T]) RunCell(ctx context.Context, drop int, scheme string, st *Stats) Result[T] {
	rec := obs.From(ctx)
	var r Result[T]
	for attempt := 0; ; attempt++ {
		r = s.runCellAttempt(ctx, drop, scheme)
		r.Attempts = attempt + 1
		if r.Err == nil {
			if attempt > 0 {
				st.retryRecovered.Add(1)
				rec.Counter("retry_recovered_cells").Add(1)
			}
			return r
		}
		if ctx.Err() != nil || attempt >= s.MaxRetries {
			if attempt > 0 && ctx.Err() == nil {
				st.retryExhausted.Add(1)
				rec.Counter("retry_exhausted_cells").Add(1)
			}
			return r
		}
		st.retryAttempts.Add(1)
		rec.Counter("retry_attempts").Add(1)
		if delay := retryDelay(s.RetryBackoff, attempt); delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return Result[T]{Err: ctx.Err(), Attempts: attempt + 1}
			case <-t.C:
			}
		}
	}
}
