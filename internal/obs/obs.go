// Package obs is the observability layer of the reproduction: phase
// timers, counters, solver-statistic aggregation, live progress
// reporting, and the machine-readable run manifest that makes every
// regenerated figure auditable.
//
// The layer is strictly passive — it observes wall-clock time and
// counters but never feeds anything back into the numerics, so figure
// CSVs are byte-identical with instrumentation enabled or disabled
// (enforced by test). It is also nil-tolerant end to end: every method
// on a nil *Recorder, nil *Phase, nil *Counter, or zero Span is a
// no-op, so instrumented code paths carry no conditionals and near-zero
// overhead when no recorder is installed.
//
// A Recorder travels via context (Into/From), following the same
// cooperative pattern as cancellation: the experiment engine, the
// alignment strategies, and the covariance-solver call sites all pick
// it up from the context they already receive.
package obs

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase accumulates wall-clock time and an invocation count for one
// named phase of a run (e.g. "channel", "sounding", "estimation").
// Accumulation is atomic, so concurrent drop workers share one Phase.
type Phase struct {
	name  string
	ns    atomic.Int64
	count atomic.Int64
}

// Start opens a span on the phase. Safe on a nil Phase (returns a
// no-op span).
func (p *Phase) Start() Span {
	if p == nil {
		return Span{}
	}
	return Span{p: p, t0: time.Now()}
}

// AddNS folds an externally measured duration into the phase.
func (p *Phase) AddNS(ns int64) {
	if p == nil {
		return
	}
	p.ns.Add(ns)
	p.count.Add(1)
}

// Span is one timed interval of a phase; End folds the elapsed time
// into the parent phase. The zero Span is a no-op.
type Span struct {
	p  *Phase
	t0 time.Time
}

// End closes the span, accumulating its duration.
func (s Span) End() {
	if s.p == nil {
		return
	}
	s.p.AddNS(time.Since(s.t0).Nanoseconds())
}

// Counter is a named atomic event counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Safe on a nil Counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// SolveSample is one covariance-solve's worth of covest.Stats, already
// flattened so this package does not depend on the solver.
type SolveSample struct {
	// Iters, EigenDecomps, EigenIters, ObjectiveEvals, GradientEvals,
	// Backtracks, LambdaMadds, GradientMadds and SetupMadds mirror the
	// covest.Stats counters of one Estimate call.
	Iters, EigenDecomps, EigenIters, ObjectiveEvals, GradientEvals, Backtracks int
	LambdaMadds, GradientMadds, SetupMadds                                     int
	// Restarts is the number of divergence-forced momentum restarts.
	Restarts int
	// Rank and SubspaceDim describe the returned estimate.
	Rank, SubspaceDim int
	// Recovered marks a solve that fell back to a finite iterate after
	// a guardrail fired; Degraded marks any guardrail termination.
	Recovered, Degraded bool
}

// SolverStats aggregates every SolveSample of a run — the
// solver-side half of the run manifest.
type SolverStats struct {
	// Estimations is the number of covariance solves.
	Estimations int64 `json:"estimations"`
	// Iters is the total number of proximal steps across all solves.
	Iters int64 `json:"iters"`
	// EigenDecomps, EigenIters, ObjectiveEvals, GradientEvals and
	// Backtracks total the per-solve cost counters.
	EigenDecomps   int64 `json:"eigen_decomps"`
	EigenIters     int64 `json:"eigen_iters"`
	ObjectiveEvals int64 `json:"objective_evals"`
	GradientEvals  int64 `json:"gradient_evals"`
	Backtracks     int64 `json:"backtracks"`
	// LambdaMadds and GradientMadds total the complex multiply-adds of
	// the λ products and the gradient assemblies: exact work counts
	// that depend only on the matrices involved. SetupMadds totals
	// those of the work around each solve (Gram-Schmidt, beam
	// reduction, warm projection, lift), counting only work done.
	LambdaMadds   int64 `json:"lambda_madds"`
	GradientMadds int64 `json:"gradient_madds"`
	SetupMadds    int64 `json:"setup_madds"`
	// Restarts totals divergence-forced momentum restarts.
	Restarts int64 `json:"restarts"`
	// Recovered and Degraded count solves that ended through a
	// guardrail (recovered to a finite iterate / any degraded stop).
	Recovered int64 `json:"recovered"`
	Degraded  int64 `json:"degraded"`
	// MaxRank and MaxSubspaceDim are the largest estimate rank and
	// working-subspace dimension seen.
	MaxRank        int `json:"max_rank"`
	MaxSubspaceDim int `json:"max_subspace_dim"`
}

// PhaseStat is the snapshot of one phase for reports and manifests.
type PhaseStat struct {
	// Name is the phase name.
	Name string `json:"name"`
	// Count is the number of spans folded in.
	Count int64 `json:"count"`
	// TotalNS is the accumulated wall-clock time in nanoseconds.
	TotalNS int64 `json:"total_ns"`
}

// Progress is one live progress event of a figure run.
type Progress struct {
	// Done and Total count (drop, scheme) cells.
	Done, Total int64
	// Failed counts cells that ended in error so far.
	Failed int64
	// Elapsed is the wall-clock time since StartRun.
	Elapsed time.Duration
}

// ETA extrapolates the remaining wall-clock time from the completion
// fraction (0 when nothing has completed yet). The extrapolation is
// computed in float64 and clamped to MaxInt64: a day-scale Elapsed with
// one cell done out of millions can exceed what time.Duration holds,
// and a float→int64 conversion that overflows is implementation-defined
// in Go (historically surfacing as a negative ETA).
func (p Progress) ETA() time.Duration {
	if p.Done <= 0 || p.Total <= p.Done {
		return 0
	}
	per := float64(p.Elapsed) / float64(p.Done)
	eta := per * float64(p.Total-p.Done)
	if eta >= float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(eta)
}

// Recorder collects phases, counters, solver aggregates and progress
// for one run. All methods are safe for concurrent use and safe on a
// nil receiver (no-ops), which is how "instrumentation disabled" is
// expressed: code records unconditionally, a nil recorder makes it
// free.
type Recorder struct {
	mu       sync.Mutex
	start    time.Time
	phases   map[string]*Phase
	counters map[string]*Counter
	solver   SolverStats

	total, done, failed atomic.Int64

	progressMu sync.Mutex
	progress   func(Progress)
}

// New creates an empty recorder; the run clock starts now and is reset
// by StartRun.
func New() *Recorder {
	return &Recorder{
		start:    time.Now(),
		phases:   make(map[string]*Phase),
		counters: make(map[string]*Counter),
	}
}

// Phase returns the named phase, creating it on first use. Returns nil
// (a valid no-op phase) on a nil recorder.
func (r *Recorder) Phase(name string) *Phase {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.phases[name]
	if !ok {
		p = &Phase{name: name}
		r.phases[name] = p
	}
	return p
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// AddSolve folds one covariance-solve's statistics into the aggregate.
func (r *Recorder) AddSolve(s SolveSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	agg := &r.solver
	agg.Estimations++
	agg.Iters += int64(s.Iters)
	agg.EigenDecomps += int64(s.EigenDecomps)
	agg.EigenIters += int64(s.EigenIters)
	agg.ObjectiveEvals += int64(s.ObjectiveEvals)
	agg.GradientEvals += int64(s.GradientEvals)
	agg.Backtracks += int64(s.Backtracks)
	agg.LambdaMadds += int64(s.LambdaMadds)
	agg.GradientMadds += int64(s.GradientMadds)
	agg.SetupMadds += int64(s.SetupMadds)
	agg.Restarts += int64(s.Restarts)
	if s.Recovered {
		agg.Recovered++
	}
	if s.Degraded {
		agg.Degraded++
	}
	if s.Rank > agg.MaxRank {
		agg.MaxRank = s.Rank
	}
	if s.SubspaceDim > agg.MaxSubspaceDim {
		agg.MaxSubspaceDim = s.SubspaceDim
	}
}

// AddSolverStats folds another recorder's solver aggregate into this
// one, as if its solves had been added one by one.
func (r *Recorder) AddSolverStats(o SolverStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	agg := &r.solver
	agg.Estimations += o.Estimations
	agg.Iters += o.Iters
	agg.EigenDecomps += o.EigenDecomps
	agg.EigenIters += o.EigenIters
	agg.ObjectiveEvals += o.ObjectiveEvals
	agg.GradientEvals += o.GradientEvals
	agg.Backtracks += o.Backtracks
	agg.LambdaMadds += o.LambdaMadds
	agg.GradientMadds += o.GradientMadds
	agg.SetupMadds += o.SetupMadds
	agg.Restarts += o.Restarts
	agg.Recovered += o.Recovered
	agg.Degraded += o.Degraded
	agg.MaxRank = max(agg.MaxRank, o.MaxRank)
	agg.MaxSubspaceDim = max(agg.MaxSubspaceDim, o.MaxSubspaceDim)
}

// SetProgress installs the live progress sink (may be nil to remove).
// The sink is called from worker goroutines and must be safe for
// concurrent use; ProgressPrinter returns a suitable one.
func (r *Recorder) SetProgress(fn func(Progress)) {
	if r == nil {
		return
	}
	r.progressMu.Lock()
	r.progress = fn
	r.progressMu.Unlock()
}

// StartRun resets the run clock and announces the total cell count of
// the upcoming run ((drops × schemes) for a figure).
func (r *Recorder) StartRun(totalCells int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.start = time.Now()
	r.mu.Unlock()
	r.total.Store(int64(totalCells))
	r.done.Store(0)
	r.failed.Store(0)
}

// CellDone records the completion of one (drop, scheme) cell and emits
// a progress event to the installed sink.
func (r *Recorder) CellDone(failed bool) {
	if r == nil {
		return
	}
	done := r.done.Add(1)
	if failed {
		r.failed.Add(1)
	}
	r.progressMu.Lock()
	fn := r.progress
	r.progressMu.Unlock()
	if fn == nil {
		return
	}
	r.mu.Lock()
	start := r.start
	r.mu.Unlock()
	fn(Progress{
		Done:    done,
		Total:   r.total.Load(),
		Failed:  r.failed.Load(),
		Elapsed: time.Since(start),
	})
}

// Snapshot captures the recorder's current state: elapsed run time,
// per-phase timings (sorted by name for deterministic output),
// counters, and the solver aggregate. Safe on a nil recorder (zero
// snapshot) and safe to call while the run is still in flight.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		ElapsedNS: time.Since(r.start).Nanoseconds(),
		Solver:    r.solver,
	}
	for name, p := range r.phases {
		snap.Phases = append(snap.Phases, PhaseStat{Name: name, Count: p.count.Load(), TotalNS: p.ns.Load()})
	}
	sort.Slice(snap.Phases, func(i, j int) bool { return snap.Phases[i].Name < snap.Phases[j].Name })
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Value()
		}
	}
	return snap
}

// Snapshot is a point-in-time copy of a Recorder's state — the
// instrumentation half of a run manifest.
type Snapshot struct {
	// ElapsedNS is the wall-clock time since StartRun in nanoseconds.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Phases holds the per-phase timings, sorted by name.
	Phases []PhaseStat `json:"phases,omitempty"`
	// Counters holds every event counter.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Solver is the aggregated covariance-solver cost.
	Solver SolverStats `json:"solver"`
}

// WriteText renders the snapshot as an expvar-style summary for
// terminal inspection (counters and phases sorted by name).
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "elapsed: %v\n", time.Duration(s.ElapsedNS)); err != nil {
		return err
	}
	for _, p := range s.Phases {
		avg := time.Duration(0)
		if p.Count > 0 {
			avg = time.Duration(p.TotalNS / p.Count)
		}
		if _, err := fmt.Fprintf(w, "phase %-12s %8d spans  total %12v  avg %10v\n",
			p.Name, p.Count, time.Duration(p.TotalNS), avg); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "counter %-19s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	if s.Solver.Estimations > 0 {
		if _, err := fmt.Fprintf(w, "solver: %d estimations, %d iters, %d eigendecomps, %d backtracks, %d recovered\n",
			s.Solver.Estimations, s.Solver.Iters, s.Solver.EigenDecomps, s.Solver.Backtracks, s.Solver.Recovered); err != nil {
			return err
		}
	}
	return nil
}

// ProgressPrinter returns a concurrency-safe progress sink that writes
// one-line updates ("label: 37/300 cells (12%), 1 failed, 4.0s
// elapsed, eta 28s") to w, throttled to at most one line per
// minInterval except for the final event.
func ProgressPrinter(w io.Writer, label string, minInterval time.Duration) func(Progress) {
	var mu sync.Mutex
	var last time.Time
	return func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if p.Done < p.Total && now.Sub(last) < minInterval {
			return
		}
		last = now
		pct := 0.0
		if p.Total > 0 {
			pct = 100 * float64(p.Done) / float64(p.Total)
		}
		line := fmt.Sprintf("%s: %d/%d cells (%.0f%%)", label, p.Done, p.Total, pct)
		if p.Failed > 0 {
			line += fmt.Sprintf(", %d failed", p.Failed)
		}
		line += fmt.Sprintf(", %v elapsed", p.Elapsed.Round(100*time.Millisecond))
		if eta := p.ETA(); eta > 0 {
			line += fmt.Sprintf(", eta %v", eta.Round(time.Second))
		}
		fmt.Fprintln(w, line)
	}
}

// published guards expvar registration, which panics on duplicates.
// Each name maps to an atomic pointer holding the recorder currently
// backing the expvar; re-publishing swaps the pointer instead of
// re-registering.
var published sync.Map

// Publish registers the recorder's live snapshot under the given expvar
// name. expvar's registry is append-only, so the name is registered at
// most once; a later Publish under the same name rebinds the expvar to
// the new recorder (last publish wins). Rebinding matters for
// long-running processes that construct more than one recorder per name
// — a serving process recycled across tests, or a server rebuilt after
// a config reload — where pinning the first recorder forever would
// freeze the exported stats.
func Publish(name string, r *Recorder) {
	if r == nil {
		return
	}
	slot, loaded := published.LoadOrStore(name, &atomic.Pointer[Recorder]{})
	ptr := slot.(*atomic.Pointer[Recorder])
	ptr.Store(r)
	if loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return ptr.Load().Snapshot() }))
}

// ctxKey is the private context key for the recorder.
type ctxKey struct{}

// Into returns a context carrying the recorder (ctx unchanged when r is
// nil).
func Into(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// From extracts the recorder from the context, or nil when none is
// installed — the nil recorder being the free, disabled instrumentation
// path.
func From(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
