package mmwalign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mmwalign/internal/experiment"
	"mmwalign/internal/obs"
	"mmwalign/internal/sweep"
)

// FigureSeries is one curve of a reproduced paper figure.
type FigureSeries struct {
	// Name is the scheme the curve belongs to.
	Name string
	// X and Y are the sweep points.
	X, Y []float64
	// YErr holds the 95% confidence half-width per point.
	YErr []float64
}

// FigureResult is a regenerated figure from the paper's evaluation.
type FigureResult struct {
	// ID is "fig5".."fig8".
	ID string
	// Title restates what the paper plots.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds one curve per scheme (random, scan, proposed by
	// default).
	Series []FigureSeries
	// FailedDrops counts channel drops excluded under the error budget
	// (ReproduceOptions.MaxFailedDrops); the Series then aggregate only
	// the surviving drops.
	FailedDrops int
	// FailureMessages describes each excluded (drop, scheme) cell.
	FailureMessages []string
	// Manifest records how the figure was produced: the resolved
	// configuration, seed, toolchain, and — when
	// ReproduceOptions.Instrument is set — per-phase timings, event
	// counters and covariance-solver aggregates.
	Manifest *RunManifest
}

// RunPhase is one timed phase of a reproduction run (channel
// generation, sounding, estimation, selection, oracle scoring).
type RunPhase struct {
	// Name is the phase name.
	Name string
	// Count is the number of timed spans folded in.
	Count int64
	// TotalNS is the accumulated wall-clock time in nanoseconds.
	TotalNS int64
}

// RunSolverStats aggregates the covariance-solver cost of a run.
type RunSolverStats struct {
	// Estimations is the number of covariance solves.
	Estimations int64
	// Iters totals proximal steps across all solves; EigenDecomps,
	// EigenIters, ObjectiveEvals, GradientEvals, Backtracks, LambdaMadds,
	// GradientMadds and SetupMadds total the per-solve cost counters,
	// and Restarts the divergence-forced momentum restarts.
	Iters          int64
	EigenDecomps   int64
	EigenIters     int64
	ObjectiveEvals int64
	GradientEvals  int64
	Backtracks     int64
	LambdaMadds    int64
	GradientMadds  int64
	SetupMadds     int64
	Restarts       int64
	// Recovered and Degraded count solves that ended through a solver
	// guardrail.
	Recovered int64
	Degraded  int64
	// MaxRank and MaxSubspaceDim are the largest estimate rank and
	// working-subspace dimension seen.
	MaxRank        int
	MaxSubspaceDim int
}

// RunManifest is the machine-readable record of one figure
// reproduction. Its serialized form (WriteJSON) follows the
// "mmwalign/run-manifest/v1" schema that cmd/figgen writes next to
// each CSV.
type RunManifest struct {
	// Schema identifies the manifest document format.
	Schema string
	// Figure and Title name the reproduced figure.
	Figure string
	Title  string
	// Seed is the root RNG seed the run derived everything from.
	Seed int64
	// GoVersion is the toolchain that produced the figure.
	GoVersion string
	// ConfigJSON is the fully defaulted experiment configuration.
	ConfigJSON json.RawMessage
	// Instrumented reports whether phase timings, counters and solver
	// aggregates were collected (ReproduceOptions.Instrument).
	Instrumented bool
	// ElapsedNS is the total run wall-clock time in nanoseconds.
	ElapsedNS int64
	// Phases, Counters and Solver hold the instrumentation results
	// (empty unless Instrumented).
	Phases   []RunPhase
	Counters map[string]int64
	Solver   RunSolverStats
	// Resume, Retries and Shard carry the robustness evidence of the
	// run: how many cells a checkpoint journal satisfied, what the
	// per-cell retry engine absorbed, and — for a figure merged from a
	// multi-process sharded sweep — which worker computed what. Nil
	// when the corresponding machinery was not engaged.
	Resume  *RunResume
	Retries *RunRetries
	Shard   *RunShard

	raw *obs.Manifest
}

// RunResume mirrors the manifest's checkpoint/resume evidence.
type RunResume struct {
	// Journal is the checkpoint file path; ConfigHash the canonical
	// config hash it was validated against.
	Journal    string
	ConfigHash string
	// SkippedCells were satisfied from the journal, RecordedCells newly
	// appended, out of TotalCells.
	SkippedCells  int
	RecordedCells int
	TotalCells    int
}

// RunRetries mirrors the manifest's retry-engine evidence.
type RunRetries struct {
	// MaxRetries is the configured per-cell budget; Attempts the
	// re-runs performed; RecoveredCells the transient failures rescued;
	// ExhaustedCells the permanent failures that burned every retry.
	MaxRetries     int
	Attempts       int64
	RecoveredCells int64
	ExhaustedCells int64
}

// RunShard mirrors the manifest's sharded-sweep evidence: the figure
// bytes are identical to a single-process run, so this is what records
// that the run was sharded, what each worker contributed, and how many
// cells were stolen from dead workers or duplicate-resolved.
type RunShard struct {
	// Dir is the shared shard directory.
	Dir string
	// MergedCells distinct cells were folded out of the worker journals
	// (of TotalCells); DuplicateCells were recorded by more than one
	// worker; StolenCells were reclaimed from stale leases.
	TotalCells     int
	MergedCells    int
	DuplicateCells int
	StolenCells    int
	// Workers lists per-worker tallies, sorted by worker ID.
	Workers []RunShardWorker
}

// RunShardWorker is one worker's contribution to a sharded run.
type RunShardWorker struct {
	// Worker is the worker ID.
	Worker string
	// JournaledCells is what the worker's journal holds; ComputedCells,
	// StolenCells and FailedCells are its self-reported tallies.
	JournaledCells int
	ComputedCells  int
	StolenCells    int
	FailedCells    int
	// Reported is false when the worker never wrote its final summary —
	// the signature of a killed worker.
	Reported bool
}

// WriteJSON writes the manifest in its canonical schema-validated JSON
// form.
func (m *RunManifest) WriteJSON(w io.Writer) error {
	if m == nil || m.raw == nil {
		return fmt.Errorf("mmwalign: empty run manifest")
	}
	return m.raw.WriteJSON(w)
}

// newRunManifest mirrors the engine's manifest into the public type.
func newRunManifest(src *obs.Manifest) *RunManifest {
	if src == nil {
		return nil
	}
	m := &RunManifest{
		Schema:       src.Schema,
		Figure:       src.Figure,
		Title:        src.Title,
		Seed:         src.Seed,
		GoVersion:    src.GoVersion,
		ConfigJSON:   append(json.RawMessage(nil), src.Config...),
		Instrumented: src.Instrumented,
		ElapsedNS:    src.ElapsedNS,
		Solver:       RunSolverStats(src.Solver),
		raw:          src,
	}
	for _, p := range src.Phases {
		m.Phases = append(m.Phases, RunPhase(p))
	}
	if src.Resume != nil {
		m.Resume = &RunResume{
			Journal:       src.Resume.Journal,
			ConfigHash:    src.Resume.ConfigHash,
			SkippedCells:  src.Resume.SkippedCells,
			RecordedCells: src.Resume.RecordedCells,
			TotalCells:    src.Resume.TotalCells,
		}
	}
	if src.Retries != nil {
		m.Retries = &RunRetries{
			MaxRetries:     src.Retries.MaxRetries,
			Attempts:       src.Retries.Attempts,
			RecoveredCells: src.Retries.RecoveredCells,
			ExhaustedCells: src.Retries.ExhaustedCells,
		}
	}
	if src.Shard != nil {
		m.Shard = &RunShard{
			Dir:            src.Shard.Dir,
			TotalCells:     src.Shard.TotalCells,
			MergedCells:    src.Shard.MergedCells,
			DuplicateCells: src.Shard.DuplicateCells,
			StolenCells:    src.Shard.StolenCells,
		}
		for _, w := range src.Shard.Workers {
			m.Shard.Workers = append(m.Shard.Workers, RunShardWorker(w))
		}
	}
	if len(src.Counters) > 0 {
		m.Counters = make(map[string]int64, len(src.Counters))
		for k, v := range src.Counters {
			m.Counters[k] = v
		}
	}
	return m
}

// ReproduceOptions tunes a figure reproduction beyond the paper's
// defaults.
type ReproduceOptions struct {
	// MaxFailedDrops is the error budget: how many drops may fail while
	// still producing a figure. The default 0 is strict — any failure
	// aborts the reproduction with an attributed error.
	MaxFailedDrops int
	// MaxRetries re-runs a failed (drop, scheme) cell up to this many
	// extra times (with RetryBackoff between attempts) before the
	// failure counts against MaxFailedDrops. Cells are deterministic in
	// (seed, drop, scheme), so retries can only rescue transient
	// faults — they never change figure numbers.
	MaxRetries int
	// RetryBackoff is the delay before a cell's first retry, doubling
	// per attempt (capped). Zero retries immediately.
	RetryBackoff time.Duration
	// Checkpoint, when non-empty, is the path of a crash-safe run
	// journal: every completed cell is fsynced there, and with Resume
	// set a prior journal's cells are skipped — an interrupted
	// reproduction continues where it stopped and still returns
	// byte-identical Series. The journal refuses a config that hashes
	// differently from the one it was started under.
	Checkpoint string
	// Resume loads the Checkpoint journal instead of starting it fresh.
	Resume bool
	// Instrument enables phase timers, event counters and solver
	// aggregation for the run; the results appear on
	// FigureResult.Manifest. Instrumentation is passive — the figure's
	// numbers are identical either way — and costs a few percent of
	// wall-clock time.
	Instrument bool
	// Progress, when non-nil, receives a live event after each completed
	// (drop, scheme) cell. It is called from worker goroutines and must
	// be safe for concurrent use. Requires Instrument.
	Progress func(done, total, failed int)
}

// ReproduceFigure regenerates one of the paper's result figures (5–8)
// at the paper's default configuration with the given number of
// independent channel drops. Identical (figure, drops, seed) inputs
// return identical results. Expect roughly a second of compute per drop
// at the full problem size; the benchmark harness and cmd/figgen expose
// the same generators with more knobs. ReproduceFigure is the
// non-cancellable convenience form of ReproduceFigureContext.
func ReproduceFigure(figure, drops int, seed int64) (FigureResult, error) {
	return ReproduceFigureContext(context.Background(), figure, drops, seed)
}

// ReproduceFigureContext is ReproduceFigure with cooperative
// cancellation and an optional error budget: cancelling ctx stops the
// drop workers and returns the context's error; with a positive
// MaxFailedDrops, failed drops are excluded from the aggregation and
// reported in the result instead of aborting it.
func ReproduceFigureContext(ctx context.Context, figure, drops int, seed int64, opts ...ReproduceOptions) (FigureResult, error) {
	if drops <= 0 {
		return FigureResult{}, fmt.Errorf("mmwalign: drops %d must be positive", drops)
	}
	var opt ReproduceOptions
	if len(opts) > 1 {
		return FigureResult{}, fmt.Errorf("mmwalign: pass at most one ReproduceOptions")
	}
	if len(opts) == 1 {
		opt = opts[0]
	}
	if opt.Instrument {
		rec := obs.New()
		if opt.Progress != nil {
			fn := opt.Progress
			rec.SetProgress(func(p obs.Progress) {
				fn(int(p.Done), int(p.Total), int(p.Failed))
			})
		}
		ctx = obs.Into(ctx, rec)
	}
	cfg := experiment.Config{
		Seed:           seed,
		Drops:          drops,
		MaxFailedDrops: opt.MaxFailedDrops,
		MaxRetries:     opt.MaxRetries,
		RetryBackoff:   opt.RetryBackoff,
	}
	if opt.Checkpoint != "" {
		want, err := experiment.JournalHeader(figure, cfg)
		if err != nil {
			return FigureResult{}, fmt.Errorf("mmwalign: %w", err)
		}
		jnl, _, err := sweep.OpenJournal(opt.Checkpoint, want, opt.Resume)
		if err != nil {
			return FigureResult{}, fmt.Errorf("mmwalign: checkpoint: %w", err)
		}
		defer jnl.Close()
		cfg.Journal = jnl
	}
	fig, err := experiment.GenerateContext(ctx, figure, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return FigureResult{}, err
		}
		return FigureResult{}, fmt.Errorf("mmwalign: %w", err)
	}
	out := FigureResult{ID: fig.ID, Title: fig.Title, XLabel: fig.XLabel, YLabel: fig.YLabel}
	for _, s := range fig.Series {
		out.Series = append(out.Series, FigureSeries{
			Name: s.Name,
			X:    append([]float64(nil), s.X...),
			Y:    append([]float64(nil), s.Y...),
			YErr: append([]float64(nil), s.YErr...),
		})
	}
	if fig.Failures != nil {
		out.FailedDrops = fig.Failures.FailedDrops
		for _, f := range fig.Failures.Failures {
			out.FailureMessages = append(out.FailureMessages,
				fmt.Sprintf("drop %d scheme %s: %v", f.Drop, f.Scheme, f.Err))
		}
	}
	out.Manifest = newRunManifest(fig.Manifest)
	return out, nil
}
