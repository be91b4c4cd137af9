package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// ManifestSchema identifies the run-manifest JSON layout; bump the
// suffix on breaking changes so downstream tooling can dispatch.
const ManifestSchema = "mmwalign/run-manifest/v1"

// Manifest is the machine-readable audit record of one figure run,
// written next to each CSV by cmd/figgen and exposed on the public
// FigureResult. Two manifests for the same (figure, seed, config) are
// diffable: everything except timings, version, and created_at is
// deterministic.
type Manifest struct {
	// Schema is ManifestSchema.
	Schema string `json:"schema"`
	// Figure is the figure identifier ("fig5".."fig8").
	Figure string `json:"figure"`
	// Title restates what the figure plots.
	Title string `json:"title,omitempty"`
	// Seed is the run's random seed — with Config, it fully determines
	// the CSV.
	Seed int64 `json:"seed"`
	// GoVersion is the toolchain that produced the run.
	GoVersion string `json:"go_version"`
	// Version identifies the source tree (git describe or module build
	// info); filled by the CLI, empty for library runs.
	Version string `json:"version,omitempty"`
	// CreatedAt is the RFC 3339 UTC timestamp; filled by the CLI.
	CreatedAt string `json:"created_at,omitempty"`
	// Config is the fully defaulted experiment.Config as JSON.
	Config json.RawMessage `json:"config,omitempty"`
	// Instrumented reports whether a recorder was installed: phase
	// timings, counters and solver aggregates are only populated when
	// true.
	Instrumented bool `json:"instrumented"`
	// ElapsedNS is the figure's wall-clock generation time.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Phases holds the per-phase wall-clock breakdown (sorted by name).
	Phases []PhaseStat `json:"phases,omitempty"`
	// Counters holds the event counters (measurements, fallbacks, …).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Solver aggregates covest.Stats across every estimation of the run.
	Solver SolverStats `json:"solver"`
	// Resume records checkpoint/resume evidence: how much of the run
	// was satisfied from a journal instead of recomputed. Nil when the
	// run carried no journal.
	Resume *ResumeSummary `json:"resume,omitempty"`
	// Retries records the per-cell retry engine's work. Nil when
	// retries were not configured.
	Retries *RetrySummary `json:"retries,omitempty"`
	// Failures summarizes drops excluded under the error budget; nil
	// when every drop succeeded.
	Failures *FailureSummary `json:"failures,omitempty"`
	// Shard records multi-process sharded-sweep evidence — which worker
	// computed what, how many cells were stolen from dead workers, and
	// how many duplicates the merge resolved. Nil for single-process
	// runs.
	Shard *ShardSummary `json:"shard,omitempty"`
}

// ShardSummary is the manifest evidence of a sharded (multi-process)
// sweep: the merged figure's bytes are identical to a single-process
// run — that is the shard engine's contract — so this summary is what
// distinguishes them, and what the chaos CI greps to prove a kill
// actually exercised the steal path.
type ShardSummary struct {
	// Dir is the shared shard directory the workers coordinated through.
	Dir string `json:"dir,omitempty"`
	// TotalCells is drops × schemes for the run.
	TotalCells int `json:"total_cells"`
	// MergedCells is how many distinct cells the merge recovered from
	// the worker journals (equals TotalCells for a complete run).
	MergedCells int `json:"merged_cells"`
	// DuplicateCells counts cells recorded by more than one worker — a
	// lease stolen after the original owner had already journaled, or a
	// kill window between journal fsync and done-marking. Duplicates
	// resolve last-write-wins and are byte-identical (cells are pure in
	// seed, drop, scheme).
	DuplicateCells int `json:"duplicate_cells"`
	// StolenCells counts lease steals: cells a worker reclaimed from a
	// stale (dead or wedged) owner. Nonzero after a mid-sweep kill.
	StolenCells int `json:"stolen_cells"`
	// Workers lists per-worker evidence, sorted by worker ID.
	Workers []ShardWorker `json:"workers,omitempty"`
}

// ShardWorker is one worker's contribution to a sharded sweep.
type ShardWorker struct {
	// Worker is the worker ID (journal and summary file basename).
	Worker string `json:"worker"`
	// JournaledCells is how many distinct cells the worker's journal
	// holds.
	JournaledCells int `json:"journaled_cells"`
	// ComputedCells and StolenCells are the worker's self-reported
	// tallies (zero when the worker died before writing its summary).
	ComputedCells int `json:"computed_cells"`
	StolenCells   int `json:"stolen_cells"`
	// FailedCells counts cells the worker attempted and could not
	// complete.
	FailedCells int `json:"failed_cells"`
	// Reported is false for a worker that never wrote its final summary
	// — the signature of a killed worker.
	Reported bool `json:"reported"`
}

// ResumeSummary is the manifest evidence of a checkpointed run: with
// it, an auditor can tell a fresh figure from one stitched across
// interruptions (the bytes are identical either way — that is the
// journal's contract).
type ResumeSummary struct {
	// Journal is the checkpoint file path.
	Journal string `json:"journal,omitempty"`
	// ConfigHash is the canonical config hash the journal was matched
	// against before any cell was skipped.
	ConfigHash string `json:"config_hash,omitempty"`
	// SkippedCells is how many (drop, scheme) cells were satisfied from
	// the journal; RecordedCells how many this run appended.
	SkippedCells  int `json:"skipped_cells"`
	RecordedCells int `json:"recorded_cells"`
	// TotalCells is drops × schemes for the run.
	TotalCells int `json:"total_cells"`
}

// RetrySummary is the manifest evidence of the per-cell retry engine.
type RetrySummary struct {
	// MaxRetries is the configured per-cell retry budget.
	MaxRetries int `json:"max_retries"`
	// Attempts is the number of re-runs performed (beyond each cell's
	// first attempt).
	Attempts int64 `json:"attempts"`
	// RecoveredCells counts cells that failed at least once and then
	// succeeded — transient failures the retry engine absorbed before
	// they could consume the MaxFailedDrops budget.
	RecoveredCells int64 `json:"recovered_cells"`
	// ExhaustedCells counts cells that burned every retry and still
	// failed — permanent failures.
	ExhaustedCells int64 `json:"exhausted_cells"`
}

// FailureSummary is the manifest form of experiment.FailureReport.
type FailureSummary struct {
	// FailedDrops is the number of distinct excluded drops.
	FailedDrops int `json:"failed_drops"`
	// TotalDrops is the configured drop count.
	TotalDrops int `json:"total_drops"`
	// Cells lists each failed (drop, scheme) cell with its error text.
	Cells []FailureCell `json:"cells,omitempty"`
}

// FailureCell is one failed (drop, scheme) cell.
type FailureCell struct {
	Drop   int    `json:"drop"`
	Scheme string `json:"scheme"`
	// Attempts is how many times the cell ran before the failure stuck
	// (1 + retries burned; 0 in manifests from engines without the
	// retry layer).
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error"`
}

// Validate checks the manifest's structural invariants — the contract
// the CI smoke step and the figgen self-check enforce before a
// manifest is trusted.
func (m *Manifest) Validate() error {
	if m == nil {
		return fmt.Errorf("obs: nil manifest")
	}
	if m.Schema != ManifestSchema {
		return fmt.Errorf("obs: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Figure == "" {
		return fmt.Errorf("obs: manifest has no figure identifier")
	}
	if m.GoVersion == "" {
		return fmt.Errorf("obs: manifest has no go_version")
	}
	if m.ElapsedNS < 0 {
		return fmt.Errorf("obs: negative elapsed_ns %d", m.ElapsedNS)
	}
	if len(m.Config) > 0 && !json.Valid(m.Config) {
		return fmt.Errorf("obs: manifest config is not valid JSON")
	}
	if m.Instrumented && len(m.Phases) == 0 && (m.Resume == nil || m.Resume.SkippedCells == 0) {
		// Phases are recorded per computed cell, so a run whose journal
		// replayed every cell (a complete resume, or a figure generated
		// from a fully merged shard directory) legitimately has none.
		return fmt.Errorf("obs: instrumented manifest has no phase timings and no replayed cells")
	}
	for _, p := range m.Phases {
		if p.Name == "" {
			return fmt.Errorf("obs: manifest phase with empty name")
		}
		if p.Count < 0 || p.TotalNS < 0 {
			return fmt.Errorf("obs: phase %q has negative count/time (%d, %d)", p.Name, p.Count, p.TotalNS)
		}
	}
	for name, v := range m.Counters {
		if v < 0 {
			return fmt.Errorf("obs: counter %q is negative (%d)", name, v)
		}
	}
	s := m.Solver
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"estimations", s.Estimations}, {"iters", s.Iters},
		{"eigen_decomps", s.EigenDecomps}, {"eigen_iters", s.EigenIters},
		{"objective_evals", s.ObjectiveEvals},
		{"gradient_evals", s.GradientEvals}, {"backtracks", s.Backtracks},
		{"lambda_madds", s.LambdaMadds}, {"gradient_madds", s.GradientMadds},
		{"setup_madds", s.SetupMadds},
		{"restarts", s.Restarts}, {"recovered", s.Recovered}, {"degraded", s.Degraded},
	} {
		if c.v < 0 {
			return fmt.Errorf("obs: solver aggregate %s is negative (%d)", c.name, c.v)
		}
	}
	if r := m.Resume; r != nil {
		if r.SkippedCells < 0 || r.RecordedCells < 0 || r.TotalCells <= 0 {
			return fmt.Errorf("obs: resume summary has negative or empty counts (%+v)", r)
		}
		if r.SkippedCells > r.TotalCells {
			return fmt.Errorf("obs: resume summary skipped %d of %d cells", r.SkippedCells, r.TotalCells)
		}
		if r.RecordedCells > r.TotalCells {
			return fmt.Errorf("obs: resume summary recorded %d of %d cells", r.RecordedCells, r.TotalCells)
		}
	}
	if rt := m.Retries; rt != nil {
		if rt.MaxRetries < 0 || rt.Attempts < 0 || rt.RecoveredCells < 0 || rt.ExhaustedCells < 0 {
			return fmt.Errorf("obs: retry summary has negative counts (%+v)", rt)
		}
		if rt.RecoveredCells+rt.ExhaustedCells > rt.Attempts {
			return fmt.Errorf("obs: retry summary outcomes (%d recovered + %d exhausted) exceed %d attempts",
				rt.RecoveredCells, rt.ExhaustedCells, rt.Attempts)
		}
	}
	if f := m.Failures; f != nil {
		if f.FailedDrops <= 0 || f.FailedDrops > f.TotalDrops {
			return fmt.Errorf("obs: failure summary %d of %d drops is inconsistent", f.FailedDrops, f.TotalDrops)
		}
		for _, c := range f.Cells {
			if c.Scheme == "" || c.Error == "" {
				return fmt.Errorf("obs: failure cell (drop %d) missing scheme or error", c.Drop)
			}
		}
	}
	if sh := m.Shard; sh != nil {
		if sh.TotalCells <= 0 {
			return fmt.Errorf("obs: shard summary has no cells (%+v)", sh)
		}
		if sh.MergedCells < 0 || sh.MergedCells > sh.TotalCells {
			return fmt.Errorf("obs: shard summary merged %d of %d cells", sh.MergedCells, sh.TotalCells)
		}
		if sh.DuplicateCells < 0 || sh.StolenCells < 0 {
			return fmt.Errorf("obs: shard summary has negative steal/duplicate counts (%+v)", sh)
		}
		journaled := 0
		for _, w := range sh.Workers {
			if w.Worker == "" {
				return fmt.Errorf("obs: shard worker with empty ID")
			}
			if w.JournaledCells < 0 || w.ComputedCells < 0 || w.StolenCells < 0 || w.FailedCells < 0 {
				return fmt.Errorf("obs: shard worker %s has negative counts (%+v)", w.Worker, w)
			}
			journaled += w.JournaledCells
		}
		if len(sh.Workers) > 0 && journaled != sh.MergedCells+sh.DuplicateCells {
			return fmt.Errorf("obs: shard summary journaled cells (%d) do not account for merged %d + duplicates %d",
				journaled, sh.MergedCells, sh.DuplicateCells)
		}
	}
	return nil
}

// WriteJSON validates the manifest and emits it as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ParseManifest decodes and validates a manifest document.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
