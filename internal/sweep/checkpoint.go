package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"mmwalign/internal/journal"
	"mmwalign/internal/obs"
)

// Hash is the canonical hash of a configuration: the hex SHA-256 of its
// JSON form. Callers pass the fully defaulted config with its
// runtime-only knobs zeroed, so two configs with equal hashes produce
// bit-identical cells — the resume-safety check a journal header
// carries.
func Hash(cfg any) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		// Configs are plain data structs; Marshal cannot fail on them.
		// Keep the path total anyway.
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Header builds the journal header of a sweep: figure identity,
// canonical config hash, the run shape for inspection tooling, and the
// engine version (VersionString) for the drift note on resume.
func Header(figure, configHash string, seed int64, drops int, schemes []string) journal.Header {
	return journal.Header{
		Figure:     figure,
		ConfigHash: configHash,
		Version:    VersionString(),
		Seed:       seed,
		Drops:      drops,
		Schemes:    append([]string(nil), schemes...),
	}
}

// OpenJournal attaches the checkpoint journal at path. With resume set
// and a file present, the file is opened and validated against want (a
// changed config is a refusal, not a warning) and resumed reports true;
// a missing file, or no resume, starts a fresh journal, truncating any
// file already there. Any other failure to stat the file on resume is
// an error: starting fresh would destroy a checkpoint that may only be
// unreadable for the moment.
func OpenJournal(path string, want journal.Header, resume bool) (j *journal.Journal, resumed bool, err error) {
	if resume {
		_, statErr := os.Stat(path)
		if statErr == nil {
			j, err := journal.Open(path, want)
			if err != nil {
				return nil, false, fmt.Errorf("resume %s: %w", path, err)
			}
			return j, true, nil
		}
		if !errors.Is(statErr, os.ErrNotExist) {
			return nil, false, fmt.Errorf("resume %s: %w", path, statErr)
		}
	}
	want.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	j, err = journal.Create(path, want)
	return j, false, err
}

// VersionString identifies the source tree for journal and manifest
// stamping: the module version/VCS revision from build info when
// present. Returns "" when nothing is known (e.g. a test binary); the
// CLIs fall back to git describe in that case.
func VersionString() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if modified == "true" {
			rev += "-dirty"
		}
		return rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return ""
}

// Manifest assembles the run manifest core of a completed sweep: the
// config and seed always; phase timings, counters and solver
// aggregates when a recorder observed the run; resume and retry
// evidence when those layers were engaged. Callers add what is theirs
// alone (a failure summary); the CLI layer stamps Version/CreatedAt
// before persisting.
func (st *Stats) Manifest(figure, title string, seed int64, cfg any, rec *obs.Recorder, elapsed time.Duration) *obs.Manifest {
	m := &obs.Manifest{
		Schema:    obs.ManifestSchema,
		Figure:    figure,
		Title:     title,
		Seed:      seed,
		GoVersion: runtime.Version(),
		ElapsedNS: elapsed.Nanoseconds(),
	}
	if cfgJSON, err := json.Marshal(cfg); err == nil {
		m.Config = cfgJSON
	}
	if rec != nil {
		snap := rec.Snapshot()
		m.Instrumented = true
		m.Phases = snap.Phases
		m.Counters = snap.Counters
		m.Solver = snap.Solver
	}
	if st.journal != nil {
		m.Resume = &obs.ResumeSummary{
			Journal:      st.journal.Path(),
			ConfigHash:   st.journal.Header().ConfigHash,
			TotalCells:   st.totalCells,
			SkippedCells: int(st.resumedCells.Load()),
		}
		// Distinct cells on record minus the skips is what this run
		// contributed (last-write-wins dedup makes Len distinct).
		if n := st.journal.Len() - m.Resume.SkippedCells; n > 0 {
			m.Resume.RecordedCells = n
		}
	}
	if st.maxRetries > 0 {
		m.Retries = &obs.RetrySummary{
			MaxRetries:     st.maxRetries,
			Attempts:       st.retryAttempts.Load(),
			RecoveredCells: st.retryRecovered.Load(),
			ExhaustedCells: st.retryExhausted.Load(),
		}
	}
	return m
}
