package experiment

// Checkpoint/resume and retry-engine tests exercised by the CI resume
// smoke job: a run killed mid-flight resumes from its journal into a
// figure byte-identical to an uninterrupted run (at any worker count,
// under -race), transient faults are absorbed by retries without
// touching the MaxFailedDrops budget, and the manifest carries the
// resume/retry evidence for both.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mmwalign/internal/align"
	"mmwalign/internal/faultinject"
	"mmwalign/internal/journal"
	"mmwalign/internal/metrics"
	"mmwalign/internal/obs"
)

// identicalSeries compares two figure series bit-for-bit: a resumed run
// must reproduce not approximately but exactly.
func identicalSeries(t *testing.T, got, want []metrics.Series) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("series count %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name {
			t.Fatalf("series %d name %q, want %q", i, g.Name, w.Name)
		}
		for _, pair := range []struct {
			label string
			g, w  []float64
		}{{"X", g.X, w.X}, {"Y", g.Y, w.Y}, {"YErr", g.YErr, w.YErr}} {
			if len(pair.g) != len(pair.w) {
				t.Fatalf("series %s %s length %d, want %d", g.Name, pair.label, len(pair.g), len(pair.w))
			}
			for j := range pair.w {
				if math.Float64bits(pair.g[j]) != math.Float64bits(pair.w[j]) {
					t.Fatalf("series %s %s[%d] = %v (bits %x), want %v (bits %x): resume is not bit-identical",
						g.Name, pair.label, j, pair.g[j], math.Float64bits(pair.g[j]), pair.w[j], math.Float64bits(pair.w[j]))
				}
			}
		}
	}
}

// openTestJournal creates or resumes a journal for fig5 at cfg.
func openTestJournal(t *testing.T, path string, cfg Config, resume bool) *journal.Journal {
	t.Helper()
	h, err := JournalHeader(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var jnl *journal.Journal
	if resume {
		jnl, err = journal.Open(path, h)
	} else {
		jnl, err = journal.Create(path, h)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	return jnl
}

func TestCheckpointResumeBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(map[int]string{1: "workers=1", 8: "workers=8"}[workers], func(t *testing.T) {
			cfg := tinyConfig(false)
			cfg.Workers = workers

			// Ground truth: one uninterrupted run, no journal.
			clean, err := SearchEffectivenessContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Crash: drop 1 panics, strict mode, journal armed. The run
			// fails, but every cell that completed first is on disk.
			path := filepath.Join(t.TempDir(), "fig5.journal")
			crashed := cfg
			crashed.WrapSounder = panicOnDrop(1)
			crashed.Journal = openTestJournal(t, path, cfg, false)
			if _, err := SearchEffectivenessContext(context.Background(), crashed); err == nil {
				t.Fatal("injected panic did not fail the strict run")
			}
			crashed.Journal.Close()

			recorded := crashed.Journal.Len()
			if recorded == 0 {
				t.Fatal("crashed run journaled nothing; resume would restart from scratch")
			}
			if recorded >= cfg.Drops*len(cfg.Schemes) {
				t.Fatalf("crashed run journaled all %d cells including the panicked drop", recorded)
			}

			// Resume without the fault. Instrument so the manifest carries
			// the resume evidence.
			resumed := cfg
			resumed.Journal = openTestJournal(t, path, cfg, true)
			rec := obs.New()
			fig, err := SearchEffectivenessContext(obs.Into(context.Background(), rec), resumed)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			identicalSeries(t, fig.Series, clean.Series)

			if fig.Manifest == nil || fig.Manifest.Resume == nil {
				t.Fatal("resumed run manifest lacks resume evidence")
			}
			res := fig.Manifest.Resume
			if res.SkippedCells != recorded {
				t.Errorf("manifest says %d skipped cells, journal held %d", res.SkippedCells, recorded)
			}
			if res.TotalCells != cfg.Drops*len(cfg.Schemes) {
				t.Errorf("manifest total cells = %d, want %d", res.TotalCells, cfg.Drops*len(cfg.Schemes))
			}
			if res.SkippedCells+res.RecordedCells != res.TotalCells {
				t.Errorf("skipped %d + recorded %d != total %d", res.SkippedCells, res.RecordedCells, res.TotalCells)
			}
			if err := fig.Manifest.Validate(); err != nil {
				t.Errorf("resumed manifest invalid: %v", err)
			}
		})
	}
}

func TestCheckpointCancelMidRunThenResume(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.Workers = 2

	clean, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after the second completed cell via the progress hook —
	// the same path a SIGINT takes through the CLIs.
	path := filepath.Join(t.TempDir(), "fig5.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.New()
	rec.SetProgress(func(p obs.Progress) {
		if p.Done >= 2 {
			cancel()
		}
	})
	interrupted := cfg
	interrupted.Journal = openTestJournal(t, path, cfg, false)
	if _, err := SearchEffectivenessContext(obs.Into(ctx, rec), interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	interrupted.Journal.Close()

	resumed := cfg
	resumed.Journal = openTestJournal(t, path, cfg, true)
	fig, err := SearchEffectivenessContext(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resume after cancellation failed: %v", err)
	}
	identicalSeries(t, fig.Series, clean.Series)
}

func TestCheckpointRefusesChangedConfig(t *testing.T) {
	cfg := tinyConfig(false)
	path := filepath.Join(t.TempDir(), "fig5.journal")
	openTestJournal(t, path, cfg, false).Close()

	drifted := cfg
	drifted.GammaDB = 3 // changes figure numbers → changes the hash
	h, err := JournalHeader(5, drifted)
	if err != nil {
		t.Fatal(err)
	}
	var me *journal.MismatchError
	if _, err := journal.Open(path, h); !errors.As(err, &me) || me.Field != "config_hash" {
		t.Fatalf("drifted config resume returned %v, want *MismatchError on config_hash", err)
	}

	// Runtime-only knobs must NOT invalidate a journal: resuming with a
	// different worker count or retry budget is the whole point.
	tuned := cfg
	tuned.Workers = 7
	tuned.MaxFailedDrops = 3
	tuned.MaxRetries = 2
	tuned.RetryBackoff = 1
	if got, want := tuned.CanonicalHash(), cfg.CanonicalHash(); got != want {
		t.Error("runtime knobs changed the canonical config hash")
	}
	if cfg.CanonicalHash() == drifted.CanonicalHash() {
		t.Error("figure-affecting change left the canonical hash untouched")
	}
}

func TestRetryRecoversTransientFaultWithoutBudget(t *testing.T) {
	cfg := tinyConfig(false)

	clean, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every cell's first attempt panics; the second runs untouched.
	// MaxFailedDrops stays 0 (strict): success proves retries absorbed
	// the faults without consuming the failure budget.
	faulted := cfg
	faulted.WrapSounder = faultinject.WrapTransient(1, faultinject.TransientPanic)
	faulted.MaxRetries = 1
	rec := obs.New()
	fig, err := SearchEffectivenessContext(obs.Into(context.Background(), rec), faulted)
	if err != nil {
		t.Fatalf("transient faults defeated the retry engine: %v", err)
	}
	if fig.Failures != nil {
		t.Fatalf("recovered cells still reported as failures: %+v", fig.Failures)
	}
	// Retried cells are pure functions of (seed, drop, scheme): the
	// figure must match the unfaulted run exactly.
	identicalSeries(t, fig.Series, clean.Series)

	if fig.Manifest == nil || fig.Manifest.Retries == nil {
		t.Fatal("manifest lacks retry evidence")
	}
	rt := fig.Manifest.Retries
	wantCells := int64(cfg.Drops * len(cfg.Schemes))
	if rt.MaxRetries != 1 || rt.RecoveredCells != wantCells || rt.ExhaustedCells != 0 {
		t.Errorf("retry evidence = %+v, want all %d cells recovered with none exhausted", rt, wantCells)
	}
	if rt.Attempts < wantCells {
		t.Errorf("retry attempts = %d, want at least %d", rt.Attempts, wantCells)
	}
	if err := fig.Manifest.Validate(); err != nil {
		t.Errorf("manifest with retry evidence invalid: %v", err)
	}
}

func TestRetryRecoversNaNModeFault(t *testing.T) {
	cfg := tinyConfig(false)
	faulted := cfg
	faulted.WrapSounder = faultinject.WrapTransient(1, faultinject.TransientNaN)
	faulted.MaxRetries = 1
	fig, err := SearchEffectivenessContext(context.Background(), faulted)
	if err != nil {
		// NaN poisoning degrades rather than fails on some strategies;
		// either a clean success or a retried success is acceptable, an
		// error is not.
		t.Fatalf("NaN-mode transient fault failed the run: %v", err)
	}
	for _, s := range fig.Series {
		if err := s.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestRetryExhaustedReportsAttempts(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.WrapSounder = panicOnDrop(0) // permanent: every attempt panics
	cfg.MaxRetries = 2

	_, err := SearchEffectivenessContext(context.Background(), cfg)
	if err == nil {
		t.Fatal("permanent fault survived strict mode")
	}
	if !strings.Contains(err.Error(), "2 retries burned over 3 attempts") {
		t.Errorf("error lacks retry attribution: %v", err)
	}

	// Under budget, the failure report itself carries the attempt count.
	cfg.MaxFailedDrops = 1
	fig, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Failures == nil || len(fig.Failures.Failures) == 0 {
		t.Fatal("budgeted permanent failure left no report")
	}
	for _, f := range fig.Failures.Failures {
		if f.Attempts != 3 {
			t.Errorf("cell (%d,%s) reports %d attempts, want 3 (1 + 2 retries)", f.Drop, f.Scheme, f.Attempts)
		}
	}
	if fig.Manifest == nil || fig.Manifest.Retries == nil {
		t.Fatal("manifest lacks retry evidence for exhausted cells")
	}
	if fig.Manifest.Retries.ExhaustedCells != int64(len(fig.Failures.Failures)) {
		t.Errorf("manifest exhausted cells = %d, failure report lists %d",
			fig.Manifest.Retries.ExhaustedCells, len(fig.Failures.Failures))
	}
	if err := fig.Manifest.Validate(); err != nil {
		t.Errorf("manifest invalid: %v", err)
	}
}

func TestTrajectoryCodecRoundTripIsBitExact(t *testing.T) {
	tr := align.Trajectory{
		Scheme:          "proposed",
		OptPair:         align.Pair{TX: 3, RX: 41},
		OptSNR:          1.2345678901234567e-3,
		LossDB:          []float64{math.Inf(1), math.Inf(1), 7.062999999999999, 0, math.SmallestNonzeroFloat64, -0.0},
		BestPair:        align.Pair{TX: 9, RX: 2},
		BestMeasuredSNR: math.MaxFloat64,
		BestTrueSNR:     math.Nextafter(1, 2),
	}
	data, err := encodeTrajectory(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeTrajectory(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != tr.Scheme || got.OptPair != tr.OptPair || got.BestPair != tr.BestPair {
		t.Errorf("identity fields mangled: %+v", got)
	}
	for _, pair := range []struct{ g, w float64 }{
		{got.OptSNR, tr.OptSNR},
		{got.BestMeasuredSNR, tr.BestMeasuredSNR},
		{got.BestTrueSNR, tr.BestTrueSNR},
	} {
		if math.Float64bits(pair.g) != math.Float64bits(pair.w) {
			t.Errorf("scalar %v (bits %x) != %v (bits %x)", pair.g, math.Float64bits(pair.g), pair.w, math.Float64bits(pair.w))
		}
	}
	if len(got.LossDB) != len(tr.LossDB) {
		t.Fatalf("LossDB length %d, want %d", len(got.LossDB), len(tr.LossDB))
	}
	for i := range tr.LossDB {
		if math.Float64bits(got.LossDB[i]) != math.Float64bits(tr.LossDB[i]) {
			t.Errorf("LossDB[%d] bits %x, want %x (value %v)", i, math.Float64bits(got.LossDB[i]), math.Float64bits(tr.LossDB[i]), tr.LossDB[i])
		}
	}
}

// TestCanonicalHashPinned pins the default Fig. 5 config hash: a change
// to the hashed JSON (a field, a tag, a default, the hash function)
// would silently orphan every journal already written.
func TestCanonicalHashPinned(t *testing.T) {
	h, err := JournalHeader(5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "a89f986cc3df1f537ea45d47bc6e7834c2c70004c7d68c9ea58a68519340ad25"; h.ConfigHash != want {
		t.Fatalf("default fig5 config hash %s, want %s", h.ConfigHash, want)
	}
}
