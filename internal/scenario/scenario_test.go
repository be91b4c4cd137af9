package scenario

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmwalign/internal/journal"
	"mmwalign/internal/metrics"
)

// tinyConfig is a sweep small enough for -race test runs: 2 speeds × 2
// UEs × 3 schemes over 6 superframes on 2×2/4×4 arrays (T = 64 pairs).
func tinyConfig() Config {
	return Config{
		Seed:         7,
		UEs:          2,
		Frames:       6,
		SlotBudget:   64,
		AlignSlots:   16,
		RealignEvery: 3,
		SpeedsMPS:    []float64{2, 20},
		TXx:          2, TXz: 2, RXx: 4, RXz: 4,
		TXBookAz: 2, TXBookEl: 2, RXBookAz: 4, RXBookEl: 4,
		Snapshots: 2, J: 4, Window: 32, EstimatorIters: 10,
		Schemes: []string{"proposed", "proposed-warm", "exhaustive"},
	}
}

// renderCSV flattens a result into the byte stream figgen writes, the
// unit the determinism guarantees are stated over.
func renderCSV(t *testing.T, res Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteCSV(&buf, res.Time.XLabel, res.Time.Series); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteCSV(&buf, res.Speed.XLabel, res.Speed.Series); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScenarioSmoke(t *testing.T) {
	cfg := tinyConfig()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Traces); got != cfg.Drops() {
		t.Fatalf("traces for %d drops, want %d", got, cfg.Drops())
	}
	for drop, row := range res.Traces {
		for si, tr := range row {
			if tr.Scheme != cfg.Schemes[si] {
				t.Fatalf("drop %d slot %d scheme %q, want %q", drop, si, tr.Scheme, cfg.Schemes[si])
			}
			if len(tr.Frames) != cfg.Frames {
				t.Fatalf("drop %d %s: %d frames, want %d", drop, tr.Scheme, len(tr.Frames), cfg.Frames)
			}
			// Cadence: frames 0 and 3 realign under RealignEvery=3.
			if tr.Realigns != 2 {
				t.Errorf("drop %d %s: %d realigns, want 2", drop, tr.Scheme, tr.Realigns)
			}
			if tr.Efficiency < 0 || tr.Efficiency > 1+1e-12 {
				t.Errorf("drop %d %s: efficiency %g outside [0,1]", drop, tr.Scheme, tr.Efficiency)
			}
			for _, f := range tr.Frames {
				if f.Outage && f.DataBits != 0 {
					t.Errorf("drop %d %s frame %d: outage frame delivered %g bits", drop, tr.Scheme, f.Frame, f.DataBits)
				}
				if !f.Realigned && f.TrainSlots != 0 {
					t.Errorf("drop %d %s frame %d: tracking frame paid %d train slots", drop, tr.Scheme, f.Frame, f.TrainSlots)
				}
			}
		}
	}
	if len(res.Time.Series) != len(cfg.Schemes) || len(res.Speed.Series) != len(cfg.Schemes) {
		t.Fatalf("figure series %d/%d, want %d per figure", len(res.Time.Series), len(res.Speed.Series), len(cfg.Schemes))
	}
	for _, s := range res.Time.Series {
		if len(s.X) != cfg.Frames {
			t.Fatalf("time series %s has %d points, want %d", s.Name, len(s.X), cfg.Frames)
		}
	}
	for _, s := range res.Speed.Series {
		if len(s.X) != len(cfg.SpeedsMPS) {
			t.Fatalf("speed series %s has %d points, want %d", s.Name, len(s.X), len(cfg.SpeedsMPS))
		}
	}
	if err := res.Manifest.Validate(); err != nil {
		t.Fatalf("manifest: %v", err)
	}
}

// The sweep must be worker-count invariant: the same config at
// Workers=1 and Workers=8 renders byte-identical CSVs.
func TestScenarioWorkerInvariance(t *testing.T) {
	cfg1 := tinyConfig()
	cfg1.Workers = 1
	res1, err := RunContext(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := tinyConfig()
	cfg8.Workers = 8
	res8, err := RunContext(context.Background(), cfg8)
	if err != nil {
		t.Fatal(err)
	}
	b1, b8 := renderCSV(t, res1), renderCSV(t, res8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("Workers=1 and Workers=8 CSVs differ:\n--- w1\n%s\n--- w8\n%s", b1, b8)
	}
}

// All schemes of a drop must experience the identical moving channel:
// the genie (scheme-independent) throughput sequence has to agree
// bitwise across schemes.
func TestScenarioSchemesShareDynamics(t *testing.T) {
	res, err := RunContext(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for drop, row := range res.Traces {
		for si := 1; si < len(row); si++ {
			for f := range row[0].Frames {
				a, b := row[0].Frames[f], row[si].Frames[f]
				if math.Float64bits(a.GenieBits) != math.Float64bits(b.GenieBits) {
					t.Fatalf("drop %d frame %d: genie bits differ between %s and %s", drop, f, row[0].Scheme, row[si].Scheme)
				}
				if a.Blocked != b.Blocked {
					t.Fatalf("drop %d frame %d: blockage differs between schemes", drop, f)
				}
			}
		}
	}
}

// The warm variant must behave differently from the cold proposed
// somewhere in the sweep — if the carried estimate never changes a
// decision, the option is dead weight.
func TestScenarioWarmDiffersFromCold(t *testing.T) {
	res, err := RunContext(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Traces {
		for f := range row[0].Frames {
			if row[0].Frames[f].SelSNRDB != row[1].Frames[f].SelSNRDB {
				return // diverged: warm state influenced a selection
			}
		}
	}
	t.Fatal("proposed and proposed-warm produced identical traces everywhere")
}

func TestTraceCodecRoundTrip(t *testing.T) {
	tr := Trace{
		Scheme:   "proposed",
		SpeedIdx: 1,
		UE:       3,
		Frames: []FramePoint{
			{Frame: 0, Realigned: true, TrainSlots: 16, SelSNRDB: 3.7, OptSNRDB: 5.1, DataBits: 123.456, GenieBits: 200.5, Blocked: 1},
			{Frame: 1, SelSNRDB: math.Inf(-1), OptSNRDB: 4.9, Outage: true, DataBits: 0, GenieBits: 199.25},
		},
	}
	payload, err := encodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeTrace(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != tr.Scheme || got.SpeedIdx != tr.SpeedIdx || got.UE != tr.UE || len(got.Frames) != len(tr.Frames) {
		t.Fatalf("identity fields mangled: %+v", got)
	}
	for i := range tr.Frames {
		a, b := tr.Frames[i], got.Frames[i]
		if math.Float64bits(a.SelSNRDB) != math.Float64bits(b.SelSNRDB) ||
			math.Float64bits(a.OptSNRDB) != math.Float64bits(b.OptSNRDB) ||
			math.Float64bits(a.DataBits) != math.Float64bits(b.DataBits) ||
			math.Float64bits(a.GenieBits) != math.Float64bits(b.GenieBits) {
			t.Fatalf("frame %d floats not bit-exact: %+v vs %+v", i, a, b)
		}
		if a.Realigned != b.Realigned || a.TrainSlots != b.TrainSlots || a.Outage != b.Outage || a.Blocked != b.Blocked {
			t.Fatalf("frame %d fields mangled: %+v vs %+v", i, a, b)
		}
	}
	if got.OutageFrames != 1 || got.Realigns != 1 {
		t.Fatalf("aggregates not recomputed: %+v", got)
	}
}

func TestCanonicalHashIgnoresRuntimeKnobs(t *testing.T) {
	a := tinyConfig()
	b := tinyConfig()
	b.Workers = 8
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("Workers changed the canonical hash")
	}
	c := tinyConfig()
	c.Seed = 8
	if a.CanonicalHash() == c.CanonicalHash() {
		t.Fatal("Seed did not change the canonical hash")
	}
}

// An interrupted journaled run resumed from its journal must render a
// CSV byte-identical to an uninterrupted run.
func TestScenarioResumeByteIdentity(t *testing.T) {
	baseline, err := RunContext(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := renderCSV(t, baseline)

	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.journal")
	j, err := journal.Create(path, JournalHeader(tinyConfig()))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt mid-run: cancel shortly after the sweep starts. Some
	// cells land in the journal, the rest are cut off.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	cfg := tinyConfig()
	cfg.Workers = 2
	cfg.Journal = j
	_, err = RunContext(ctx, cfg)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	interrupted := err != nil
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume from the journal and compare bytes.
	j2, err := journal.Open(path, JournalHeader(tinyConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfg2 := tinyConfig()
	cfg2.Journal = j2
	res, err := RunContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	got := renderCSV(t, res)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed CSV differs from uninterrupted run (interrupted=%v):\n--- want\n%s\n--- got\n%s", interrupted, want, got)
	}
	if res.Manifest.Resume == nil {
		t.Fatal("resumed run manifest has no resume summary")
	}
}

// Cancellation must propagate out as context.Canceled with no partial
// result.
func TestScenarioCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, tinyConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := tinyConfig()
	bad.Motion = "teleport"
	if _, err := RunContext(context.Background(), bad); err == nil {
		t.Fatal("unknown motion model accepted")
	}
	bad2 := tinyConfig()
	bad2.AlignSlots = 100
	bad2.SlotBudget = 50
	if _, err := RunContext(context.Background(), bad2); err == nil {
		t.Fatal("align slots exceeding slot budget accepted")
	}
	bad3 := tinyConfig()
	bad3.Mu = -1
	if _, err := RunContext(context.Background(), bad3); err == nil || !strings.Contains(err.Error(), "mu -1") {
		t.Fatalf("mu -1: err = %v, want it refused", err)
	}
}

// TestCanonicalHashPinned pins the default config hash: a change to the
// hashed JSON (a field, a tag, a default, the hash function) would
// silently orphan every scenario journal already written.
func TestCanonicalHashPinned(t *testing.T) {
	if got, want := (Config{}).CanonicalHash(), "80ad4e4d061b441f013ae768ad11da79adf1ed5a9b6580d30c72513d9cf7cdb6"; got != want {
		t.Fatalf("default scenario config hash %s, want %s", got, want)
	}
}
