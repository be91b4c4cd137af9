package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsFree(t *testing.T) {
	// Every instrumentation call must be a no-op on the disabled path:
	// nil recorder, nil phase, nil counter, zero span.
	var r *Recorder
	p := r.Phase("estimation")
	if p != nil {
		t.Fatalf("nil recorder returned non-nil phase %v", p)
	}
	sp := p.Start()
	sp.End()
	p.AddNS(5)
	c := r.Counter("events")
	c.Add(3)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	r.AddSolve(SolveSample{Iters: 10})
	r.StartRun(100)
	r.CellDone(true)
	r.SetProgress(func(Progress) { t.Error("nil recorder emitted progress") })
	if snap := r.Snapshot(); len(snap.Phases) != 0 || snap.Counters != nil {
		t.Errorf("nil recorder snapshot non-empty: %+v", snap)
	}
}

func TestRecorderConcurrentAccumulation(t *testing.T) {
	r := New()
	r.StartRun(64)
	var events []Progress
	var mu sync.Mutex
	r.SetProgress(func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			phase := r.Phase("sounding")
			cnt := r.Counter("measurements")
			for i := 0; i < 8; i++ {
				sp := phase.Start()
				cnt.Add(1)
				sp.End()
				r.AddSolve(SolveSample{Iters: 2, EigenDecomps: 1, Rank: g + 1, Recovered: i == 0})
				r.CellDone(i%4 == 0)
			}
		}(g)
	}
	wg.Wait()

	snap := r.Snapshot()
	if snap.Counters["measurements"] != 64 {
		t.Errorf("measurements = %d, want 64", snap.Counters["measurements"])
	}
	if len(snap.Phases) != 1 || snap.Phases[0].Name != "sounding" || snap.Phases[0].Count != 64 {
		t.Errorf("phases = %+v, want one sounding phase with 64 spans", snap.Phases)
	}
	if snap.Solver.Estimations != 64 || snap.Solver.Iters != 128 || snap.Solver.Recovered != 8 {
		t.Errorf("solver aggregate = %+v", snap.Solver)
	}
	if snap.Solver.MaxRank != 8 {
		t.Errorf("MaxRank = %d, want 8", snap.Solver.MaxRank)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 64 {
		t.Fatalf("progress events = %d, want 64", len(events))
	}
	final := events[len(events)-1]
	for _, e := range events {
		if e.Done > final.Done {
			final = e
		}
	}
	if final.Done != 64 || final.Total != 64 || final.Failed != 16 {
		t.Errorf("final progress = %+v, want 64/64 with 16 failed", final)
	}
}

func TestProgressETA(t *testing.T) {
	p := Progress{Done: 25, Total: 100, Elapsed: 10 * time.Second}
	if eta := p.ETA(); eta != 30*time.Second {
		t.Errorf("ETA = %v, want 30s", eta)
	}
	if eta := (Progress{Done: 0, Total: 10, Elapsed: time.Second}).ETA(); eta != 0 {
		t.Errorf("ETA with nothing done = %v, want 0", eta)
	}
	if eta := (Progress{Done: 10, Total: 10, Elapsed: time.Second}).ETA(); eta != 0 {
		t.Errorf("ETA when complete = %v, want 0", eta)
	}
}

// TestProgressETAOverflowClamps pins the long-running-sweep regression:
// a day-scale Elapsed with one cell done and a huge remainder used to
// overflow the Duration extrapolation (implementation-defined float→
// int64 conversion, observed as a negative ETA). The clamp must keep
// the estimate at MaxInt64 — "effectively forever", but ordered and
// non-negative.
func TestProgressETAOverflowClamps(t *testing.T) {
	day := 24 * time.Hour
	p := Progress{Done: 1, Total: 1 << 40, Elapsed: day}
	eta := p.ETA()
	if eta < 0 {
		t.Fatalf("ETA overflowed negative: %v", eta)
	}
	if eta != time.Duration(math.MaxInt64) {
		t.Errorf("ETA = %v, want MaxInt64 clamp", eta)
	}
	// Large but representable extrapolations must still be exact: a
	// week-scale run at 10%% done has an in-range ETA.
	p = Progress{Done: 100, Total: 1000, Elapsed: 7 * day}
	if eta := p.ETA(); eta != 63*day {
		t.Errorf("ETA = %v, want %v", eta, 63*day)
	}
}

func TestProgressPrinterThrottlesAndFlushesFinal(t *testing.T) {
	var buf bytes.Buffer
	sink := ProgressPrinter(&buf, "fig5", time.Hour)
	sink(Progress{Done: 1, Total: 4, Elapsed: time.Second})                // first: printed
	sink(Progress{Done: 2, Total: 4, Elapsed: 2 * time.Second})            // throttled
	sink(Progress{Done: 3, Total: 4, Elapsed: 3 * time.Second})            // throttled
	sink(Progress{Done: 4, Total: 4, Failed: 1, Elapsed: 4 * time.Second}) // final: printed
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("printed %d lines, want 2 (first + final):\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[1], "4/4") || !strings.Contains(lines[1], "1 failed") {
		t.Errorf("final line = %q", lines[1])
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("empty context carried a recorder")
	}
	if Into(ctx, nil) != ctx {
		t.Error("Into(nil) should return ctx unchanged")
	}
	r := New()
	if got := From(Into(ctx, r)); got != r {
		t.Errorf("From(Into(ctx, r)) = %p, want %p", got, r)
	}
}

func validManifest() *Manifest {
	return &Manifest{
		Schema:       ManifestSchema,
		Figure:       "fig5",
		Seed:         1,
		GoVersion:    "go1.22",
		Config:       json.RawMessage(`{"seed":1}`),
		Instrumented: true,
		ElapsedNS:    12345,
		Phases:       []PhaseStat{{Name: "sounding", Count: 4, TotalNS: 100}},
		Counters:     map[string]int64{"measurements": 4},
		Solver:       SolverStats{Estimations: 2, Iters: 10},
	}
}

func TestManifestValidateAndRoundTrip(t *testing.T) {
	m := validManifest()
	m.Failures = &FailureSummary{FailedDrops: 1, TotalDrops: 3,
		Cells: []FailureCell{{Drop: 2, Scheme: "proposed", Error: "boom", Attempts: 3}}}
	m.Resume = &ResumeSummary{Journal: "fig5.journal", ConfigHash: "abc123",
		SkippedCells: 2, RecordedCells: 4, TotalCells: 6}
	m.Retries = &RetrySummary{MaxRetries: 2, Attempts: 5, RecoveredCells: 3, ExhaustedCells: 1}
	m.Shard = &ShardSummary{Dir: "/tmp/shard", TotalCells: 6, MergedCells: 6, DuplicateCells: 1, StolenCells: 2,
		Workers: []ShardWorker{
			{Worker: "w1", JournaledCells: 4, ComputedCells: 4, StolenCells: 2, Reported: true},
			{Worker: "w2", JournaledCells: 3, ComputedCells: 3, Reported: false},
		}}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ParseManifest(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseManifest: %v", err)
	}
	if back.Figure != "fig5" || back.Counters["measurements"] != 4 ||
		back.Solver.Iters != 10 || back.Failures.FailedDrops != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Resume == nil || back.Resume.SkippedCells != 2 || back.Resume.Journal != "fig5.journal" {
		t.Errorf("resume evidence lost in round trip: %+v", back.Resume)
	}
	if back.Retries == nil || back.Retries.RecoveredCells != 3 || back.Retries.MaxRetries != 2 {
		t.Errorf("retry evidence lost in round trip: %+v", back.Retries)
	}
	if back.Failures.Cells[0].Attempts != 3 {
		t.Errorf("failure cell attempts lost in round trip: %+v", back.Failures.Cells[0])
	}
	if back.Shard == nil || back.Shard.StolenCells != 2 || len(back.Shard.Workers) != 2 ||
		back.Shard.Workers[1].Reported {
		t.Errorf("shard evidence lost in round trip: %+v", back.Shard)
	}
}

func TestManifestValidateRejectsBadDocuments(t *testing.T) {
	cases := map[string]func(*Manifest){
		"wrong schema":               func(m *Manifest) { m.Schema = "nope/v0" },
		"missing figure":             func(m *Manifest) { m.Figure = "" },
		"missing go version":         func(m *Manifest) { m.GoVersion = "" },
		"negative elapsed":           func(m *Manifest) { m.ElapsedNS = -1 },
		"invalid config json":        func(m *Manifest) { m.Config = json.RawMessage(`{`) },
		"instrumented but no phases": func(m *Manifest) { m.Phases = nil },
		"unnamed phase":              func(m *Manifest) { m.Phases[0].Name = "" },
		"negative counter":           func(m *Manifest) { m.Counters["measurements"] = -2 },
		"negative solver":            func(m *Manifest) { m.Solver.Iters = -1 },
		"negative eigen iters":       func(m *Manifest) { m.Solver.EigenIters = -1 },
		"negative setup madds":       func(m *Manifest) { m.Solver.SetupMadds = -1 },
		"failures exceed total": func(m *Manifest) {
			m.Failures = &FailureSummary{FailedDrops: 5, TotalDrops: 3}
		},
		"failure cell without error": func(m *Manifest) {
			m.Failures = &FailureSummary{FailedDrops: 1, TotalDrops: 3,
				Cells: []FailureCell{{Drop: 0, Scheme: "scan"}}}
		},
		"resume with zero total": func(m *Manifest) {
			m.Resume = &ResumeSummary{SkippedCells: 1}
		},
		"resume skipped exceeds total": func(m *Manifest) {
			m.Resume = &ResumeSummary{SkippedCells: 7, TotalCells: 6}
		},
		"resume recorded exceeds total": func(m *Manifest) {
			m.Resume = &ResumeSummary{RecordedCells: 7, TotalCells: 6}
		},
		"negative resume counts": func(m *Manifest) {
			m.Resume = &ResumeSummary{SkippedCells: -1, TotalCells: 6}
		},
		"negative retry counts": func(m *Manifest) {
			m.Retries = &RetrySummary{Attempts: -1}
		},
		"retry outcomes exceed attempts": func(m *Manifest) {
			m.Retries = &RetrySummary{Attempts: 2, RecoveredCells: 2, ExhaustedCells: 1}
		},
		"shard with no cells": func(m *Manifest) {
			m.Shard = &ShardSummary{}
		},
		"shard merged exceeds total": func(m *Manifest) {
			m.Shard = &ShardSummary{TotalCells: 4, MergedCells: 5}
		},
		"shard negative steals": func(m *Manifest) {
			m.Shard = &ShardSummary{TotalCells: 4, MergedCells: 4, StolenCells: -1}
		},
		"shard worker without id": func(m *Manifest) {
			m.Shard = &ShardSummary{TotalCells: 4, MergedCells: 4,
				Workers: []ShardWorker{{JournaledCells: 4}}}
		},
		"shard journaled cells unaccounted": func(m *Manifest) {
			m.Shard = &ShardSummary{TotalCells: 4, MergedCells: 4, DuplicateCells: 0,
				Workers: []ShardWorker{{Worker: "w1", JournaledCells: 5, Reported: true}}}
		},
	}
	for name, mutate := range cases {
		m := validManifest()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid manifest", name)
		}
	}
	if err := validManifest().Validate(); err != nil {
		t.Errorf("baseline manifest should validate: %v", err)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := New()
	r.Phase("estimation").AddNS(1000)
	r.Counter("measurements").Add(7)
	r.AddSolve(SolveSample{Iters: 3, EigenDecomps: 4})
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"estimation", "measurements", "1 estimations", "3 iters"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestAddSolverStatsMatchesAddSolve pins the aggregate merge: folding a
// second recorder's solver totals in equals adding its solves directly.
func TestAddSolverStatsMatchesAddSolve(t *testing.T) {
	samples := []SolveSample{
		{Iters: 3, EigenDecomps: 4, EigenIters: 90, Backtracks: 1, Rank: 2, SubspaceDim: 8, SetupMadds: 1000},
		{Iters: 5, EigenDecomps: 6, EigenIters: 140, Restarts: 1, Recovered: true, Degraded: true, Rank: 1, SubspaceDim: 12, SetupMadds: 200},
		{Iters: 1, EigenDecomps: 2, EigenIters: 7, ObjectiveEvals: 2, GradientEvals: 1, SetupMadds: 30},
	}
	direct, outer, inner := New(), New(), New()
	for i, s := range samples {
		direct.AddSolve(s)
		if i == 0 {
			outer.AddSolve(s)
		} else {
			inner.AddSolve(s)
		}
	}
	outer.AddSolverStats(inner.Snapshot().Solver)
	if got, want := outer.Snapshot().Solver, direct.Snapshot().Solver; got != want {
		t.Errorf("merged aggregate %+v, want %+v", got, want)
	}
	if got := direct.Snapshot().Solver.EigenIters; got != 237 {
		t.Errorf("EigenIters total = %d, want 237", got)
	}
	if got := direct.Snapshot().Solver.SetupMadds; got != 1230 {
		t.Errorf("SetupMadds total = %d, want 1230", got)
	}
	var nilRec *Recorder
	nilRec.AddSolverStats(SolverStats{Estimations: 1})
}
