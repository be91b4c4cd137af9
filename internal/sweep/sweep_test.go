package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mmwalign/internal/journal"
	"mmwalign/internal/obs"
)

var testSchemes = []string{"a", "b", "c"}

// intSpec is a sweep over a trivial payload: cell (drop, scheme) is
// drop·10 + the scheme's index, journaled as a JSON number.
func intSpec(drops int, cell func(ctx context.Context, drop int, scheme string) (int, error)) Spec[int] {
	if cell == nil {
		cell = func(_ context.Context, drop int, scheme string) (int, error) {
			return drop*10 + strings.Index("abc", scheme), nil
		}
	}
	return Spec[int]{
		Name:    "test",
		Drops:   drops,
		Schemes: testSchemes,
		Cell:    cell,
		Encode: func(v int) (json.RawMessage, error) {
			return json.Marshal(v)
		},
		Decode: func(data json.RawMessage) (int, error) {
			var v int
			err := json.Unmarshal(data, &v)
			return v, err
		},
	}
}

func testJournal(t *testing.T, drops int) (*journal.Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := journal.Create(path, Header("test", "hash", 1, drops, testSchemes))
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

func TestPanicBecomesAttributedPanicError(t *testing.T) {
	s := intSpec(3, func(_ context.Context, drop int, scheme string) (int, error) {
		if drop == 1 && scheme == "b" {
			panic("index out of range")
		}
		return drop, nil
	})
	res, _, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for drop, row := range res {
		for si, r := range row {
			if drop == 1 && si == 1 {
				var pe *PanicError
				if !errors.As(r.Err, &pe) {
					t.Fatalf("panicking cell error %v is not a *PanicError", r.Err)
				}
				if pe.Drop != 1 || pe.Scheme != "b" || pe.Value != "index out of range" || len(pe.Stack) == 0 {
					t.Fatalf("panic misattributed: drop %d scheme %q value %v stack %d bytes", pe.Drop, pe.Scheme, pe.Value, len(pe.Stack))
				}
				if r.Attempts != 1 {
					t.Errorf("attempts = %d, want 1", r.Attempts)
				}
				continue
			}
			if r.Err != nil || r.Value != drop {
				t.Errorf("cell (%d, %d) = %v, %v; a neighbour's panic leaked", drop, si, r.Value, r.Err)
			}
		}
	}
}

func TestCellErrorsAreAttributed(t *testing.T) {
	boom := errors.New("boom")
	s := intSpec(2, func(_ context.Context, drop int, scheme string) (int, error) {
		if drop == 1 && scheme == "c" {
			return 0, boom
		}
		return 0, nil
	})
	res, _, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := res[1][2].Err
	if !errors.Is(got, boom) || got.Error() != "test: drop 1 scheme c: boom" {
		t.Fatalf("cell error = %v, want the attributed boom", got)
	}
}

func TestJournalRecordFailureReturnedAfterDrain(t *testing.T) {
	j, _ := testJournal(t, 4)
	// A closed journal refuses every Record: each cell computes, then
	// fails to checkpoint.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	s := intSpec(4, func(_ context.Context, drop int, _ string) (int, error) {
		ran.Add(1)
		return drop, nil
	})
	s.Journal = j
	s.Workers = 3
	res, _, err := s.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "test: checkpoint journal write failed") {
		t.Fatalf("err = %v, want the journal write failure", err)
	}
	if res != nil {
		t.Error("a run whose checkpoint failed returned results")
	}
	if got := ran.Load(); got != 12 {
		t.Errorf("%d of 12 cells ran before the error was returned; the pool did not drain", got)
	}
}

func TestUndecodablePayloadIsRecomputed(t *testing.T) {
	j, _ := testJournal(t, 2)
	defer j.Close()
	// (0, a) is on record with a valid payload, (1, b) with one the
	// codec rejects.
	if err := j.Record(0, "a", json.RawMessage(`0`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, "b", json.RawMessage(`"not a number"`)); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	s := intSpec(2, nil)
	cell := s.Cell
	s.Cell = func(ctx context.Context, drop int, scheme string) (int, error) {
		ran.Add(1)
		return cell(ctx, drop, scheme)
	}
	s.Journal = j
	rec := obs.New()
	res, _, err := s.Run(obs.Into(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	if got := res[1][1]; got.Err != nil || got.Value != 11 || got.Attempts != 1 {
		t.Fatalf("undecodable cell = %+v, want recomputed 11", got)
	}
	if got := res[0][0]; got.Attempts != 0 {
		t.Errorf("journaled cell ran %d times, want a resume skip", got.Attempts)
	}
	if got := ran.Load(); got != 5 {
		t.Errorf("%d cells computed, want 5 (6 minus one resume skip)", got)
	}
	c := rec.Snapshot().Counters
	if c["resume_decode_failures"] != 1 || c["resume_skipped_cells"] != 1 || c["journal_cells_recorded"] != 5 {
		t.Errorf("counters %v, want 1 decode failure, 1 skip, 5 recorded", c)
	}
}

func TestCancelDrainsEveryWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var active, started atomic.Int64
	s := intSpec(50, func(ctx context.Context, drop int, _ string) (int, error) {
		active.Add(1)
		defer active.Add(-1)
		if started.Add(1) == 4 {
			cancel()
		}
		<-ctx.Done()
		// A worker that keeps going briefly after the cancel must still
		// be waited for.
		time.Sleep(5 * time.Millisecond)
		return 0, ctx.Err()
	})
	s.Workers = 4
	s.MaxRetries = 3
	_, _, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := active.Load(); n != 0 {
		t.Fatalf("%d cells still running after Run returned", n)
	}
	if n := started.Load(); n >= 150 {
		t.Errorf("all %d cells started despite the cancel", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestWorkerCountInvariant(t *testing.T) {
	run := func(workers int) [][]Result[int] {
		s := intSpec(20, func(_ context.Context, drop int, scheme string) (int, error) {
			if drop%7 == 3 && scheme == "b" {
				return 0, fmt.Errorf("bad drop")
			}
			return drop*drop + len(scheme), nil
		})
		s.Workers = workers
		res, _, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, eight := run(1), run(8)
	for drop := range one {
		for si := range one[drop] {
			a, b := one[drop][si], eight[drop][si]
			if a.Value != b.Value || a.Attempts != b.Attempts || fmt.Sprint(a.Err) != fmt.Sprint(b.Err) {
				t.Fatalf("cell (%d, %d): workers 1 gave %+v, workers 8 gave %+v", drop, si, a, b)
			}
		}
	}
}

func TestRetriesRescueTransientFailures(t *testing.T) {
	var calls atomic.Int64
	s := intSpec(1, func(_ context.Context, drop int, scheme string) (int, error) {
		if calls.Add(1) <= 2 {
			panic("transient")
		}
		return 7, nil
	})
	s.Schemes = []string{"a"}
	s.MaxRetries = 2
	st := s.NewStats()
	r := s.RunCell(context.Background(), 0, "a", st)
	if r.Err != nil || r.Value != 7 || r.Attempts != 3 {
		t.Fatalf("cell = %+v, want 7 after 3 attempts", r)
	}
	m := st.Manifest("test", "t", 1, struct{}{}, nil, 0)
	if m.Retries == nil || m.Retries.Attempts != 2 || m.Retries.RecoveredCells != 1 || m.Retries.ExhaustedCells != 0 {
		t.Fatalf("retry evidence %+v, want 2 attempts and 1 recovered cell", m.Retries)
	}
}

func TestOpenJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	want := Header("test", "hash", 1, 2, testSchemes)
	if want.Version != VersionString() {
		t.Errorf("header version %q, want %q", want.Version, VersionString())
	}

	// -resume with no file yet starts fresh.
	j, resumed, err := OpenJournal(path, want, true)
	if err != nil || resumed {
		t.Fatalf("resume of a missing journal: resumed=%v err=%v", resumed, err)
	}
	if j.Header().CreatedAt == "" {
		t.Error("fresh journal carries no creation time")
	}
	if err := j.Record(0, "a", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, resumed, err = OpenJournal(path, want, true)
	if err != nil || !resumed || j.Len() != 1 {
		t.Fatalf("resume: resumed=%v err=%v", resumed, err)
	}
	j.Close()

	other := want
	other.ConfigHash = "changed"
	var mismatch *journal.MismatchError
	if _, _, err := OpenJournal(path, other, true); !errors.As(err, &mismatch) {
		t.Fatalf("resume under a changed config: err = %v, want *journal.MismatchError", err)
	}

	// Without resume the file is started over.
	j, resumed, err = OpenJournal(path, want, false)
	if err != nil || resumed || j.Len() != 0 {
		t.Fatalf("fresh start over an old journal: resumed=%v err=%v", resumed, err)
	}
	j.Close()

	// A stat failure other than not-exist must not start fresh.
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(filepath.Join(file, "run.journal"), want, true); err == nil || !strings.Contains(err.Error(), "resume ") {
		t.Fatalf("unstatable path: err = %v, want a resume error", err)
	}
}
func TestRetryDelayCapped(t *testing.T) {
	if d := retryDelay(0, 5); d != 0 {
		t.Errorf("zero base gave %v", d)
	}
	base := retryDelay(1, 0)
	if base != 1 {
		t.Errorf("first retry delay = %v, want base", base)
	}
	if d := retryDelay(1, 40); d > 100 {
		t.Errorf("delay %v exceeds 100x cap", d)
	}
	if d1, d2 := retryDelay(1, 1), retryDelay(1, 2); d2 != 2*d1 {
		t.Errorf("delays not doubling: %v then %v", d1, d2)
	}
}

func TestRetryDelayOverflow(t *testing.T) {
	const maxDelay = time.Duration(math.MaxInt64)
	cases := []struct {
		name    string
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{"doubling-0", time.Millisecond, 0, time.Millisecond},
		{"doubling-1", time.Millisecond, 1, 2 * time.Millisecond},
		{"doubling-5", time.Millisecond, 5, 32 * time.Millisecond},
		{"small-base-5s-cap", time.Second, 30, 5 * time.Second},
		// 2^63·base overflows int64 for any positive base: the shift
		// count must be bounded, not wrapped through the sign bit.
		{"attempt-63", time.Nanosecond, 63, 100 * time.Nanosecond},
		{"attempt-64", time.Nanosecond, 64, 100 * time.Nanosecond},
		{"attempt-1000", time.Nanosecond, 1000, 100 * time.Nanosecond},
		// 100·base wraps int64 when base > MaxInt64/100; the cap must
		// saturate instead of going negative.
		{"base-near-max", maxDelay - 1, 0, maxDelay - 1},
		{"base-near-max-retry", maxDelay - 1, 5, maxDelay},
		{"base-near-max-attempt-63", maxDelay - 1, 63, maxDelay},
		{"base-just-over-cap-limit", maxDelay/100 + 1, 10, maxDelay},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := retryDelay(tc.base, tc.attempt)
			if got < 0 {
				t.Fatalf("retryDelay(%v, %d) = %v, negative (overflow)", tc.base, tc.attempt, got)
			}
			if got != tc.want {
				t.Errorf("retryDelay(%v, %d) = %v, want %v", tc.base, tc.attempt, got, tc.want)
			}
		})
	}
}
