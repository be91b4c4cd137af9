package experiment

// Engine-level fault-tolerance tests exercised by the fault-injection
// CI smoke job (go test -run FaultInject -race ./...): worker panics
// become attributed errors, the error budget turns failed drops into
// first-class partial results, cancellation drains cleanly without
// leaking goroutines, and all of it stays deterministic across worker
// counts.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"mmwalign/internal/cmat"
	"mmwalign/internal/faultinject"
	"mmwalign/internal/meas"
	"mmwalign/internal/sweep"
)

// panicProber crashes on the first pair measurement — the stand-in for
// a latent shape or index bug inside one drop's linear algebra.
type panicProber struct {
	meas.Prober
}

func (p *panicProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	panic("faultinject: deliberate measurement panic")
}

// panicOnDrop wraps the sounder of a single drop with panicProber.
func panicOnDrop(target int) func(drop int, scheme string, p meas.Prober) meas.Prober {
	return func(drop int, scheme string, p meas.Prober) meas.Prober {
		if drop == target {
			return &panicProber{Prober: p}
		}
		return p
	}
}

func TestFaultInjectPanicIsolatedUnderBudget(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.WrapSounder = panicOnDrop(1)
	cfg.MaxFailedDrops = 1

	fig, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("a budgeted panic must not fail the figure: %v", err)
	}
	if fig.Failures == nil {
		t.Fatal("figure carries no failure report")
	}
	if fig.Failures.FailedDrops != 1 || fig.Failures.TotalDrops != cfg.Drops {
		t.Fatalf("report = %+v, want 1 of %d drops failed", fig.Failures, cfg.Drops)
	}
	var pe *sweep.PanicError
	if !errors.As(fig.Failures.Err(), &pe) {
		t.Fatalf("joined failures lack a *PanicError: %v", fig.Failures.Err())
	}
	if pe.Drop != 1 || len(pe.Stack) == 0 {
		t.Errorf("panic attribution = drop %d, stack %d bytes; want drop 1 with a stack", pe.Drop, len(pe.Stack))
	}
	// The failed drop is excluded for every scheme.
	for _, f := range fig.Failures.Failures {
		if f.Drop != 1 {
			t.Errorf("unexpected failed cell %+v", f)
		}
	}
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if math.IsNaN(y) {
				t.Errorf("series %s point %d is NaN after exclusion", s.Name, i)
			}
		}
	}
}

func TestFaultInjectPanicOverBudgetFailsWithAttribution(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.WrapSounder = panicOnDrop(0)
	// MaxFailedDrops defaults to 0: strict mode.

	_, err := SearchEffectivenessContext(context.Background(), cfg)
	if err == nil {
		t.Fatal("strict mode swallowed a panicked drop")
	}
	var pe *sweep.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error chain lacks the *PanicError: %v", err)
	}
	if pe.Drop != 0 {
		t.Errorf("panic attributed to drop %d, want 0", pe.Drop)
	}
}

func TestFaultInjectInjectedFaultsDegradeNotCrash(t *testing.T) {
	// Poisoned energies, erasures, and blockage on every cell: strategies
	// must degrade (estimator fallback to scan order) rather than fail,
	// so the figure completes with zero failed drops even in strict mode.
	cfg := tinyConfig(false)
	cfg.WrapSounder = faultinject.Wrap(faultinject.Config{
		Seed:       5,
		PNaN:       0.05,
		PInf:       0.03,
		POutlier:   0.1,
		PDrop:      0.1,
		BlockAfter: 16,
	})

	fig, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("fault injection crashed the engine: %v", err)
	}
	if fig.Failures != nil {
		t.Fatalf("graceful degradation should leave no failed drops, got %+v", fig.Failures)
	}
	if len(fig.Series) != len(cfg.Schemes) {
		t.Fatalf("series count = %d, want %d", len(fig.Series), len(cfg.Schemes))
	}
}

func TestFaultInjectWorkerCountInvariance(t *testing.T) {
	// Determinism under injection AND failure: the figure and its
	// failure report must be bit-identical regardless of worker count.
	run := func(workers int) Figure {
		cfg := tinyConfig(false)
		cfg.Workers = workers
		cfg.MaxFailedDrops = 1
		faulty := faultinject.Wrap(faultinject.Config{Seed: 5, PNaN: 0.05, POutlier: 0.1, PDrop: 0.1})
		cfg.WrapSounder = func(drop int, scheme string, p meas.Prober) meas.Prober {
			if drop == 2 {
				return &panicProber{Prober: p}
			}
			return faulty(drop, scheme, p)
		}
		fig, err := SearchEffectivenessContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fig
	}
	a, b := run(1), run(8)
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series count differs: %d vs %d", len(a.Series), len(b.Series))
	}
	for si := range a.Series {
		for i := range a.Series[si].Y {
			if a.Series[si].Y[i] != b.Series[si].Y[i] || a.Series[si].YErr[i] != b.Series[si].YErr[i] {
				t.Fatalf("series %s point %d differs across worker counts", a.Series[si].Name, i)
			}
		}
	}
	if a.Failures == nil || b.Failures == nil {
		t.Fatal("both runs should report the panicked drop")
	}
	if a.Failures.FailedDrops != b.Failures.FailedDrops || len(a.Failures.Failures) != len(b.Failures.Failures) {
		t.Fatalf("failure reports differ: %+v vs %+v", a.Failures, b.Failures)
	}
	for i := range a.Failures.Failures {
		fa, fb := a.Failures.Failures[i], b.Failures.Failures[i]
		if fa.Drop != fb.Drop || fa.Scheme != fb.Scheme {
			t.Fatalf("failure %d coordinates differ: (%d,%s) vs (%d,%s)", i, fa.Drop, fa.Scheme, fb.Drop, fb.Scheme)
		}
	}
}

func TestFaultInjectCancellationDrainsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := tinyConfig(false)
	cfg.Drops = 24 // long enough that cancellation lands mid-run
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := SearchEffectivenessContext(ctx, cfg)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled experiment did not return")
	}

	// Workers must have drained: allow the runtime a moment to retire
	// finished goroutines, then require the count back at baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after cancellation", before, after)
	}
}

func TestFaultInjectPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SearchEffectivenessContext(ctx, tinyConfig(false)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := GenerateContext(ctx, 7, tinyConfig(false)); !errors.Is(err, context.Canceled) {
		t.Fatalf("GenerateContext err = %v, want context.Canceled", err)
	}
}
