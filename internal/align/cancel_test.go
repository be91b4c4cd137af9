package align

import (
	"context"
	"errors"
	"testing"

	"mmwalign/internal/cmat"
	"mmwalign/internal/meas"
)

// cancelProber counts pair soundings and vector snapshots alike and
// calls cancel once after measurement number after has been taken.
type cancelProber struct {
	meas.Prober
	after  int
	n      int
	cancel context.CancelFunc
}

func (p *cancelProber) tick() {
	p.n++
	if p.n == p.after {
		p.cancel()
	}
}

func (p *cancelProber) Measure(tx, rx int, u, v cmat.Vector) meas.Measurement {
	defer p.tick()
	return p.Prober.Measure(tx, rx, u, v)
}

func (p *cancelProber) MeasureVector(tx int, u cmat.Vector) meas.VectorMeasurement {
	defer p.tick()
	return p.Prober.MeasureVector(tx, u)
}

// TestEvaluateContextCancellation: every built-in strategy stops with
// the bare context error when its context is cancelled, both before the
// run starts (no measurement is taken) and mid-run (the search stops
// well short of its budget).
func TestEvaluateContextCancellation(t *testing.T) {
	const (
		budget = 64
		after  = 5
	)
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			t.Run("before", func(t *testing.T) {
				env := testEnv(t, 23, 1, false)
				s, err := ForScheme(name, env.RXBook, SchemeSpec{J: 4})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				p := &cancelProber{Prober: env.Sounder, cancel: cancel}
				env.Sounder = p
				if _, err := EvaluateContext(ctx, env, s, budget); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if p.n != 0 {
					t.Errorf("%d measurements taken under a cancelled context", p.n)
				}
			})
			t.Run("mid-run", func(t *testing.T) {
				env := testEnv(t, 23, 1, false)
				s, err := ForScheme(name, env.RXBook, SchemeSpec{J: 4})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				p := &cancelProber{Prober: env.Sounder, after: after, cancel: cancel}
				env.Sounder = p
				if _, err := EvaluateContext(ctx, env, s, budget); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if p.n >= budget {
					t.Errorf("took %d measurements after cancelling at %d; want fewer than the budget %d", p.n, after, budget)
				}
			})
		})
	}
}
