package align

import (
	"context"
	"math"
	"testing"

	"mmwalign/internal/cmat"
	"mmwalign/internal/meas"
	runobs "mmwalign/internal/obs"
)

// poisonProber corrupts the energy of exactly one measurement (by take
// order) and delegates everything else to the wrapped sounder. A NaN
// energy is rejected by the covariance estimator with ObservationError,
// so any estimation or µ-selection whose input window still contains the
// poisoned observation fails loudly.
type poisonProber struct {
	meas.Prober
	poisonIdx int
	n         int
}

func (p *poisonProber) Measure(tx, rx int, u, v cmat.Vector) meas.Measurement {
	m := p.Prober.Measure(tx, rx, u, v)
	if p.n == p.poisonIdx {
		m.Energy = math.NaN()
	}
	p.n++
	return m
}

// TestProposedWindowedMuSelection is the regression test for the
// Window+AutoMuGrid interaction: µ-selection must run on the same
// bounded window the estimator sees, not the full history. The first
// measurement is poisoned; with Window=6 every estimation window has
// slid past it by the time estimation starts (J−1=7 measurements), so
// both the per-slot estimates and the one-shot µ-selection must succeed.
// Before the fix SelectMu received the full history — poisoned
// observation included — and always failed at realistic windows.
func TestProposedWindowedMuSelection(t *testing.T) {
	env := testEnv(t, 7, 1, false)
	env.Sounder = &poisonProber{Prober: env.Sounder}

	s := NewProposed(ProposedConfig{
		J:          8,
		Window:     6,
		AutoMuGrid: []float64{0.5, 2},
	})
	rec := runobs.New()
	ctx := runobs.Into(context.Background(), rec)

	// µ-selection fires at the first estimation boundary with ≥4·J=32
	// accumulated measurements: slot 5, after 39 takes. Budget 48 leaves
	// headroom past that point.
	ms, err := s.Run(ctx, env, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 48 {
		t.Fatalf("took %d measurements, want 48", len(ms))
	}

	if got := rec.Counter("mu_selections").Value(); got != 1 {
		t.Errorf("mu_selections = %d, want 1 (windowed selection must succeed)", got)
	}
	if got := rec.Counter("mu_select_failures").Value(); got != 0 {
		t.Errorf("mu_select_failures = %d, want 0: selection saw observations outside the window", got)
	}
	// Guard the test's own premise: the per-slot estimator, which runs on
	// the same window, must never have tripped over the poisoned
	// observation either.
	if got := rec.Counter("estimator_fallbacks").Value(); got != 0 {
		t.Errorf("estimator_fallbacks = %d, want 0: estimation window leaked the poisoned observation", got)
	}
}

// TestProposedFullHistoryHitsPoison pins the counter contract from the
// other side: with an unbounded window (Window=0) the poisoned first
// measurement stays in every estimation input, so the strategy must
// degrade to scan-order selection (estimator_fallbacks) instead of
// erroring the run, and µ-selection is never reached.
func TestProposedFullHistoryHitsPoison(t *testing.T) {
	env := testEnv(t, 7, 1, false)
	env.Sounder = &poisonProber{Prober: env.Sounder}

	s := NewProposed(ProposedConfig{
		J:          8,
		AutoMuGrid: []float64{0.5, 2},
	})
	rec := runobs.New()
	ctx := runobs.Into(context.Background(), rec)

	ms, err := s.Run(ctx, env, 48)
	if err != nil {
		t.Fatalf("poisoned history must degrade, not fail: %v", err)
	}
	if len(ms) != 48 {
		t.Fatalf("took %d measurements, want 48", len(ms))
	}
	if got := rec.Counter("estimator_fallbacks").Value(); got == 0 {
		t.Error("estimator_fallbacks = 0, want ≥1: full-history estimation should hit the poisoned observation")
	}
	if got := rec.Counter("mu_selections").Value(); got != 0 {
		t.Errorf("mu_selections = %d, want 0: run degrades before the selection threshold", got)
	}
}
