package align

import (
	"context"
	"math"
	"testing"

	"mmwalign/internal/antenna"
	"mmwalign/internal/covest"
)

// The warm-start variant must carry its covariance estimate across
// successive Run calls: nil before the first alignment, populated
// after, and the stored factor must never be written again, so later
// runs cannot corrupt an estimate a caller is still reading.
func TestProposedWarmCarriesEstimate(t *testing.T) {
	env := testEnv(t, 11, 1, false)
	st, err := ForScheme("proposed-warm", env.RXBook, SchemeSpec{J: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "proposed-warm" {
		t.Fatalf("Name() = %q, want proposed-warm", st.Name())
	}
	ps, ok := st.(*ProposedStrategy)
	if !ok {
		t.Fatalf("proposed-warm is %T, want *ProposedStrategy", st)
	}
	if ps.cfg.Warm == nil {
		t.Fatal("proposed-warm constructed without a WarmState")
	}
	if ps.cfg.Warm.Q != nil {
		t.Fatal("WarmState.Q non-nil before any alignment")
	}

	ms, err := st.Run(context.Background(), env, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 48 {
		t.Fatalf("first run took %d measurements, want 48", len(ms))
	}
	q1 := ps.cfg.Warm.Q
	if q1 == nil {
		t.Fatal("WarmState.Q still nil after a full alignment")
	}

	// A second alignment on the same link must seed from q1 and store a
	// fresh factor, never mutate q1 in place.
	uhCopy, sCopy := q1.UH.Clone(), append([]float64(nil), q1.S...)
	if _, err := st.Run(context.Background(), env, 48); err != nil {
		t.Fatal(err)
	}
	q2 := ps.cfg.Warm.Q
	if q2 == nil {
		t.Fatal("WarmState.Q nil after second alignment")
	}
	if q2 == q1 {
		t.Fatal("second alignment did not refresh WarmState.Q")
	}
	if !q1.UH.Equal(uhCopy) || len(q1.S) != len(sCopy) {
		t.Fatal("first estimate's factor mutated by second run")
	}
	for k := range sCopy {
		if q1.S[k] != sCopy[k] {
			t.Fatalf("first estimate's weight %d mutated by second run", k)
		}
	}
}

// Cold proposed must stay stateless: no WarmState, identical fixed-seed
// trajectories before and after the warm variant was introduced.
func TestProposedColdStaysStateless(t *testing.T) {
	env := testEnv(t, 12, 1, false)
	st, err := ForScheme("proposed", env.RXBook, SchemeSpec{J: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Name() != "proposed" {
		t.Fatalf("Name() = %q, want proposed", st.Name())
	}
	if ps := st.(*ProposedStrategy); ps.cfg.Warm != nil {
		t.Fatal("cold proposed carries a WarmState")
	}
}

// Every published scheme name must construct.
func TestForSchemeCoversAllNames(t *testing.T) {
	rx := antenna.NewGridCodebook(antenna.NewUPA(4, 4), 4, 4, 3.14, 1.57)
	for _, name := range SchemeNames() {
		if _, err := ForScheme(name, rx, SchemeSpec{}); err != nil {
			t.Errorf("ForScheme(%q): %v", name, err)
		}
	}
}

// The estimator-driven schemes refuse knobs no solve can run with once
// the defaults are filled; the other schemes ignore the knobs.
func TestForSchemeRejectsBadEstimatorKnobs(t *testing.T) {
	rx := antenna.NewGridCodebook(antenna.NewUPA(4, 4), 4, 4, 3.14, 1.57)
	bad := []SchemeSpec{
		{J: -1},
		{Window: -1},
		{Estimator: covest.Options{Mu: -1}},
		{Estimator: covest.Options{Mu: math.NaN()}},
		{Estimator: covest.Options{Mu: math.Inf(1)}},
		{Estimator: covest.Options{MaxIters: -1}},
	}
	for _, name := range SchemeNames() {
		estimated := name == "proposed" || name == "proposed-warm" || name == "two-sided"
		for _, spec := range bad {
			_, err := ForScheme(name, rx, spec)
			if estimated && err == nil {
				t.Errorf("ForScheme(%q, %+v) accepted", name, spec)
			}
			if !estimated && err != nil {
				t.Errorf("ForScheme(%q, %+v): %v", name, spec, err)
			}
		}
	}
}
