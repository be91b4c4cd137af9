package mmwalign

import (
	"math"
	"strings"
	"testing"
)

func TestNewLinkDefaults(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := link.TotalPairs(); got != 16*64 {
		t.Errorf("TotalPairs = %d, want 1024", got)
	}
	spec := link.Spec()
	if spec.TXPanelX != 4 || spec.RXPanelX != 8 || spec.Snapshots != 4 {
		t.Errorf("defaults not applied: %+v", spec)
	}
	if spec.Channel != ChannelSinglePath {
		t.Errorf("channel kind = %d", spec.Channel)
	}
}

func TestNewLinkRejectsUnknownChannel(t *testing.T) {
	if _, err := NewLink(LinkSpec{Channel: ChannelKind(99)}); err == nil {
		t.Error("unknown channel kind accepted")
	}
}

func TestAlignBasicResult(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 2, TXPanelX: 2, TXPanelZ: 2, RXPanelX: 4, RXPanelZ: 4,
		TXBeamsAz: 4, TXBeamsEl: 2, RXBeamsAz: 4, RXBeamsEl: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := link.Align(SchemeProposed, 32, AlignOptions{J: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != SchemeProposed {
		t.Errorf("scheme = %q", res.Scheme)
	}
	if res.Measurements != 32 {
		t.Errorf("measurements = %d, want 32", res.Measurements)
	}
	if math.Abs(res.SearchRate-32.0/128) > 1e-12 {
		t.Errorf("search rate = %g", res.SearchRate)
	}
	if res.LossDB < 0 {
		t.Errorf("negative loss %g", res.LossDB)
	}
	if res.TrueSNRdB > res.OptimalSNRdB+1e-9 {
		t.Error("selected pair beats the oracle")
	}
	if got := res.OptimalSNRdB - res.TrueSNRdB; math.Abs(got-res.LossDB) > 1e-9 {
		t.Errorf("LossDB inconsistent: %g vs %g", res.LossDB, got)
	}
	if len(res.LossTrajectoryDB) != 32 {
		t.Errorf("trajectory length %d", len(res.LossTrajectoryDB))
	}
	if res.TXBeam < 0 || res.TXBeam >= 8 || res.RXBeam < 0 || res.RXBeam >= 16 {
		t.Errorf("selected pair (%d,%d) out of range", res.TXBeam, res.RXBeam)
	}
	if math.Abs(res.TXAzDeg) > 90 || math.Abs(res.RXAzDeg) > 90 {
		t.Errorf("steering angles out of range: %+v", res)
	}
}

func TestAlignAllSchemes(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 3, TXPanelX: 2, TXPanelZ: 2, RXPanelX: 4, RXPanelZ: 4,
		TXBeamsAz: 4, TXBeamsEl: 2, RXBeamsAz: 4, RXBeamsEl: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeRandom, SchemeScan, SchemeExhaustive, SchemeProposed,
		SchemeHierarchical, SchemeTwoSided, SchemeLocalRefine, SchemeDigital} {
		res, err := link.Align(scheme, 24)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Measurements == 0 {
			t.Errorf("%s made no measurements", scheme)
		}
	}
}

func TestAlignUnknownScheme(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Align(Scheme("psychic"), 8); err == nil || !strings.Contains(err.Error(), `unknown scheme "psychic"`) {
		t.Errorf("unknown scheme: err = %v", err)
	}
}

// TestAlignRejectsBadEstimatorOptions pins that out-of-range estimator
// knobs are refused with the constructor's own reason, not run as given.
func TestAlignRejectsBadEstimatorOptions(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scheme Scheme
		opt    AlignOptions
		reason string
	}{
		{SchemeProposed, AlignOptions{J: -3}, "j -3"},
		{SchemeProposed, AlignOptions{Window: -5}, "window -5"},
		{SchemeProposed, AlignOptions{Mu: -1}, "mu -1"},
		{SchemeTwoSided, AlignOptions{Mu: math.NaN()}, "mu NaN"},
	} {
		if _, err := link.Align(tc.scheme, 8, tc.opt); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s %+v: err = %v, want one naming %q", tc.scheme, tc.opt, err, tc.reason)
		}
	}
}

func TestAlignTooManyOptions(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.Align(SchemeRandom, 8, AlignOptions{}, AlignOptions{}); err == nil {
		t.Error("two option structs accepted")
	}
}

func TestAlignRunsAreIndependentButReproducible(t *testing.T) {
	mk := func() (Result, Result) {
		link, err := NewLink(LinkSpec{Seed: 6, TXPanelX: 2, TXPanelZ: 2, RXPanelX: 4, RXPanelZ: 4,
			TXBeamsAz: 4, TXBeamsEl: 2, RXBeamsAz: 4, RXBeamsEl: 4})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := link.Align(SchemeRandom, 16)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := link.Align(SchemeRandom, 16)
		if err != nil {
			t.Fatal(err)
		}
		return r1, r2
	}
	a1, a2 := mk()
	b1, b2 := mk()
	// Same link+seed: run 1 of both links identical; run 2 identical.
	if a1.TXBeam != b1.TXBeam || a1.RXBeam != b1.RXBeam {
		t.Error("first runs differ across identical links")
	}
	if a2.TXBeam != b2.TXBeam || a2.RXBeam != b2.RXBeam {
		t.Error("second runs differ across identical links")
	}
	// Optimal SNR is a property of the channel, shared by both runs.
	if a1.OptimalSNRdB != a2.OptimalSNRdB {
		t.Error("optimal SNR changed between runs on the same link")
	}
}

func TestOptimalSNRdBMatchesAlignReport(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 7, TXPanelX: 2, TXPanelZ: 2, RXPanelX: 4, RXPanelZ: 4,
		TXBeamsAz: 4, TXBeamsEl: 2, RXBeamsAz: 4, RXBeamsEl: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := link.OptimalSNRdB()
	res, err := link.Align(SchemeRandom, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.OptimalSNRdB-want) > 1e-9 {
		t.Errorf("OptimalSNRdB %g vs %g", res.OptimalSNRdB, want)
	}
}

func TestNYCMultipathLink(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 8, Channel: ChannelNYCMultipath,
		TXPanelX: 2, TXPanelZ: 2, RXPanelX: 4, RXPanelZ: 4,
		TXBeamsAz: 4, TXBeamsEl: 2, RXBeamsAz: 4, RXBeamsEl: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := link.Align(SchemeProposed, 32, AlignOptions{J: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measurements != 32 {
		t.Errorf("measurements = %d", res.Measurements)
	}
}

func TestExhaustiveFullBudgetNearOptimal(t *testing.T) {
	link, err := NewLink(LinkSpec{Seed: 9, SNRdB: 20, Snapshots: 32,
		TXPanelX: 2, TXPanelZ: 2, RXPanelX: 4, RXPanelZ: 4,
		TXBeamsAz: 4, TXBeamsEl: 2, RXBeamsAz: 4, RXBeamsEl: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := link.Align(SchemeExhaustive, link.TotalPairs())
	if err != nil {
		t.Fatal(err)
	}
	// A random path generally falls between grid codewords, leaving a
	// handful of near-tied pairs whose measured ranking can flip under
	// residual fading noise; the loss among those ties is bounded by the
	// codebook quantization, well under 1.5 dB here.
	if res.LossDB > 1.5 {
		t.Errorf("exhaustive full-budget loss = %g dB", res.LossDB)
	}
}
