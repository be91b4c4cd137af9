package align

import (
	"fmt"
	"math"

	"mmwalign/internal/antenna"
	"mmwalign/internal/covest"
)

// SchemeSpec bundles the tunable knobs of the built-in strategies for
// construction by name. The zero value selects the reproduction's
// defaults everywhere; fields irrelevant to a given scheme are ignored
// (e.g. J for the Scan baseline).
type SchemeSpec struct {
	// J is the number of RX measurements per TX slot (proposed and
	// two-sided).
	J int
	// Window bounds the estimation history.
	Window int
	// Estimator configures the covariance estimator of proposed and
	// two-sided. A zero Gamma is filled from the sounder at run time.
	Estimator covest.Options
}

// WithDefaults returns a copy with zero fields replaced by the
// reproduction's defaults: J = 8, Window = 96, µ = 1 and 25 solver
// iterations. This is the one table of those values; every
// configuration that restates them (experiment, scenario, serve) copies
// them from here.
func (s SchemeSpec) WithDefaults() SchemeSpec {
	if s.J == 0 {
		s.J = 8
	}
	if s.Window == 0 {
		s.Window = 96
	}
	if s.Estimator.Mu == 0 {
		s.Estimator.Mu = 1
	}
	if s.Estimator.MaxIters == 0 {
		s.Estimator.MaxIters = 25
	}
	return s
}

// Validate rejects estimator knobs no solve can run with, once
// WithDefaults has filled the zero ones: a negative J or Window, and a
// µ or iteration budget that is not positive and finite.
func (s SchemeSpec) Validate() error {
	switch {
	case s.J < 0:
		return fmt.Errorf("j %d must not be negative", s.J)
	case s.Window < 0:
		return fmt.Errorf("window %d must not be negative", s.Window)
	case !(s.Estimator.Mu > 0) || math.IsInf(s.Estimator.Mu, 0):
		return fmt.Errorf("mu %g must be positive and finite", s.Estimator.Mu)
	case s.Estimator.MaxIters <= 0:
		return fmt.Errorf("iteration budget %d must be positive", s.Estimator.MaxIters)
	}
	return nil
}

// ForScheme constructs a built-in strategy by name. rxBook is the RX
// codebook the environment will run with (needed by the hierarchical
// descent, ignored by the others). For the estimator-driven schemes
// (proposed, proposed-warm, two-sided) it fills spec's defaults and
// rejects knobs no solve can run with. This is the single construction
// switch: the figure sweeps, the scenario engine, the serving layer and
// the public API all build through it, so a scheme name means the same
// strategy everywhere.
func ForScheme(name string, rxBook *antenna.Codebook, spec SchemeSpec) (Strategy, error) {
	switch name {
	case "random":
		return RandomStrategy{}, nil
	case "scan":
		return ScanStrategy{}, nil
	case "exhaustive":
		return ExhaustiveStrategy{}, nil
	case "proposed", "proposed-warm", "two-sided":
		spec = spec.WithDefaults()
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("align: scheme %q: %w", name, err)
		}
		cfg := ProposedConfig{J: spec.J, Window: spec.Window, Estimator: spec.Estimator}
		if name == "two-sided" {
			return NewTwoSided(cfg), nil
		}
		if name == "proposed-warm" {
			// A fresh WarmState per construction: the returned strategy
			// is stateful (it carries Q̂ across runs) and therefore owned
			// by one link — callers running cells concurrently must
			// construct one per cell, which every engine in this repo
			// already does.
			cfg.Warm = &WarmState{}
			st := NewProposed(cfg)
			st.name = "proposed-warm"
			return st, nil
		}
		return NewProposed(cfg), nil
	case "hierarchical":
		return NewHierarchical(antenna.NewHierCodebook(rxBook, 2, 2)), nil
	case "local-refine":
		return NewLocalRefine(), nil
	case "digital":
		return NewDigital(), nil
	default:
		return nil, fmt.Errorf("align: unknown scheme %q", name)
	}
}

// SchemeNames lists every name ForScheme accepts, in presentation
// order.
func SchemeNames() []string {
	return []string{"proposed", "proposed-warm", "random", "scan", "exhaustive", "hierarchical", "two-sided", "local-refine", "digital"}
}
