package mmwalign

import (
	"reflect"
	"testing"

	"mmwalign/internal/align"
	"mmwalign/internal/experiment"
	"mmwalign/internal/scenario"
	"mmwalign/internal/serve"
)

// TestEstimatorDefaultsAgree pins that every path fills the estimator
// settings from one table, align.SchemeSpec.WithDefaults: the figure
// sweeps, the scenario engine, the serving layer and the public API run
// the same J, Window, µ and iteration budget for the same scheme.
// serve.EstimatorSpec (/v1/estimate) has no J or Window; /v1/align
// passes its zero fields to align.ForScheme, as the public API does.
func TestEstimatorDefaultsAgree(t *testing.T) {
	table := align.SchemeSpec{}.WithDefaults()
	type knobs struct {
		J, Window int
		Mu        float64
		MaxIters  int
	}
	want := knobs{table.J, table.Window, table.Estimator.Mu, table.Estimator.MaxIters}
	fig := experiment.Config{}.WithDefaults()
	scen := scenario.Config{}.WithDefaults()
	for _, row := range []struct {
		path string
		got  knobs
	}{
		{"figure", knobs{fig.J, fig.Window, fig.Mu, fig.EstimatorIters}},
		{"scenario", knobs{scen.J, scen.Window, scen.Mu, scen.EstimatorIters}},
	} {
		if row.got != want {
			t.Errorf("%s defaults %+v, table has %+v", row.path, row.got, want)
		}
	}
	if srv := (serve.EstimatorSpec{}).WithDefaults(); srv.Mu != want.Mu || srv.MaxIters != want.MaxIters {
		t.Errorf("serve defaults µ %g, %d iterations; table has %g, %d", srv.Mu, srv.MaxIters, want.Mu, want.MaxIters)
	}
	if want.J <= 0 || want.Window <= 0 || want.Mu <= 0 || want.MaxIters <= 0 {
		t.Fatalf("table %+v has an unset entry", want)
	}

	// Set fields survive: each path fills only what is zero.
	if c := (experiment.Config{J: 3, Window: 5, Mu: 2, EstimatorIters: 7}).WithDefaults(); c.J != 3 || c.Window != 5 || c.Mu != 2 || c.EstimatorIters != 7 {
		t.Errorf("figure config overrode set fields: %+v", c)
	}
	if c := (scenario.Config{J: 3, Window: 5, Mu: 2, EstimatorIters: 7}).WithDefaults(); c.J != 3 || c.Window != 5 || c.Mu != 2 || c.EstimatorIters != 7 {
		t.Errorf("scenario config overrode set fields: %+v", c)
	}
	if s := (serve.EstimatorSpec{Mu: 2, MaxIters: 7}).WithDefaults(); s.Mu != 2 || s.MaxIters != 7 {
		t.Errorf("serve spec overrode set fields: %+v", s)
	}

	// The API path: zero AlignOptions run exactly the table's settings.
	results := make([]Result, 2)
	for i, opt := range []AlignOptions{{}, {J: want.J, Mu: want.Mu, Window: want.Window}} {
		link, err := NewLink(LinkSpec{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = link.Align(SchemeProposed, 48, opt); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("zero AlignOptions give %+v, the table's values give %+v", results[0], results[1])
	}
}
