package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"mmwalign/internal/antenna"
	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
)

// TestEstimateTopEigenvalueIsQhatSpectrum checks /v1/estimate's
// top_eigenvalue and trace against the dense Q̂ of the same solve:
// top_eigenvalue must be its largest eigenvalue, computed here with
// EigHermitian, to 1e-12 relative, trace its trace likewise, and
// top_eigenvalue at least the best pick's score (vᴴQ̂v ≤ λ_max for a
// unit beam).
func TestEstimateTopEigenvalueIsQhatSpectrum(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()

	type obsJSON struct {
		Beam   int     `json:"beam"`
		Energy float64 `json:"energy"`
	}
	cases := []struct {
		panel, beams, count, peak int
	}{
		{4, 4, 4, 0}, {4, 4, 4, 1}, {4, 4, 4, 3},
		{8, 8, 24, 20}, {8, 8, 56, 43},
	}
	for _, c := range cases {
		book := antenna.NewGridCodebook(antenna.NewUPA(c.panel, 1), c.beams, 1, math.Pi, math.Pi/2)
		if c.panel == 8 {
			book = antenna.NewGridCodebook(antenna.NewUPA(8, 8), 8, 8, math.Pi, math.Pi/2)
		}
		peak := book.Beam(c.peak).Weights
		var list []obsJSON
		var direct []covest.Observation
		for j := 0; j < c.count; j++ {
			b := (j * 5) % book.Size()
			v := book.Beam(b).Weights
			g := cmat.Vector(peak).Dot(v)
			e := 1 + 6*(real(g)*real(g)+imag(g)*imag(g)) + 0.3*float64(j%3)
			list = append(list, obsJSON{Beam: b, Energy: e})
			direct = append(direct, covest.Observation{V: v, Energy: e})
		}
		body := map[string]any{"max_iters": 5, "top_k": 4, "observations": list}
		if c.panel == 4 {
			body["panel_x"], body["panel_z"], body["beams_az"], body["beams_el"] = 4, 1, 4, 1
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		status, _, data := post(t, ts.URL+"/v1/estimate", raw)
		if status != http.StatusOK {
			t.Fatalf("case %+v: status %d, body %s", c, status, data)
		}
		var resp estimateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}

		est, err := covest.NewEstimator(book.Array().Elements(), covest.Options{Gamma: 1, Mu: 1, MaxIters: 5})
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := est.Estimate(direct, nil)
		if err != nil {
			t.Fatal(err)
		}
		eig, err := cmat.EigHermitian(q)
		if err != nil {
			t.Fatal(err)
		}
		top, trace := eig.Values[0], real(q.Trace())
		got := resp.Estimate
		if math.Abs(got.TopEigenvalue-top) > 1e-12*math.Abs(top) {
			t.Errorf("case %+v: top_eigenvalue %v, largest eigenvalue of Q̂ %v", c, got.TopEigenvalue, top)
		}
		if math.Abs(got.Trace-trace) > 1e-12*math.Abs(trace) {
			t.Errorf("case %+v: trace %v, tr(Q̂) %v", c, got.Trace, trace)
		}
		if best := resp.Picks.Best.Score; got.TopEigenvalue < best {
			t.Errorf("case %+v: top_eigenvalue %v below the best pick's score %v", c, got.TopEigenvalue, best)
		}
		if top <= 0 {
			t.Errorf("case %+v: Q̂ is zero; the check needs a nonzero estimate", c)
		}
	}
}
