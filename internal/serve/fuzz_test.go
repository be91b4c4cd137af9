package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The request decoders of /v1/estimate and /v1/align take untrusted
// bytes. Whatever arrives, the reply must be a 200 whose body is one
// complete JSON response, or a typed error envelope, and never a panic
// caught by the handler's recovery (internal_panic) or a torn body.
// The seeds run under go test; go test -fuzz explores from them.

// ciEstimateBody and ciAlignBody are the request bodies CI's serve and
// chaos-soak jobs post.
const (
	ciEstimateBody = `{"panel_x": 4, "panel_z": 1, "beams_az": 4, "beams_el": 1,
 "max_iters": 5, "top_k": 4,
 "observations": [{"beam": 0, "energy": 2.2}, {"beam": 1, "energy": 7.0},
                  {"beam": 2, "energy": 4.0}, {"beam": 3, "energy": 2.5}]}`
	ciAlignBody = `{"scheme": "scan", "budget": 1, "seed": 1,
 "tx_panel_x": 2, "tx_panel_z": 1, "tx_beams_az": 2, "tx_beams_el": 1,
 "rx_panel_x": 2, "rx_panel_z": 2, "rx_beams_az": 2, "rx_beams_el": 2}`
)

// malformedSeeds are shared by both targets.
var malformedSeeds = []string{
	``, `{`, `null`, `[]`, `{"observations": null}`, `{"budget": "x"}`,
	`{"observations": [{"beam": 1e400}]}`, `{} {}`, `{"unknown": 1}`,
	`{"observations": [{"beam": 0, "energy": -1}], "top_k": -3}`,
}

// fuzzReply posts body to path on srv and checks the reply. ok decodes
// a 200 body strictly and reports whether it is complete.
func fuzzReply(t *testing.T, srv *Server, path string, body []byte, ok func(*json.Decoder) error) {
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	data := rr.Body.Bytes()
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("status %d: body %q is not one newline-terminated JSON document", rr.Code, data)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if rr.Code == http.StatusOK {
		if err := ok(dec); err != nil {
			t.Fatalf("200 with an incomplete body %s: %v", data, err)
		}
		return
	}
	var eb errorBody
	if err := dec.Decode(&eb); err != nil {
		t.Fatalf("status %d with an untyped body %s: %v", rr.Code, data, err)
	}
	if eb.Error.Kind == "" || eb.Error.Kind == errInternalPanic {
		t.Fatalf("status %d with error kind %q: %s", rr.Code, eb.Error.Kind, data)
	}
}

// small reports whether a body that decodes leniently asks for no more
// than a unit-test-sized problem, so that a fuzzing run explores the
// decoders instead of allocating a request's worth of antennas.
func small(body []byte, fields ...*int) bool {
	for _, f := range fields {
		if *f > 16 || *f < -16 {
			return false
		}
	}
	return len(body) < 8<<10
}

func FuzzEstimateRequest(f *testing.F) {
	f.Add(estimateBody(1, 3))
	f.Add(estimateBody(0, 2))
	f.Add([]byte(ciEstimateBody))
	for _, s := range malformedSeeds {
		f.Add([]byte(s))
	}
	srv := NewServer(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req estimateRequest
		if json.Unmarshal(body, &req) == nil && !small(body, &req.PanelX, &req.PanelZ, &req.BeamsAz, &req.BeamsEl, &req.MaxIters, &req.TopK) {
			t.Skip("request too large for a unit test")
		}
		fuzzReply(t, srv, "/v1/estimate", body, func(dec *json.Decoder) error {
			var resp estimateResponse
			if err := dec.Decode(&resp); err != nil {
				return err
			}
			if resp.Estimate.N <= 0 || resp.Estimate.StopReason == "" || resp.Picks.TopK == nil {
				return errIncomplete
			}
			return nil
		})
	})
}

func FuzzAlignRequest(f *testing.F) {
	f.Add(alignBody(1))
	f.Add([]byte(ciAlignBody))
	f.Add([]byte(`{"scheme": "proposed", "budget": 12, "seed": 3,
 "tx_panel_x": 2, "tx_panel_z": 1, "tx_beams_az": 2, "tx_beams_el": 1,
 "rx_panel_x": 2, "rx_panel_z": 2, "rx_beams_az": 2, "rx_beams_el": 2, "j": 3}`))
	for _, s := range malformedSeeds {
		f.Add([]byte(s))
	}
	srv := NewServer(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req alignRequest
		if json.Unmarshal(body, &req) == nil && !small(body, &req.Budget, &req.Snapshots, &req.TXPanelX, &req.TXPanelZ,
			&req.RXPanelX, &req.RXPanelZ, &req.TXBeamsAz, &req.TXBeamsEl, &req.RXBeamsAz, &req.RXBeamsEl, &req.J, &req.Window) {
			t.Skip("request too large for a unit test")
		}
		fuzzReply(t, srv, "/v1/align", body, func(dec *json.Decoder) error {
			var resp alignResponse
			if err := dec.Decode(&resp); err != nil {
				return err
			}
			if resp.Scheme == "" || resp.Measurements <= 0 {
				return errIncomplete
			}
			return nil
		})
	})
}

// errIncomplete marks a 200 body missing a field every response sets.
var errIncomplete = errors.New("response body lacks a field every response sets")
