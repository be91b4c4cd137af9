package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mmwalign/internal/cmat"
	"mmwalign/internal/faultinject"
	"mmwalign/internal/meas"
	"mmwalign/internal/obs"
	"mmwalign/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden files")

// estimateBody builds the canonical small estimate request: the
// 4-antenna test panel with a deterministic energy bump at peak.
func estimateBody(peak, topK int) []byte {
	type obs struct {
		Beam   int     `json:"beam"`
		Energy float64 `json:"energy"`
	}
	body := map[string]any{
		"panel_x":   4,
		"panel_z":   1,
		"beams_az":  4,
		"beams_el":  1,
		"max_iters": 5,
		"top_k":     topK,
	}
	var os []obs
	for j := 0; j < 4; j++ {
		d := float64(j - peak)
		os = append(os, obs{Beam: j, Energy: 1 + 6/(1+d*d)})
	}
	body["observations"] = os
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return b
}

// post sends a JSON body and returns status, headers, and body bytes.
func post(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, resp.Header, data
}

func decodeErrorBody(t *testing.T, data []byte) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("decoding error envelope from %q: %v", data, err)
	}
	return eb
}

func TestEstimateGolden(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, _, body := post(t, ts.URL+"/v1/estimate", estimateBody(1, 3))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}

	golden := filepath.Join("testdata", "estimate_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("estimate response drifted from golden:\n got: %s\nwant: %s", body, want)
	}
}

// TestConcurrentVsSequentialByteIdentical is the core determinism
// claim: the same request set produces byte-identical bodies whether
// the server runs them one at a time or eight at a time over pooled
// (reused) sessions.
func TestConcurrentVsSequentialByteIdentical(t *testing.T) {
	const n = 16
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = estimateBody(i%4, 1+i%4)
	}

	run := func(maxConc int, concurrent bool) [][]byte {
		srv := NewServer(Config{MaxConcurrent: maxConc, QueueDepth: n})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		out := make([][]byte, n)
		if !concurrent {
			for i, r := range reqs {
				status, _, body := post(t, ts.URL+"/v1/estimate", r)
				if status != http.StatusOK {
					t.Fatalf("sequential request %d: status %d, body %s", i, status, body)
				}
				out[i] = body
			}
			return out
		}
		var wg sync.WaitGroup
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, _, body := post(t, ts.URL+"/v1/estimate", reqs[i])
				if status != http.StatusOK {
					t.Errorf("concurrent request %d: status %d, body %s", i, status, body)
					return
				}
				out[i] = body
			}(i)
		}
		wg.Wait()
		return out
	}

	sequential := run(1, false)
	concurrent := run(8, true)
	for i := range reqs {
		if !bytes.Equal(sequential[i], concurrent[i]) {
			t.Errorf("request %d: concurrent body differs from sequential:\n conc: %s\n seq:  %s",
				i, concurrent[i], sequential[i])
		}
	}
}

// TestServerHammer drives 32 goroutines of mixed estimate requests
// through a small admission window; every response must be a clean 200
// or a well-formed backpressure 503, and the pool must end quiescent.
func TestServerHammer(t *testing.T) {
	srv := NewServer(Config{MaxConcurrent: 4, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				status, hdr, body := post(t, ts.URL+"/v1/estimate", estimateBody(id%4, 2))
				switch status {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					if hdr.Get("Retry-After") == "" {
						t.Errorf("503 without Retry-After")
					}
					if kind := decodeErrorBody(t, body).Error.Kind; kind != errQueueFull {
						t.Errorf("503 kind = %q, want %q", kind, errQueueFull)
					}
				default:
					t.Errorf("unexpected status %d: %s", status, body)
				}
			}
		}(g)
	}
	wg.Wait()

	stats := srv.Pool().Stats()
	if stats.Active != 0 {
		t.Errorf("active sessions after hammer = %d, want 0", stats.Active)
	}
}

func TestExpiredDeadlineRejectedWithoutLease(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var req map[string]any
	if err := json.Unmarshal(estimateBody(1, 2), &req); err != nil {
		t.Fatal(err)
	}
	req["timeout_ms"] = -1
	body, _ := json.Marshal(req)

	start := time.Now()
	status, _, data := post(t, ts.URL+"/v1/estimate", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", status, data)
	}
	if kind := decodeErrorBody(t, data).Error.Kind; kind != errDeadlineExceeded {
		t.Errorf("kind = %q, want %q", kind, errDeadlineExceeded)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("expired-deadline rejection took %v, want prompt", elapsed)
	}
	if got := srv.Pool().Stats().Leases; got != 0 {
		t.Errorf("leases = %d, want 0: expired request must not lease a session", got)
	}
}

// blockingGate makes the first /v1/align measurement of a server block
// until released — the deterministic way to hold a request in-flight
// for the backpressure and drain tests.
type blockingGate struct {
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func newBlockingGate() *blockingGate {
	return &blockingGate{started: make(chan struct{}), gate: make(chan struct{})}
}

func (g *blockingGate) wrap(p meas.Prober) meas.Prober {
	return &blockingProber{Prober: p, g: g}
}

type blockingProber struct {
	meas.Prober
	g *blockingGate
}

func (p *blockingProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	p.g.once.Do(func() {
		close(p.g.started)
		<-p.g.gate
	})
	return p.Prober.Measure(txBeam, rxBeam, u, v)
}

// alignBody is a minimal scan-scheme run: one measurement, small
// panels, deterministic for the seed.
func alignBody(seed int64) []byte {
	b, err := json.Marshal(map[string]any{
		"scheme":     "scan",
		"budget":     1,
		"seed":       seed,
		"tx_panel_x": 2, "tx_panel_z": 1, "tx_beams_az": 2, "tx_beams_el": 1,
		"rx_panel_x": 2, "rx_panel_z": 1, "rx_beams_az": 2, "rx_beams_el": 1,
	})
	if err != nil {
		panic(err)
	}
	return b
}

func TestQueueFullReturns503WithRetryAfter(t *testing.T) {
	gate := newBlockingGate()
	srv := NewServer(Config{MaxConcurrent: 1, QueueDepth: 1, RetryAfterSeconds: 7, WrapProber: gate.wrap})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Request 1 occupies the single execution slot, blocked mid-measure.
	blockedDone := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL+"/v1/align", alignBody(1))
		blockedDone <- status
	}()
	<-gate.started

	// Request 2 fills the queue (it will finish after the gate opens).
	queuedDone := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL+"/v1/estimate", estimateBody(1, 2))
		queuedDone <- status
	}()
	// Wait until request 2 is admitted (inflight reaches 2).
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		inflight := srv.inflight
		srv.mu.Unlock()
		if inflight == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Request 3 must bounce: queue full, Retry-After attached.
	status, hdr, body := post(t, ts.URL+"/v1/estimate", estimateBody(2, 2))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", status, body)
	}
	if got := hdr.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q", got, "7")
	}
	if kind := decodeErrorBody(t, body).Error.Kind; kind != errQueueFull {
		t.Errorf("kind = %q, want %q", kind, errQueueFull)
	}

	close(gate.gate)
	if status := <-blockedDone; status != http.StatusOK {
		t.Errorf("blocked request finished with %d, want 200", status)
	}
	if status := <-queuedDone; status != http.StatusOK {
		t.Errorf("queued request finished with %d, want 200", status)
	}
}

func TestDeadlineExpiresWhileQueued(t *testing.T) {
	gate := newBlockingGate()
	srv := NewServer(Config{MaxConcurrent: 1, QueueDepth: 2, WrapProber: gate.wrap})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blockedDone := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL+"/v1/align", alignBody(1))
		blockedDone <- status
	}()
	<-gate.started

	var req map[string]any
	if err := json.Unmarshal(estimateBody(1, 2), &req); err != nil {
		t.Fatal(err)
	}
	req["timeout_ms"] = 50
	body, _ := json.Marshal(req)
	status, _, data := post(t, ts.URL+"/v1/estimate", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", status, data)
	}
	if kind := decodeErrorBody(t, data).Error.Kind; kind != errDeadlineExceeded {
		t.Errorf("kind = %q, want %q", kind, errDeadlineExceeded)
	}
	if got := srv.Pool().Stats().Leases; got != 0 {
		t.Errorf("leases = %d, want 0: a queued-then-expired request must not lease", got)
	}

	close(gate.gate)
	if status := <-blockedDone; status != http.StatusOK {
		t.Errorf("blocked request finished with %d, want 200", status)
	}
}

func TestGracefulDrain(t *testing.T) {
	gate := newBlockingGate()
	srv := NewServer(Config{MaxConcurrent: 2, QueueDepth: 2, WrapProber: gate.wrap})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inflightDone := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL+"/v1/align", alignBody(1))
		inflightDone <- status
	}()
	<-gate.started

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}

	// New work is rejected while draining.
	status, hdr, body := post(t, ts.URL+"/v1/estimate", estimateBody(1, 2))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status during drain = %d, want 503; body %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
	if kind := decodeErrorBody(t, body).Error.Kind; kind != errDraining {
		t.Errorf("kind = %q, want %q", kind, errDraining)
	}

	// Readiness flips to draining for load balancers; liveness stays 200
	// — the process is healthy and finishing its in-flight work, and a
	// restart now would kill that work.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness must survive a drain)", resp.StatusCode)
	}

	// The in-flight request completes; only then does Drain return.
	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v before in-flight request completed", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.gate)
	if status := <-inflightDone; status != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200 (drain must complete it)", status)
	}
	if err := <-drainErr; err != nil {
		t.Errorf("Drain = %v, want nil", err)
	}
}

// TestReadyzDrainSequence pins the orchestration contract across the
// whole drain lifecycle: ready before, unready the moment Drain begins
// (while in-flight work is still running), alive throughout, and still
// unready after the drain completes — readiness never flaps back.
func TestReadyzDrainSequence(t *testing.T) {
	gate := newBlockingGate()
	srv := NewServer(Config{MaxConcurrent: 1, WrapProber: gate.wrap})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", got)
	}

	inflightDone := make(chan int, 1)
	go func() {
		status, _, _ := post(t, ts.URL+"/v1/align", alignBody(1))
		inflightDone <- status
	}()
	<-gate.started

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}

	// Unready while the in-flight request is still executing — load
	// balancers must stop routing before the last request finishes.
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", got)
	}

	close(gate.gate)
	if status := <-inflightDone; status != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", status)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}

	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain completed = %d, want 503 (readiness must not flap back)", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz after drain completed = %d, want 200", got)
	}
}

// TestEstimateFaultTyped5xxAndNoPoisoning covers the estimate-side
// fault path for bad client input: an invalid (negative) energy yields
// a typed 400 and leaves the estimator's circuit breaker neutral, so
// more such requests than the breaker threshold neither open the
// circuit nor poison the pooled session — the next valid request for
// the same spec answers byte-identically to a fresh server.
func TestEstimateFaultTyped5xxAndNoPoisoning(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var req map[string]any
	if err := json.Unmarshal(estimateBody(1, 2), &req); err != nil {
		t.Fatal(err)
	}
	req["observations"] = []map[string]any{{"beam": 0, "energy": -5.0}, {"beam": 1, "energy": 2.0}}
	faulty, _ := json.Marshal(req)

	// One more than the default breaker threshold of five.
	for i := 0; i < 6; i++ {
		status, _, data := post(t, ts.URL+"/v1/estimate", faulty)
		if status != http.StatusBadRequest {
			t.Fatalf("request %d: status = %d, want 400; body %s", i, status, data)
		}
		if eb := decodeErrorBody(t, data); eb.Error.Kind != errBadRequest {
			t.Errorf("request %d: kind = %q, want %q", i, eb.Error.Kind, errBadRequest)
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats statszBody
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for key, state := range stats.Breakers {
		if state != "closed" {
			t.Errorf("breaker %s is %s after bad client input, want closed", key, state)
		}
	}
	if n := stats.Counters["serve_estimation_failures"]; n != 0 {
		t.Errorf("serve_estimation_failures = %d, want 0 for rejected input", n)
	}

	// The session that saw the rejected windows must answer the next
	// valid request for the same spec exactly like a never-faulted server.
	status, _, got := post(t, ts.URL+"/v1/estimate", estimateBody(1, 2))
	if status != http.StatusOK {
		t.Fatalf("post-fault request: status %d, body %s", status, got)
	}
	fresh := NewServer(Config{})
	tsFresh := httptest.NewServer(fresh)
	defer tsFresh.Close()
	_, _, want := post(t, tsFresh.URL+"/v1/estimate", estimateBody(1, 2))
	if !bytes.Equal(got, want) {
		t.Errorf("post-fault response differs from fresh server:\n got: %s\nwant: %s", got, want)
	}
}

// TestAlignNaNInjection wires internal/faultinject through the prober
// seam: with every energy NaN the run cannot pick a pair, so the server
// answers a typed 5xx that names the scan-order fallback.
func TestAlignNaNInjection(t *testing.T) {
	srv := NewServer(Config{
		WrapProber: func(p meas.Prober) meas.Prober {
			return faultinject.New(p, faultinject.Config{PNaN: 1}, rng.New(1))
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, _, data := post(t, ts.URL+"/v1/align", alignBody(1))
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", status, data)
	}
	eb := decodeErrorBody(t, data)
	if eb.Error.Kind != errEstimationFailed {
		t.Errorf("kind = %q, want %q", eb.Error.Kind, errEstimationFailed)
	}
	if eb.Fallback == nil || eb.Fallback.Policy != "scan-order" {
		t.Errorf("fallback = %+v, want scan-order policy", eb.Fallback)
	}
}

// TestAlignPanicInjection covers the panic half of the fault seam: a
// prober that panics mid-run yields a typed 500, and the very next
// request on the same server runs clean with results byte-identical to
// an unfaulted server.
func TestAlignPanicInjection(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	srv := NewServer(Config{
		WrapProber: func(p meas.Prober) meas.Prober {
			mu.Lock()
			requests++
			first := requests == 1
			mu.Unlock()
			if !first {
				return p
			}
			return faultinject.WrapTransient(1, faultinject.TransientPanic)(0, "serve", p)
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, _, data := post(t, ts.URL+"/v1/align", alignBody(7))
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", status, data)
	}
	eb := decodeErrorBody(t, data)
	if eb.Error.Kind != errInternalPanic {
		t.Errorf("kind = %q, want %q", eb.Error.Kind, errInternalPanic)
	}
	if eb.Fallback == nil || eb.Fallback.Policy != "scan-order" {
		t.Errorf("fallback = %+v, want scan-order policy", eb.Fallback)
	}

	status, _, got := post(t, ts.URL+"/v1/align", alignBody(7))
	if status != http.StatusOK {
		t.Fatalf("post-panic request: status %d, body %s", status, got)
	}
	clean := NewServer(Config{})
	tsClean := httptest.NewServer(clean)
	defer tsClean.Close()
	_, _, want := post(t, tsClean.URL+"/v1/align", alignBody(7))
	if !bytes.Equal(got, want) {
		t.Errorf("post-panic response differs from clean server:\n got: %s\nwant: %s", got, want)
	}
}

// TestEstimatePanicTyped500AndDiscard covers the estimate-side panic
// path: the typed internal_panic envelope (with its scan-order
// fallback) must actually reach the client — the recover must not
// dereference the lease after Discard, which panics by design — the
// poisoned session must be discarded, and the next request must match
// a fresh server byte for byte.
func TestEstimatePanicTyped500AndDiscard(t *testing.T) {
	armed := true
	srv := NewServer(Config{estimateHook: func() {
		if armed {
			armed = false
			panic("injected estimate fault")
		}
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, _, data := post(t, ts.URL+"/v1/estimate", estimateBody(1, 3))
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", status, data)
	}
	eb := decodeErrorBody(t, data)
	if eb.Error.Kind != errInternalPanic {
		t.Errorf("kind = %q, want %q", eb.Error.Kind, errInternalPanic)
	}
	if eb.Fallback == nil || eb.Fallback.Policy != "scan-order" || len(eb.Fallback.RXBeams) == 0 {
		t.Fatalf("fallback = %+v, want scan-order policy with beams", eb.Fallback)
	}
	if got := srv.Pool().Stats().Discarded; got != 1 {
		t.Errorf("discarded sessions = %d, want 1", got)
	}

	status, _, got := post(t, ts.URL+"/v1/estimate", estimateBody(1, 3))
	if status != http.StatusOK {
		t.Fatalf("post-panic request: status %d, body %s", status, got)
	}
	fresh := NewServer(Config{})
	tsFresh := httptest.NewServer(fresh)
	defer tsFresh.Close()
	_, _, want := post(t, tsFresh.URL+"/v1/estimate", estimateBody(1, 3))
	if !bytes.Equal(got, want) {
		t.Errorf("post-panic response differs from fresh server:\n got: %s\nwant: %s", got, want)
	}
}

// TestClientDisconnectIsClientGone pins the taxonomy split between the
// server's own timeout and a client hang-up: a canceled request context
// (what net/http hands the handler when the client disconnects) must be
// answered and counted as client_gone (499), never deadline_exceeded.
// The handler is driven directly so the cancellation is observed
// deterministically: cancel() happens before the gate opens, and scan
// with budget 4 re-checks ctx before every measurement.
func TestClientDisconnectIsClientGone(t *testing.T) {
	gate := newBlockingGate()
	srv := NewServer(Config{WrapProber: gate.wrap})

	body, err := json.Marshal(map[string]any{
		"scheme": "scan", "budget": 4, "seed": int64(1),
		"tx_panel_x": 2, "tx_panel_z": 1, "tx_beams_az": 2, "tx_beams_el": 1,
		"rx_panel_x": 2, "rx_panel_z": 1, "rx_beams_az": 2, "rx_beams_el": 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-gate.started
		cancel() // the client hangs up while the first measurement is gated
		close(gate.gate)
	}()

	req := httptest.NewRequest(http.MethodPost, "/v1/align", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)

	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d; body %s", rr.Code, statusClientClosedRequest, rr.Body.Bytes())
	}
	if kind := decodeErrorBody(t, rr.Body.Bytes()).Error.Kind; kind != errClientGone {
		t.Errorf("kind = %q, want %q", kind, errClientGone)
	}
	if n := srv.Recorder().Counter("serve_errors_client_gone").Value(); n != 1 {
		t.Errorf("client_gone counter = %d, want 1", n)
	}
	if n := srv.Recorder().Counter("serve_errors_deadline_exceeded").Value(); n != 0 {
		t.Errorf("deadline_exceeded = %d, want 0: a disconnect is not a timeout", n)
	}
}

func TestAlignDeterministicForSeed(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, _, first := post(t, ts.URL+"/v1/align", alignBody(42))
	_, _, second := post(t, ts.URL+"/v1/align", alignBody(42))
	if !bytes.Equal(first, second) {
		t.Errorf("same seed, different bodies:\n1: %s\n2: %s", first, second)
	}
	_, _, other := post(t, ts.URL+"/v1/align", alignBody(43))
	if bytes.Equal(first, other) {
		t.Error("different seeds produced identical bodies (suspicious)")
	}
}

func TestBadRequests(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	est, aln := string(estimateBody(2, 4)), string(alignBody(42))
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"malformed json", "/v1/estimate", `{`},
		{"estimate trailing garbage", "/v1/estimate", est + " garbage"},
		{"estimate trailing bracket", "/v1/estimate", est + "]"},
		{"estimate second object", "/v1/estimate", est + `{"top_k":-1}`},
		{"align trailing garbage", "/v1/align", aln + " garbage"},
		{"align trailing bracket", "/v1/align", aln + "]"},
		{"align second object", "/v1/align", aln + `{"budget":0}`},
		{"unknown field", "/v1/estimate", `{"not_a_field": 1}`},
		{"no observations", "/v1/estimate", `{"panel_x": 4, "panel_z": 1}`},
		{"beam out of range", "/v1/estimate", `{"panel_x":4,"panel_z":1,"beams_az":4,"beams_el":1,"observations":[{"beam":99,"energy":1}]}`},
		{"zero budget", "/v1/align", `{"budget": 0}`},
		{"unknown scheme", "/v1/align", `{"budget": 4, "scheme": "nope"}`},
		{"negative j", "/v1/align", `{"budget": 4, "scheme": "proposed", "j": -3}`},
		{"negative window", "/v1/align", `{"budget": 4, "scheme": "proposed", "window": -5}`},
		{"negative mu", "/v1/align", `{"budget": 4, "scheme": "proposed", "mu": -1}`},
		{"two-sided negative j", "/v1/align", `{"budget": 4, "scheme": "two-sided", "j": -1}`},
		{"unknown channel", "/v1/align", `{"budget": 4, "channel": "nope"}`},
		{"negative tx panel", "/v1/align", `{"budget": 4, "tx_panel_x": -1}`},
		{"negative rx panel", "/v1/align", `{"budget": 4, "rx_panel_z": -8}`},
		{"negative tx beams", "/v1/align", `{"budget": 4, "tx_beams_el": -2}`},
		{"negative rx beams", "/v1/align", `{"budget": 4, "rx_beams_az": -4}`},
		{"negative snapshots", "/v1/align", `{"budget": 4, "snapshots": -2}`},
		{"negative estimate panel", "/v1/estimate", `{"panel_x": -4, "observations": [{"beam": 0, "energy": 1}]}`},
	}
	for _, tc := range cases {
		status, _, data := post(t, ts.URL+tc.url, []byte(tc.body))
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", tc.name, status, data)
			continue
		}
		if kind := decodeErrorBody(t, data).Error.Kind; kind != errBadRequest {
			t.Errorf("%s: kind = %q, want %q", tc.name, kind, errBadRequest)
		}
	}
	// The estimator-knob probes are breaker-neutral: more of them than
	// the default breaker threshold of five leave the circuit closed for
	// a valid request on the same key.
	for i := 0; i < 5; i++ {
		post(t, ts.URL+"/v1/align", []byte(`{"budget": 4, "scheme": "proposed", "mu": -1}`))
	}
	if status, _, data := post(t, ts.URL+"/v1/align", []byte(`{"budget": 4, "scheme": "proposed"}`)); status != http.StatusOK {
		t.Errorf("valid proposed align after the knob probes: status = %d, want 200; body %s", status, data)
	}
	// Whitespace after the one JSON value is not trailing data.
	for url, body := range map[string]string{"/v1/estimate": est + " \n\t", "/v1/align": aln + "\n"} {
		if status, _, data := post(t, ts.URL+url, []byte(body)); status != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status = %d, want 200; body %s", url, status, data)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/estimate = %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}

	for i := 0; i < 3; i++ {
		if status, _, body := post(t, ts.URL+"/v1/estimate", estimateBody(i%4, 2)); status != http.StatusOK {
			t.Fatalf("warmup request %d: status %d, body %s", i, status, body)
		}
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statszBody
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Pool.Leases != 3 {
		t.Errorf("statsz leases = %d, want 3", stats.Pool.Leases)
	}
	if stats.Pool.Created < 1 {
		t.Error("statsz reports no sessions created")
	}
	lat, ok := stats.Latency["estimate"]
	if !ok {
		t.Fatal("statsz has no latency entry for estimate")
	}
	if lat.Count != 3 {
		t.Errorf("latency count = %d, want 3", lat.Count)
	}
	if lat.P50 <= 0 || lat.P99 < lat.P50 {
		t.Errorf("implausible percentiles: p50=%v p99=%v", lat.P50, lat.P99)
	}
	if stats.Counters["serve_requests_estimate"] != 3 {
		t.Errorf("request counter = %d, want 3", stats.Counters["serve_requests_estimate"])
	}
}

// TestStatszSolverTotals checks that /statsz totals the cost counters
// of every served solve: the estimate responses' own counts, plus the
// solves of an /v1/align request as its telemetry fragment reports them.
func TestStatszSolverTotals(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var want obs.SolverStats
	for i := 0; i < 3; i++ {
		status, _, body := post(t, ts.URL+"/v1/estimate", estimateBody(i%4, 2))
		if status != http.StatusOK {
			t.Fatalf("estimate %d: status %d, body %s", i, status, body)
		}
		var resp estimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		want.Estimations++
		want.Iters += int64(resp.Solver.Iters)
		want.EigenDecomps += int64(resp.Solver.EigenDecomps)
		want.EigenIters += int64(resp.Solver.EigenIters)
		want.LambdaMadds += int64(resp.Solver.LambdaMadds)
		want.GradientMadds += int64(resp.Solver.GradientMadds)
		want.SetupMadds += int64(resp.Solver.SetupMadds)
		if resp.Solver.EigenIters == 0 || resp.Solver.GradientMadds == 0 || resp.Solver.SetupMadds == 0 {
			t.Errorf("estimate %d: solver block missing counters: %+v", i, resp.Solver)
		}
	}
	var req map[string]any
	if err := json.Unmarshal(alignBody(3), &req); err != nil {
		t.Fatal(err)
	}
	req["scheme"], req["budget"], req["telemetry"] = "proposed", 3, true
	ab, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := post(t, ts.URL+"/v1/align", ab)
	if status != http.StatusOK {
		t.Fatalf("align: status %d, body %s", status, body)
	}
	var aresp alignResponse
	if err := json.Unmarshal(body, &aresp); err != nil {
		t.Fatal(err)
	}
	if aresp.Telemetry == nil || aresp.Telemetry.Solver.Estimations == 0 {
		t.Fatalf("align telemetry reports no solves: %s", body)
	}
	want.Estimations += aresp.Telemetry.Solver.Estimations
	want.Iters += aresp.Telemetry.Solver.Iters
	want.EigenDecomps += aresp.Telemetry.Solver.EigenDecomps
	want.EigenIters += aresp.Telemetry.Solver.EigenIters
	want.LambdaMadds += aresp.Telemetry.Solver.LambdaMadds
	want.GradientMadds += aresp.Telemetry.Solver.GradientMadds
	want.SetupMadds += aresp.Telemetry.Solver.SetupMadds

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statszBody
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	got := stats.Solver
	if got.Estimations != want.Estimations || got.Iters != want.Iters || got.EigenDecomps != want.EigenDecomps ||
		got.EigenIters != want.EigenIters || got.LambdaMadds != want.LambdaMadds ||
		got.GradientMadds != want.GradientMadds || got.SetupMadds != want.SetupMadds {
		t.Errorf("statsz solver = %+v, want the responses' totals %+v", got, want)
	}
}

func TestTelemetryFragmentOptIn(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var req map[string]any
	if err := json.Unmarshal(estimateBody(1, 2), &req); err != nil {
		t.Fatal(err)
	}
	req["telemetry"] = true
	body, _ := json.Marshal(req)
	status, _, data := post(t, ts.URL+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if _, ok := resp["telemetry"]; !ok {
		t.Error("telemetry fragment missing despite opt-in")
	}

	// Without opt-in the fragment (which carries wall-clock timings)
	// must be absent, keeping bodies deterministic.
	status, _, data = post(t, ts.URL+"/v1/estimate", estimateBody(1, 2))
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if bytes.Contains(data, []byte(`"telemetry"`)) {
		t.Error("telemetry fragment present without opt-in")
	}
}

func TestDrainIdempotentAndImmediateWhenIdle(t *testing.T) {
	srv := NewServer(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("idle drain = %v, want nil", err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain = %v, want nil", err)
	}
}

func TestNewAlignHandlerSmokeViaRoot(t *testing.T) {
	// The public wrapper is exercised in the root package's tests; here
	// just pin that a drained server rejects with the draining kind.
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	status, _, data := post(t, ts.URL+"/v1/estimate", estimateBody(0, 1))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status after drain = %d, want 503; body %s", status, data)
	}
	if kind := decodeErrorBody(t, data).Error.Kind; kind != errDraining {
		t.Errorf("kind = %q, want %q", kind, errDraining)
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(m.Run())
}
