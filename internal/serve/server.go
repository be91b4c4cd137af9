package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mmwalign/internal/meas"
	"mmwalign/internal/metrics"
	"mmwalign/internal/obs"
)

// Config tunes the server. The zero value is usable: defaults are
// filled by NewServer.
type Config struct {
	// MaxConcurrent bounds requests executing simultaneously (default 4).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot beyond
	// MaxConcurrent (default 8). Arrivals past MaxConcurrent+QueueDepth
	// are rejected with 503 + Retry-After.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request does
	// not carry its own timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps a request-supplied timeout_ms (default 60s).
	MaxTimeout time.Duration
	// RetryAfterSeconds is the Retry-After hint on 503 responses
	// (default 1).
	RetryAfterSeconds int
	// WrapProber, when non-nil, wraps the sounder of every /v1/align
	// run. This is the server's prober seam: fault injection
	// (internal/faultinject) and instrumentation interpose here.
	WrapProber func(meas.Prober) meas.Prober
	// Recorder receives server-level telemetry (request counters,
	// per-endpoint latency phases). Defaults to a fresh recorder,
	// reachable via Server.Recorder.
	Recorder *obs.Recorder

	// --- overload-resilience knobs ---
	// The layer is inert when the server is healthy and unloaded:
	// shedding needs a queue plus observed latency, the breaker needs
	// consecutive failures, brown-out needs sustained queue pressure,
	// and rate limiting is off unless RateLimitPerSec is set.

	// RateLimitPerSec enables per-client token-bucket rate limiting at
	// this sustained request rate (0 disables). Clients are keyed by
	// the X-Client-ID header, falling back to the remote host.
	RateLimitPerSec float64
	// RateLimitBurst is the bucket capacity (default ceil(rate), min 1).
	RateLimitBurst int
	// RateLimitMaxClients bounds the LRU bucket table (default 4096),
	// so hostile client-ID churn recycles buckets instead of growing
	// memory.
	RateLimitMaxClients int
	// BreakerThreshold is how many consecutive estimation failures on
	// one estimator key trip the circuit open (default 5; negative
	// disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before letting
	// a half-open probe through (default 5s).
	BreakerCooldown time.Duration
	// BreakerMaxEntries bounds the LRU breaker table (default 1024).
	BreakerMaxEntries int
	// BrownoutQueueFrac is the queue-occupancy fraction that arms
	// brown-out degraded mode (default 0.75; negative disables).
	BrownoutQueueFrac float64
	// BrownoutAfter is how long pressure must stay at or above the
	// threshold before /v1/align degrades (default 2s).
	BrownoutAfter time.Duration
	// BrownoutRecover is how long pressure must stay clear before full
	// estimation resumes (default 2s).
	BrownoutRecover time.Duration

	// now is the clock seam: the resilience layer (rate-limit refill,
	// breaker cooldown, brown-out windows, shed deadlines) reads time
	// only through it, so tests drive every transition with a fake
	// clock. Defaults to time.Now.
	now func() time.Time

	// estimateHook, when non-nil, runs inside the estimate handler after
	// the session lease is taken and the panic recovery is armed.
	// In-package test seam for the panic-recovery path, which has no
	// prober to inject faults through.
	estimateHook func()
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.RetryAfterSeconds == 0 {
		c.RetryAfterSeconds = 1
	}
	if c.Recorder == nil {
		c.Recorder = obs.New()
	}
	if c.RateLimitMaxClients == 0 {
		c.RateLimitMaxClients = 4096
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.BreakerMaxEntries == 0 {
		c.BreakerMaxEntries = 1024
	}
	if c.BrownoutQueueFrac == 0 {
		c.BrownoutQueueFrac = 0.75
	}
	if c.BrownoutAfter == 0 {
		c.BrownoutAfter = 2 * time.Second
	}
	if c.BrownoutRecover == 0 {
		c.BrownoutRecover = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the alignment service: pooled estimator sessions behind
// bounded-queue admission control, with per-request deadlines, graceful
// drain, and per-endpoint latency telemetry.
type Server struct {
	cfg  Config
	pool *Pool
	rec  *obs.Recorder
	mux  *http.ServeMux

	// sem holds the MaxConcurrent execution slots; admitted requests
	// queue on it (bounded by the inflight accounting below).
	sem chan struct{}

	// mu guards the admission state. inflight counts admitted requests —
	// executing plus queued — so the bound and the drain condition share
	// one counter and cannot disagree. A sync.WaitGroup would race here:
	// Add after Wait has begun is undefined, whereas a mutex-guarded
	// counter makes reject-after-drain-start exact.
	mu          sync.Mutex
	inflight    int
	executing   int // admitted requests holding an execution slot
	draining    bool
	drainClosed bool
	drained     chan struct{}

	lat *latencyTracker

	// Overload-resilience subsystems; each is nil when disabled and
	// nil-safe to call, so the hot path carries no conditionals.
	limiter  *rateLimiter
	breaker  *breaker
	brownout *brownout
}

// NewServer builds a server with a fresh session pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.MaxConcurrent),
		rec:     cfg.Recorder,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		drained: make(chan struct{}),
		lat:     newLatencyTracker(),
	}
	s.limiter = newRateLimiter(cfg.RateLimitPerSec, cfg.RateLimitBurst, cfg.RateLimitMaxClients,
		cfg.now, cfg.Recorder.Counter("serve_rate_limited"))
	s.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.BreakerMaxEntries,
		cfg.now, cfg.Recorder)
	s.brownout = newBrownout(cfg.BrownoutQueueFrac, cfg.QueueDepth, cfg.BrownoutAfter,
		cfg.BrownoutRecover, cfg.now, cfg.Recorder)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/estimate", s.timed("estimate", s.handleEstimate))
	s.mux.HandleFunc("/v1/align", s.timed("align", s.handleAlign))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Recorder returns the server-level telemetry recorder (for expvar
// publication by the binary).
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Pool returns the session pool (stats surface for /statsz and tests).
func (s *Server) Pool() *Pool { return s.pool }

// Drain puts the server into draining mode — new requests are rejected
// with 503 — and blocks until every in-flight request has completed or
// ctx expires. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 && !s.drainClosed {
		s.drainClosed = true
		close(s.drained)
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the server has begun draining.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// errKind is the typed error taxonomy of the JSON error envelope.
type errKind string

const (
	errBadRequest       errKind = "bad_request"
	errQueueFull        errKind = "queue_full"
	errDraining         errKind = "draining"
	errDeadlineExceeded errKind = "deadline_exceeded"
	errClientGone       errKind = "client_gone"
	errEstimationFailed errKind = "estimation_failed"
	errInternalPanic    errKind = "internal_panic"
	errShed             errKind = "shed"
	errRateLimited      errKind = "rate_limited"
	errCircuitOpen      errKind = "circuit_open"
)

// statusClientClosedRequest is the de-facto (nginx) status for a client
// that hung up before the response: the peer is gone, so the code
// exists for logs and the serve_errors_* taxonomy, not for the wire.
const statusClientClosedRequest = 499

func (k errKind) status() int {
	switch k {
	case errBadRequest:
		return http.StatusBadRequest
	case errQueueFull, errDraining, errShed, errCircuitOpen:
		return http.StatusServiceUnavailable
	case errRateLimited:
		return http.StatusTooManyRequests
	case errDeadlineExceeded:
		return http.StatusGatewayTimeout
	case errClientGone:
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// errorInfo is the error half of the envelope.
type errorInfo struct {
	Kind   errKind `json:"kind"`
	Detail string  `json:"detail"`
}

// fallbackInfo notes the degradation policy a client should apply (or
// that the server already applied): the scan-order sweep every scheme
// reduces to when estimation is unavailable.
type fallbackInfo struct {
	// Policy names the degradation mode; always "scan-order".
	Policy string `json:"policy"`
	// RXBeams, when present, is the prefix of the RX codebook's
	// snake-raster order the client can sound directly.
	RXBeams []int `json:"rx_beams,omitempty"`
	// Count, when present, is how many times the run already fell back
	// internally (the estimator_fallbacks counter of the run).
	Count int64 `json:"count,omitempty"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error    errorInfo     `json:"error"`
	Fallback *fallbackInfo `json:"fallback,omitempty"`
}

// writeError emits the typed JSON error envelope, attaching Retry-After
// to the backpressure rejections. Backpressure hints are dynamic: the
// current queue's expected drain time at the observed median service
// rate, floored at the static RetryAfterSeconds flag (so an unobserved
// server behaves exactly as before). Rate-limit and circuit-open
// rejections carry their own hint, set by the caller before this call.
func (s *Server) writeError(w http.ResponseWriter, kind errKind, detail string, fb *fallbackInfo) {
	switch kind {
	case errQueueFull, errDraining, errShed:
		w.Header().Set("Retry-After", strconv.Itoa(s.dynamicRetryAfter()))
	case errRateLimited, errCircuitOpen:
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(kind.status())
	_ = json.NewEncoder(w).Encode(errorBody{Error: errorInfo{Kind: kind, Detail: detail}, Fallback: fb})
	s.rec.Counter("serve_errors_" + string(kind)).Add(1)
}

// writeJSON emits a 200 with the marshalled body. Bodies are
// deterministic functions of the request (no timestamps, no latency),
// so identical requests produce byte-identical responses at any
// concurrency — the property the equivalence tests pin down. The body
// is marshalled before any byte is written, so a marshal failure (e.g.
// a non-finite float that slipped past the handlers' guards) yields a
// clean 500 envelope instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":{"kind":"internal_panic","detail":"response marshal failed"}}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(data, '\n'))
}

// admit passes a request through the bounded admission queue. On
// success the returned release func must be called exactly once. On
// rejection it returns the error kind to report.
//
// Between the capacity check and the slot wait sits the deadline-aware
// shed test (CoDel-style): a request whose remaining deadline cannot
// outlast its expected queue wait — queue position times the observed
// median service time per slot — is rejected immediately instead of
// occupying a queue slot only to time out. Cheaper for the server and
// more honest to the client, which gets a Retry-After it can act on
// now rather than a 504 later.
func (s *Server) admit(ctx context.Context, endpoint string) (release func(), kind errKind, detail string) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining, "server is draining"
	}
	if s.inflight >= s.cfg.MaxConcurrent+s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, errQueueFull,
			fmt.Sprintf("admission queue full (%d executing + %d queued)", s.cfg.MaxConcurrent, s.cfg.QueueDepth)
	}
	s.inflight++
	queued := s.inflight - s.cfg.MaxConcurrent
	s.mu.Unlock()
	if queued < 0 {
		queued = 0
	}
	s.brownout.sample(queued)

	if wait := s.expectedQueueWait(endpoint, queued); wait > 0 {
		if dl, ok := ctx.Deadline(); ok && dl.Sub(s.cfg.now()) < wait {
			s.requestDone()
			s.rec.Counter("serve_sheds").Add(1)
			return nil, errShed,
				fmt.Sprintf("expected queue wait %v exceeds remaining deadline", wait.Round(time.Millisecond))
		}
	}

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.requestDone()
		if k, _ := ctxErrKind(ctx.Err()); k == errClientGone {
			return nil, errClientGone, "client went away while queued"
		}
		return nil, errDeadlineExceeded, "deadline expired while queued"
	}
	s.mu.Lock()
	s.executing++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.executing--
		s.mu.Unlock()
		<-s.sem
		s.requestDone()
	}, "", ""
}

// requestDone retires one admitted request and completes a pending
// drain when it was the last. Completion also feeds the brown-out
// controller, so pressure relief is observed without any background
// timer: the sample after a quiet recovery window restores full
// quality.
func (s *Server) requestDone() {
	s.mu.Lock()
	s.inflight--
	queued := s.inflight - s.cfg.MaxConcurrent
	if s.draining && s.inflight == 0 && !s.drainClosed {
		s.drainClosed = true
		close(s.drained)
	}
	s.mu.Unlock()
	if queued < 0 {
		queued = 0
	}
	s.brownout.sample(queued)
}

// requestContext derives the per-request deadline: the request's
// timeout_ms clamped to MaxTimeout, or DefaultTimeout when absent. A
// negative timeout means "already expired" and short-circuits before
// admission.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc, bool) {
	if timeoutMS < 0 {
		return nil, nil, false
	}
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, true
}

// timed wraps a handler with method filtering, request counting, and
// per-endpoint latency telemetry. Latency is recorded server-side only
// (recorder phase + percentile tracker) — it never enters the response
// body.
func (s *Server) timed(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if ok, retryAfter := s.limiter.allow(clientID(r)); !ok {
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
			s.writeError(w, errRateLimited, "per-client rate limit exceeded", nil)
			return
		}
		s.rec.Counter("serve_requests_" + name).Add(1)
		start := time.Now()
		h(w, r)
		ns := time.Since(start).Nanoseconds()
		s.rec.Phase("serve." + name).AddNS(ns)
		s.lat.observe(name, ns)
	}
}

// handleHealthz reports liveness: 200 for as long as the process can
// serve HTTP at all, draining included. Liveness and readiness are
// deliberately distinct endpoints — an orchestrator restarts a process
// that fails liveness, which is exactly wrong for a server that is
// healthy and finishing its in-flight work; routing decisions belong
// to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
}

// handleReadyz reports readiness to accept new work: 503 from the
// moment Drain begins — before the last in-flight request completes —
// so load balancers stop routing to the instance while it is still
// alive to finish what it already accepted.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok"})
}

// statszBody is the /statsz response.
type statszBody struct {
	Pool     PoolStats `json:"pool"`
	Inflight int       `json:"inflight"`
	// Executing is how many admitted requests hold an execution slot;
	// Queued is the remainder waiting for one. QueuePressure is
	// Queued/QueueCapacity — the signal the brown-out controller watches.
	Executing     int                       `json:"executing"`
	Queued        int                       `json:"queued"`
	QueueCapacity int                       `json:"queue_capacity"`
	QueuePressure float64                   `json:"queue_pressure"`
	Draining      bool                      `json:"draining"`
	Degraded      bool                      `json:"degraded"`
	Breakers      map[string]string         `json:"breakers,omitempty"`
	Latency       map[string]LatencySummary `json:"latency_ns"`
	Counters      map[string]int64          `json:"counters,omitempty"`
	// Solver totals the cost counters of every successful solve, from
	// /v1/estimate and /v1/align alike.
	Solver obs.SolverStats `json:"solver"`
}

// handleStatsz reports pool, admission, resilience, and latency
// statistics.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	inflight := s.inflight
	executing := s.executing
	draining := s.draining
	s.mu.Unlock()
	queued := inflight - executing
	if queued < 0 {
		queued = 0
	}
	pressure := 0.0
	if s.cfg.QueueDepth > 0 {
		pressure = float64(queued) / float64(s.cfg.QueueDepth)
	}
	snap := s.rec.Snapshot()
	writeJSON(w, statszBody{
		Pool:          s.pool.Stats(),
		Inflight:      inflight,
		Executing:     executing,
		Queued:        queued,
		QueueCapacity: s.cfg.QueueDepth,
		QueuePressure: pressure,
		Draining:      draining,
		Degraded:      s.brownout.Degraded(),
		Breakers:      s.breaker.States(),
		Latency:       s.lat.summaries(),
		Counters:      snap.Counters,
		Solver:        snap.Solver,
	})
}

// LatencySummary is the percentile digest of one endpoint's latency.
type LatencySummary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// latencyTracker keeps a bounded reservoir of per-endpoint latency
// samples for percentile reporting. The rings are not
// concurrency-safe, so all state lives behind the tracker's mutex.
type latencyTracker struct {
	mu   sync.Mutex
	byEP map[string]*latencyRing
}

// latencyRing is a fixed-capacity overwrite-oldest sample buffer; the
// /statsz percentiles are digested from it. p50cache holds the median
// digested at sample count p50at, refreshed every p50RecomputeEvery
// samples for the admission-time shed test.
type latencyRing struct {
	samples  []float64
	next     int
	total    int
	p50cache float64
	p50at    int
}

const latencyRingCap = 4096

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{byEP: make(map[string]*latencyRing)}
}

func (t *latencyTracker) observe(endpoint string, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.byEP[endpoint]
	if !ok {
		r = &latencyRing{samples: make([]float64, 0, latencyRingCap)}
		t.byEP[endpoint] = r
	}
	if len(r.samples) < latencyRingCap {
		r.samples = append(r.samples, float64(ns))
	} else {
		r.samples[r.next] = float64(ns)
		r.next = (r.next + 1) % latencyRingCap
	}
	r.total++
}

// summaries digests every endpoint's reservoir into percentiles.
func (t *latencyTracker) summaries() map[string]LatencySummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]LatencySummary, len(t.byEP))
	for ep, r := range t.byEP {
		xs := append([]float64(nil), r.samples...)
		out[ep] = LatencySummary{
			Count: r.total,
			P50:   metrics.Percentile(xs, 50),
			P95:   metrics.Percentile(xs, 95),
			P99:   metrics.Percentile(xs, 99),
		}
	}
	return out
}

// decodeBody decodes a JSON request body with a size cap and strict
// field checking, so typos in tuning knobs fail loudly instead of
// silently selecting defaults. The body must hold exactly one JSON
// value: anything after it but whitespace is rejected.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, 4<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request: unexpected data after the JSON body")
	}
	return nil
}

// ctxErrKind maps a context error to the envelope taxonomy: a deadline
// is the server's own timeout (504), while Canceled means the client
// went away — its own client_gone kind, so disconnects never skew the
// deadline_exceeded counters.
func ctxErrKind(err error) (errKind, bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return errDeadlineExceeded, true
	case errors.Is(err, context.Canceled):
		return errClientGone, true
	}
	return "", false
}
