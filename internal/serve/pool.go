// Package serve is the beam-alignment-as-a-service layer: a
// long-running HTTP/JSON server over the paper's alignment pipeline
// (compressive sounding → low-rank Q̂ estimation → beam selection).
//
// The numeric core is built from single-owner state — the covariance
// estimator's workspace arenas (internal/covest) and the codebook
// scoring scratch (internal/antenna) are owned by exactly one goroutine
// at a time. The serving layer bridges that to concurrent requests with
// an explicit session/lease abstraction: a Session bundles one
// estimator, a shared immutable codebook, and per-request scratch; a
// Lease is exclusive ownership of a Session between admission and
// response. Leases are generation-checked — using a Session through a
// released Lease panics instead of silently racing the next request —
// and every lease resets the estimator workspace, so a request can
// never observe numeric residue of the previous owner (enforced by the
// cross-request leakage regression test).
//
// Requests are admitted through a bounded queue: up to MaxConcurrent
// requests run, up to QueueDepth more wait, and everything beyond that
// is rejected with 503 + Retry-After. Per-request deadlines ride the
// standard context plumbing down through covest.EstimateContext and
// align.EvaluateContext. SIGTERM drains gracefully: in-flight requests
// complete, new ones are rejected.
package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mmwalign/internal/align"
	"mmwalign/internal/antenna"
	"mmwalign/internal/covest"
)

// EstimatorSpec pins down one pooled-session configuration: the RX
// array and codebook geometry plus the estimator options. Sessions are
// pooled per spec, so two requests with the same spec reuse one warm
// workspace while differing specs never share state.
type EstimatorSpec struct {
	// PanelX, PanelZ are the RX UPA dimensions.
	PanelX, PanelZ int
	// BeamsAz, BeamsEl shape the RX codebook grid.
	BeamsAz, BeamsEl int
	// Gamma is the pre-beamforming SNR (linear).
	Gamma float64
	// Mu is the nuclear-norm regularization weight.
	Mu float64
	// MaxIters bounds the proximal solver iterations.
	MaxIters int
	// Accelerated selects FISTA over ISTA.
	Accelerated bool
}

// WithDefaults fills zero fields with the paper's settings: 8×8 UPA,
// 8×8 beam grid, 0 dB → γ=1, and µ and the iteration budget of
// align.SchemeSpec.WithDefaults.
func (s EstimatorSpec) WithDefaults() EstimatorSpec {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&s.PanelX, 8)
	def(&s.PanelZ, 8)
	def(&s.BeamsAz, 8)
	def(&s.BeamsEl, 8)
	if s.Gamma == 0 {
		s.Gamma = 1
	}
	est := align.SchemeSpec{Estimator: covest.Options{Mu: s.Mu, MaxIters: s.MaxIters}}.WithDefaults().Estimator
	s.Mu, s.MaxIters = est.Mu, est.MaxIters
	return s
}

// Validate rejects specs the session constructor would panic on.
func (s EstimatorSpec) Validate() error {
	if s.PanelX <= 0 || s.PanelZ <= 0 {
		return fmt.Errorf("serve: RX panel %dx%d must be positive", s.PanelX, s.PanelZ)
	}
	if s.BeamsAz <= 0 || s.BeamsEl <= 0 {
		return fmt.Errorf("serve: RX beam grid %dx%d must be positive", s.BeamsAz, s.BeamsEl)
	}
	if s.Gamma <= 0 || math.IsNaN(s.Gamma) || math.IsInf(s.Gamma, 0) {
		return fmt.Errorf("serve: gamma %g must be positive and finite", s.Gamma)
	}
	if s.Mu <= 0 || math.IsNaN(s.Mu) || math.IsInf(s.Mu, 0) {
		return fmt.Errorf("serve: mu %g must be positive and finite", s.Mu)
	}
	if s.MaxIters <= 0 {
		return fmt.Errorf("serve: max iters %d must be positive", s.MaxIters)
	}
	return nil
}

// key canonicalizes the spec for pool lookup.
func (s EstimatorSpec) key() string {
	return fmt.Sprintf("%dx%d/%dx%d/g%v/mu%v/it%d/acc%t",
		s.PanelX, s.PanelZ, s.BeamsAz, s.BeamsEl, s.Gamma, s.Mu, s.MaxIters, s.Accelerated)
}

// bookKey canonicalizes only the geometry half of the spec: codebooks
// are immutable and concurrency-safe, so all sessions whose specs share
// a geometry share one packed codebook.
func (s EstimatorSpec) bookKey() string {
	return fmt.Sprintf("%dx%d/%dx%d", s.PanelX, s.PanelZ, s.BeamsAz, s.BeamsEl)
}

// Session is one warm single-owner workspace: a covariance estimator
// (solver arenas), the shared RX codebook (packed scorer), and the
// per-request selection scratch. A Session is reached only through a
// Lease; its generation counter is the debug assertion that catches
// use-after-release.
type Session struct {
	spec EstimatorSpec
	est  *covest.Estimator
	book *antenna.Codebook

	// obsBuf, topk and scores are the per-request scratch, reset on
	// lease (the serving-layer analogue of align's selectScratch).
	obsBuf []covest.Observation
	topk   []int
	scores []float64

	// gen is bumped on every release; a Lease holds the generation it
	// was issued at, so any access through a released lease mismatches.
	gen atomic.Uint64
	// inUse asserts exclusive ownership between lease and release.
	inUse atomic.Bool
}

// Estimator returns the session's covariance estimator.
func (s *Session) Estimator() *covest.Estimator { return s.est }

// Book returns the shared RX codebook.
func (s *Session) Book() *antenna.Codebook { return s.book }

// reset clears all cross-request state: the estimator workspace arenas
// and the selection scratch. Called on every lease.
func (s *Session) reset() {
	s.est.Reset()
	s.obsBuf = s.obsBuf[:0]
	s.topk = s.topk[:0]
	for i := range s.scores {
		s.scores[i] = 0
	}
}

// Lease is exclusive, generation-checked ownership of a Session. The
// zero Lease is invalid. Exactly one of Release or Discard must be
// called; afterwards every Session() call panics.
type Lease struct {
	s    *Session
	gen  uint64
	pool *Pool
	done bool
}

// Session returns the leased session, asserting the lease is still
// live. A stale access — after Release/Discard, or through a lease
// whose session was re-issued — is always a serving-layer bug and
// panics rather than racing the session's next owner.
func (l *Lease) Session() *Session {
	if l == nil || l.s == nil || l.done {
		panic("serve: use of released session lease")
	}
	if g := l.s.gen.Load(); g != l.gen {
		panic(fmt.Sprintf("serve: stale session lease (issued at generation %d, session now at %d)", l.gen, g))
	}
	return l.s
}

// Release ends the lease and returns the session to the pool for the
// next request. The generation bump invalidates every outstanding
// reference through this lease before the session becomes leasable.
func (l *Lease) Release() {
	s := l.Session()
	l.done = true
	l.pool.active.Add(-1)
	s.gen.Add(1)
	s.inUse.Store(false)
	l.pool.put(s)
}

// Discard ends the lease without pooling the session — the escape
// hatch for a workspace that may be poisoned (a request that panicked
// mid-solve). The session is dropped for the GC; the next lease builds
// a fresh one.
func (l *Lease) Discard() {
	s := l.Session()
	l.done = true
	l.pool.active.Add(-1)
	l.pool.discarded.Add(1)
	s.gen.Add(1)
	s.inUse.Store(false)
}

// Pool hands out session leases, one exclusive owner per session at a
// time. Sessions are recycled through per-spec free lists that keep at
// most maxIdle idle sessions each, while codebooks — immutable and
// internally pooled — are cached permanently per geometry.
type Pool struct {
	mu      sync.Mutex
	books   map[string]*antenna.Codebook
	free    map[string]*specPool
	maxIdle int

	created   atomic.Int64
	leases    atomic.Int64
	active    atomic.Int64
	discarded atomic.Int64
}

// specPool recycles sessions of one spec: a deterministic single-slot
// hot cache (the last released session is always the next leased — the
// warm-workspace fast path) in front of a bounded overflow list, so
// burst concurrency still recycles. The overflow is a plain slice, not a
// sync.Pool: a sync.Pool is emptied by every GC, which made steady
// concurrent traffic rebuild sessions (and their solver arenas) after
// each collection. With the pool's bound at the server's execution
// slots, one spec can never hold more idle sessions than requests that
// could lease them at once.
type specPool struct {
	mu       sync.Mutex
	hot      *Session
	overflow []*Session
	max      int // bound on len(overflow)
}

func (f *specPool) get() *Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.hot; s != nil {
		f.hot = nil
		return s
	}
	n := len(f.overflow)
	if n == 0 {
		return nil
	}
	s := f.overflow[n-1]
	f.overflow[n-1] = nil
	f.overflow = f.overflow[:n-1]
	return s
}

func (f *specPool) put(s *Session) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.hot == nil:
		f.hot = s
	case len(f.overflow) < f.max:
		f.overflow = append(f.overflow, s)
	}
	// Beyond the bound the session is dropped for the GC.
}

// NewPool creates an empty session pool that keeps at most maxIdle idle
// sessions per spec (at least one). The server passes its
// MaxConcurrent, the most sessions of one spec that can be leased at
// once.
func NewPool(maxIdle int) *Pool {
	return &Pool{
		books:   make(map[string]*antenna.Codebook),
		free:    make(map[string]*specPool),
		maxIdle: max(maxIdle, 1),
	}
}

// PoolStats is a point-in-time account of pool activity.
type PoolStats struct {
	// Created counts sessions ever constructed.
	Created int64 `json:"created"`
	// Leases counts leases ever issued.
	Leases int64 `json:"leases"`
	// Active is the number of currently leased sessions.
	Active int64 `json:"active"`
	// Discarded counts sessions dropped as potentially poisoned.
	Discarded int64 `json:"discarded"`
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Created:   p.created.Load(),
		Leases:    p.leases.Load(),
		Active:    p.active.Load(),
		Discarded: p.discarded.Load(),
	}
}

// book returns the shared codebook for the spec's geometry, building it
// on first use.
func (p *Pool) book(spec EstimatorSpec) *antenna.Codebook {
	key := spec.bookKey()
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.books[key]
	if !ok {
		rx := antenna.NewUPA(spec.PanelX, spec.PanelZ)
		b = antenna.NewGridCodebook(rx, spec.BeamsAz, spec.BeamsEl, math.Pi, math.Pi/2)
		p.books[key] = b
	}
	return b
}

// freeFor returns the free list recycling sessions of the given spec.
func (p *Pool) freeFor(key string) *specPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.free[key]
	if !ok {
		f = &specPool{max: p.maxIdle - 1}
		p.free[key] = f
	}
	return f
}

// Lease acquires exclusive ownership of a session for the spec,
// reusing a pooled one when available. The session is reset before it
// is handed out — estimator arenas zeroed, scratch truncated — so the
// new owner starts from a state indistinguishable from a freshly
// constructed session.
func (p *Pool) Lease(spec EstimatorSpec) (*Lease, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	free := p.freeFor(spec.key())
	s := free.get()
	if s == nil {
		book := p.book(spec)
		n := spec.PanelX * spec.PanelZ
		est, err := covest.NewEstimator(n, covest.Options{
			Gamma:       spec.Gamma,
			Mu:          spec.Mu,
			MaxIters:    spec.MaxIters,
			Accelerated: spec.Accelerated,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: building session estimator: %w", err)
		}
		s = &Session{
			spec:   spec,
			est:    est,
			book:   book,
			scores: make([]float64, book.Size()),
			topk:   make([]int, 0, book.Size()),
		}
		p.created.Add(1)
	}
	if !s.inUse.CompareAndSwap(false, true) {
		panic("serve: pooled session leased while still in use")
	}
	s.reset()
	p.leases.Add(1)
	p.active.Add(1)
	return &Lease{s: s, gen: s.gen.Load(), pool: p}, nil
}

// put returns a released session to its spec's free list.
func (p *Pool) put(s *Session) {
	p.freeFor(s.spec.key()).put(s)
}
