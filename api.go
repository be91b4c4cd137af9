package mmwalign

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"mmwalign/internal/align"
	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
	"mmwalign/internal/serve"
)

// Scheme names a beam-alignment strategy.
type Scheme string

// Available alignment schemes.
const (
	// SchemeProposed is the paper's learning-based scheme (Algorithm 1):
	// covariance-estimation-guided beam selection.
	SchemeProposed Scheme = "proposed"
	// SchemeRandom sounds uniformly random pairs (baseline).
	SchemeRandom Scheme = "random"
	// SchemeScan sounds pairs in spatially adjacent order (baseline).
	SchemeScan Scheme = "scan"
	// SchemeExhaustive rasters over every pair.
	SchemeExhaustive Scheme = "exhaustive"
	// SchemeHierarchical descends a multi-resolution RX codebook.
	SchemeHierarchical Scheme = "hierarchical"
	// SchemeTwoSided is the future-work extension: the proposed scheme's
	// RX machinery plus feedback-driven TX beam selection.
	SchemeTwoSided Scheme = "two-sided"
	// SchemeLocalRefine is the divide-and-conquer comparison baseline:
	// random probing followed by hill-climbing on the beam grid.
	SchemeLocalRefine Scheme = "local-refine"
	// SchemeDigital is the fully-digital-receiver upper bound: vector
	// snapshots and sample-covariance beam selection.
	SchemeDigital Scheme = "digital"
)

// ChannelKind selects the propagation model.
type ChannelKind int

// Channel kinds.
const (
	// ChannelSinglePath is one specular path with random geometry — the
	// paper's Fig. 5/7 scenario.
	ChannelSinglePath ChannelKind = iota + 1
	// ChannelNYCMultipath is the clustered multipath model with NYC
	// 28 GHz statistics — the paper's Fig. 6/8 scenario.
	ChannelNYCMultipath
)

// LinkSpec describes a simulated mmWave link. The zero value of every
// field selects the paper's setting.
type LinkSpec struct {
	// TXPanelX, TXPanelZ are the transmit UPA dimensions (default 4×4).
	TXPanelX, TXPanelZ int
	// RXPanelX, RXPanelZ are the receive UPA dimensions (default 8×8).
	RXPanelX, RXPanelZ int
	// TXBeamsAz, TXBeamsEl shape the TX codebook grid (default 4×4,
	// card(U) = 16).
	TXBeamsAz, TXBeamsEl int
	// RXBeamsAz, RXBeamsEl shape the RX codebook grid (default 8×8,
	// card(V) = 64).
	RXBeamsAz, RXBeamsEl int
	// SNRdB is the pre-beamforming sounding SNR E_s/N₀ (default 0 dB).
	SNRdB float64
	// Snapshots is the number of fading+noise snapshots averaged per
	// measurement (default 4).
	Snapshots int
	// Channel picks the propagation model (default ChannelSinglePath).
	Channel ChannelKind
	// Seed makes the link reproducible.
	Seed int64
}

func (s LinkSpec) withDefaults() LinkSpec {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&s.TXPanelX, 4)
	def(&s.TXPanelZ, 4)
	def(&s.RXPanelX, 8)
	def(&s.RXPanelZ, 8)
	def(&s.TXBeamsAz, 4)
	def(&s.TXBeamsEl, 4)
	def(&s.RXBeamsAz, 8)
	def(&s.RXBeamsEl, 8)
	def(&s.Snapshots, 4)
	if s.Channel == 0 {
		s.Channel = ChannelSinglePath
	}
	return s
}

// AlignOptions tunes the proposed scheme. A zero field takes the
// reproduction's default, the same one the figures use.
type AlignOptions struct {
	// J is the number of RX measurements per TX slot.
	J int
	// Mu is the nuclear-norm regularization weight.
	Mu float64
	// Window bounds the estimation history, in measurements.
	Window int
}

// Result reports an alignment run.
type Result struct {
	// Scheme is the strategy that produced the result.
	Scheme Scheme
	// TXBeam and RXBeam are the selected codebook indices.
	TXBeam, RXBeam int
	// TXAzDeg, TXElDeg, RXAzDeg, RXElDeg are the selected steering
	// angles in degrees.
	TXAzDeg, TXElDeg, RXAzDeg, RXElDeg float64
	// MeasuredSNRdB is the measured SNR of the selected pair — what the
	// receiver can report.
	MeasuredSNRdB float64
	// TrueSNRdB is the ground-truth expected SNR of the selected pair.
	TrueSNRdB float64
	// OptimalSNRdB is the oracle-best pair's SNR.
	OptimalSNRdB float64
	// LossDB is OptimalSNRdB − TrueSNRdB, the paper's Eq. 31 metric.
	LossDB float64
	// Measurements is the number of pairs actually sounded.
	Measurements int
	// SearchRate is Measurements / TotalPairs, the paper's Eq. 32.
	SearchRate float64
	// LossTrajectoryDB[i] is the loss of the best pair found after i+1
	// measurements (+Inf before the first codebook pair is sounded).
	LossTrajectoryDB []float64
}

// Link is a simulated mmWave TX/RX pair ready for beam alignment.
type Link struct {
	spec LinkSpec
	env  *align.Env
	root *rng.Source
	runs int
}

// NewLink builds a link from the spec, drawing the channel realization
// from the spec's seed.
func NewLink(spec LinkSpec) (*Link, error) {
	spec = spec.withDefaults()
	tx := antenna.NewUPA(spec.TXPanelX, spec.TXPanelZ)
	rx := antenna.NewUPA(spec.RXPanelX, spec.RXPanelZ)
	root := rng.New(spec.Seed)

	var (
		ch  *channel.Channel
		err error
	)
	switch spec.Channel {
	case ChannelSinglePath:
		ch, err = channel.NewSinglePath(root.Split("channel"), tx, rx, channel.SinglePathSpec{})
	case ChannelNYCMultipath:
		ch, err = channel.NewNYCMultipath(root.Split("channel"), tx, rx, channel.DefaultNYC28())
	default:
		return nil, fmt.Errorf("mmwalign: unknown channel kind %d", spec.Channel)
	}
	if err != nil {
		return nil, fmt.Errorf("mmwalign: building channel: %w", err)
	}

	sounder, err := meas.NewSounder(ch, channel.DBToLinear(spec.SNRdB), root.Split("noise"))
	if err != nil {
		return nil, fmt.Errorf("mmwalign: building sounder: %w", err)
	}
	sounder.SetSnapshots(spec.Snapshots)

	env := &align.Env{
		TXBook:  antenna.NewGridCodebook(tx, spec.TXBeamsAz, spec.TXBeamsEl, math.Pi, math.Pi/2),
		RXBook:  antenna.NewGridCodebook(rx, spec.RXBeamsAz, spec.RXBeamsEl, math.Pi, math.Pi/2),
		Sounder: sounder,
		Src:     root.Split("strategy"),
	}
	return &Link{spec: spec, env: env, root: root}, nil
}

// TotalPairs returns T = card(U)·card(V) for this link.
func (l *Link) TotalPairs() int { return l.env.TotalPairs() }

// Spec returns the (defaulted) specification the link was built with.
func (l *Link) Spec() LinkSpec { return l.spec }

// Align runs the given scheme with the given measurement budget and
// returns the selected beam pair with its quality metrics. Each call
// sounds the same channel realization with fresh measurement noise and
// fresh strategy randomness, so repeated calls (or different schemes)
// are directly comparable. Align is the non-cancellable convenience
// form of AlignContext.
func (l *Link) Align(scheme Scheme, budget int, opts ...AlignOptions) (Result, error) {
	return l.AlignContext(context.Background(), scheme, budget, opts...)
}

// AlignContext is Align with cooperative cancellation: when ctx is
// cancelled or its deadline passes, the run stops at the next
// measurement or estimation boundary and the context's error is
// returned (matchable with errors.Is).
func (l *Link) AlignContext(ctx context.Context, scheme Scheme, budget int, opts ...AlignOptions) (Result, error) {
	var opt AlignOptions
	if len(opts) > 1 {
		return Result{}, fmt.Errorf("mmwalign: pass at most one AlignOptions")
	}
	if len(opts) == 1 {
		opt = opts[0]
	}
	strat, err := l.strategy(scheme, opt)
	if err != nil {
		return Result{}, err
	}
	l.runs++
	runEnv := &align.Env{
		TXBook:  l.env.TXBook,
		RXBook:  l.env.RXBook,
		Sounder: l.env.Sounder,
		Src:     l.root.SplitIndexed("align-run", l.runs),
	}
	tr, err := align.EvaluateContext(ctx, runEnv, strat, budget)
	if err != nil {
		if ctx.Err() != nil {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("mmwalign: %w", err)
	}

	txBeam := runEnv.TXBook.Beam(tr.BestPair.TX)
	rxBeam := runEnv.RXBook.Beam(tr.BestPair.RX)
	return Result{
		Scheme:           scheme,
		TXBeam:           tr.BestPair.TX,
		RXBeam:           tr.BestPair.RX,
		TXAzDeg:          txBeam.Dir.Az * 180 / math.Pi,
		TXElDeg:          txBeam.Dir.El * 180 / math.Pi,
		RXAzDeg:          rxBeam.Dir.Az * 180 / math.Pi,
		RXElDeg:          rxBeam.Dir.El * 180 / math.Pi,
		MeasuredSNRdB:    channel.LinearToDB(tr.BestMeasuredSNR),
		TrueSNRdB:        channel.LinearToDB(tr.BestTrueSNR),
		OptimalSNRdB:     channel.LinearToDB(tr.OptSNR),
		LossDB:           tr.FinalLossDB(),
		Measurements:     len(tr.LossDB),
		SearchRate:       float64(len(tr.LossDB)) / float64(l.TotalPairs()),
		LossTrajectoryDB: tr.LossDB,
	}, nil
}

// OptimalSNRdB returns the oracle-best pair's true SNR in dB — useful
// for computing losses of externally chosen pairs.
func (l *Link) OptimalSNRdB() float64 {
	_, snr := align.Oracle(l.env)
	return channel.LinearToDB(snr)
}

// ServerConfig tunes the embedded alignment server. The zero value is
// usable: defaults match cmd/beamserve's.
type ServerConfig struct {
	// MaxConcurrent bounds requests executing simultaneously (default 4).
	MaxConcurrent int
	// QueueDepth bounds requests waiting beyond MaxConcurrent (default
	// 8); arrivals past the sum are rejected with 503 + Retry-After.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request does
	// not carry its own timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps a request-supplied timeout_ms (default 60s).
	MaxTimeout time.Duration
	// RetryAfterSeconds is the floor for the Retry-After hint on
	// backpressure responses (default 1); the live hint scales with the
	// observed queue drain time.
	RetryAfterSeconds int

	// RateLimitPerSec enables per-client token-bucket rate limiting
	// (429 + Retry-After) at this sustained rate; 0 disables. Clients
	// are keyed by the X-Client-ID header, falling back to remote host.
	RateLimitPerSec float64
	// RateLimitBurst is the bucket capacity (default ceil of the rate).
	RateLimitBurst int
	// BreakerThreshold is how many consecutive estimation failures on
	// one estimator spec trip its circuit breaker, short-circuiting to
	// the scan-order fallback (default 5; negative disables).
	BreakerThreshold int
	// BreakerCooldown is the open-circuit wait before a half-open probe
	// (default 5s).
	BreakerCooldown time.Duration
	// BrownoutQueueFrac is the queue-occupancy fraction that arms
	// brown-out degraded mode: under sustained pressure /v1/align
	// transparently serves scan-order responses marked "degraded": true
	// instead of 503ing (default 0.75; negative disables).
	BrownoutQueueFrac float64
	// BrownoutAfter / BrownoutRecover are the sustained-pressure and
	// sustained-quiet windows for entering and leaving brown-out
	// (default 2s each).
	BrownoutAfter   time.Duration
	BrownoutRecover time.Duration
}

// NewAlignHandler returns an http.Handler serving the beam-alignment
// API (POST /v1/estimate, POST /v1/align, GET /healthz, GET /statsz —
// see cmd/beamserve) together with a drain function: calling it stops
// admission and blocks until in-flight requests complete or its context
// expires. The handler keeps pooled estimator workspaces warm across
// requests; embed it when the alignment service should live inside an
// existing process instead of the standalone binary.
func NewAlignHandler(cfg ServerConfig) (http.Handler, func(context.Context) error) {
	srv := serve.NewServer(serve.Config{
		MaxConcurrent:     cfg.MaxConcurrent,
		QueueDepth:        cfg.QueueDepth,
		DefaultTimeout:    cfg.DefaultTimeout,
		MaxTimeout:        cfg.MaxTimeout,
		RetryAfterSeconds: cfg.RetryAfterSeconds,
		RateLimitPerSec:   cfg.RateLimitPerSec,
		RateLimitBurst:    cfg.RateLimitBurst,
		BreakerThreshold:  cfg.BreakerThreshold,
		BreakerCooldown:   cfg.BreakerCooldown,
		BrownoutQueueFrac: cfg.BrownoutQueueFrac,
		BrownoutAfter:     cfg.BrownoutAfter,
		BrownoutRecover:   cfg.BrownoutRecover,
	})
	return srv, srv.Drain
}

func (l *Link) strategy(scheme Scheme, opt AlignOptions) (align.Strategy, error) {
	strat, err := align.ForScheme(string(scheme), l.env.RXBook, align.SchemeSpec{
		J:         opt.J,
		Window:    opt.Window,
		Estimator: covest.Options{Gamma: channel.DBToLinear(l.spec.SNRdB), Mu: opt.Mu},
	})
	if err != nil {
		return nil, fmt.Errorf("mmwalign: unknown scheme %q", scheme)
	}
	return strat, nil
}
