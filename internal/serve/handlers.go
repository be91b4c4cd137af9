package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"mmwalign/internal/align"
	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	"mmwalign/internal/obs"
	"mmwalign/internal/rng"
)

// estimateRequest is the POST /v1/estimate body: a sounding
// configuration plus the energy observations of one estimation window.
// Observations reference RX beams by codebook index — the server owns
// the codebook, so clients never ship weight vectors.
type estimateRequest struct {
	// PanelX, PanelZ are the RX UPA dimensions (default 8×8).
	PanelX int `json:"panel_x,omitempty"`
	PanelZ int `json:"panel_z,omitempty"`
	// BeamsAz, BeamsEl shape the RX codebook grid (default 8×8).
	BeamsAz int `json:"beams_az,omitempty"`
	BeamsEl int `json:"beams_el,omitempty"`
	// SNRdB is the pre-beamforming sounding SNR (default 0 dB).
	SNRdB float64 `json:"snr_db,omitempty"`
	// Mu is the nuclear-norm regularization weight and MaxIters bounds
	// the proximal solver iterations; zero takes
	// align.SchemeSpec.WithDefaults.
	Mu       float64 `json:"mu,omitempty"`
	MaxIters int     `json:"max_iters,omitempty"`
	// Accelerated selects FISTA over ISTA.
	Accelerated bool `json:"accelerated,omitempty"`
	// Observations is the estimation window.
	Observations []estimateObservation `json:"observations"`
	// TopK is how many ranked beams to return (default 8).
	TopK int `json:"top_k,omitempty"`
	// TimeoutMS overrides the server's default request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Telemetry asks for the per-request recorder snapshot (a manifest
	// fragment) in the response. Off by default: the snapshot carries
	// wall-clock phase timings, which would break response determinism.
	Telemetry bool `json:"telemetry,omitempty"`
}

// estimateObservation is one energy measurement keyed by RX beam index.
type estimateObservation struct {
	Beam   int     `json:"beam"`
	Energy float64 `json:"energy"`
}

// beamPick reports one selected beam with its steering direction and
// quadratic-form score.
type beamPick struct {
	Beam  int     `json:"beam"`
	AzDeg float64 `json:"az_deg"`
	ElDeg float64 `json:"el_deg"`
	Score float64 `json:"score"`
}

// estimateResponse is the POST /v1/estimate success body. Every field
// is a deterministic function of the request — no timing, no request
// IDs — so identical requests yield byte-identical bodies at any server
// concurrency.
type estimateResponse struct {
	// Estimate summarizes Q̂.
	Estimate estimateSummary `json:"estimate"`
	// Picks are the codebook beams ranked by vᴴQ̂v.
	Picks picks `json:"picks"`
	// Solver reports the iteration cost counters.
	Solver solverSummary `json:"solver"`
	// Telemetry is the optional per-request manifest fragment.
	Telemetry *obs.Snapshot `json:"telemetry,omitempty"`
}

// estimateSummary is the Q̂ digest: enough to judge estimate quality
// without shipping an N×N complex matrix.
type estimateSummary struct {
	// N is the ambient (antenna) dimension.
	N int `json:"n"`
	// Trace is tr(Q̂) = ‖Q̂‖_* on the PSD cone.
	Trace float64 `json:"trace"`
	// Rank is the numerical rank of Q̂.
	Rank int `json:"rank"`
	// SubspaceDim is the measurement-subspace dimension the solver
	// worked in.
	SubspaceDim int `json:"subspace_dim"`
	// TopEigenvalue is Q̂'s largest eigenvalue (the dominant-path gain),
	// read off its factor: the basis is orthonormal, so the factor's
	// weights are exactly Q̂'s nonzero eigenvalues.
	TopEigenvalue float64 `json:"top_eigenvalue"`
	// Objective is the final penalized negative log-likelihood.
	Objective float64 `json:"objective"`
	// StopReason is the solver's terminal state.
	StopReason string `json:"stop_reason"`
	// Degraded marks estimates produced through a solver guardrail.
	Degraded bool `json:"degraded"`
}

// picks carries the beam-selection half of the response.
type picks struct {
	Best beamPick   `json:"best"`
	TopK []beamPick `json:"top_k"`
}

// solverSummary mirrors covest.Stats' cost counters.
type solverSummary struct {
	Iters          int `json:"iters"`
	EigenDecomps   int `json:"eigen_decomps"`
	EigenIters     int `json:"eigen_iters"`
	LambdaMadds    int `json:"lambda_madds"`
	GradientMadds  int `json:"gradient_madds"`
	SetupMadds     int `json:"setup_madds"`
	ObjectiveEvals int `json:"objective_evals"`
	GradientEvals  int `json:"gradient_evals"`
	Backtracks     int `json:"backtracks"`
}

// scanFallback builds the scan-order degradation hint for a codebook:
// the prefix of the snake-raster sweep a client can sound directly when
// estimation is unavailable (the same policy the alignment strategies
// fall back to internally).
func scanFallback(book *antenna.Codebook, n int) *fallbackInfo {
	order := book.SnakeOrder()
	if n > len(order) {
		n = len(order)
	}
	return &fallbackInfo{Policy: "scan-order", RXBeams: order[:n]}
}

// handleEstimate answers POST /v1/estimate: lease a pooled session, run
// the covariance estimate, rank the codebook, release the session.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, errBadRequest, err.Error(), nil)
		return
	}
	if len(req.Observations) == 0 {
		s.writeError(w, errBadRequest, "no observations", nil)
		return
	}
	if req.TopK == 0 {
		req.TopK = 8
	}
	if req.TopK < 0 {
		s.writeError(w, errBadRequest, "top_k must be non-negative", nil)
		return
	}

	ctx, cancel, ok := s.requestContext(r, req.TimeoutMS)
	if !ok {
		s.writeError(w, errDeadlineExceeded, "request deadline already expired", nil)
		return
	}
	defer cancel()
	// An expired deadline is rejected before admission and before any
	// session is leased — the request must not consume pool capacity.
	if err := ctx.Err(); err != nil {
		s.writeError(w, errDeadlineExceeded, "request deadline already expired", nil)
		return
	}

	release, kind, detail := s.admit(ctx, "estimate")
	if kind != "" {
		s.writeError(w, kind, detail, nil)
		return
	}
	defer release()

	spec := EstimatorSpec{
		PanelX:      req.PanelX,
		PanelZ:      req.PanelZ,
		BeamsAz:     req.BeamsAz,
		BeamsEl:     req.BeamsEl,
		Gamma:       channel.DBToLinear(req.SNRdB),
		Mu:          req.Mu,
		MaxIters:    req.MaxIters,
		Accelerated: req.Accelerated,
	}
	// Validate before the breaker consults the canonical spec key, so the
	// circuit never keys on (or the short-circuit codebook builds from)
	// geometry the constructors would panic on. Lease re-validates; same
	// error text either way.
	eff := spec.WithDefaults()
	if err := eff.Validate(); err != nil {
		s.writeError(w, errBadRequest, err.Error(), nil)
		return
	}

	// Circuit breaker: a spec whose estimator keeps failing is answered
	// straight from the shared codebook — scan-order fallback, no session
	// leased, no solver budget burned.
	bkey := "estimate:" + eff.key()
	proceed, probe, wait := s.breaker.Allow(bkey)
	if !proceed {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(wait)))
		s.writeError(w, errCircuitOpen,
			"estimator circuit open for this spec; sound the scan-order fallback",
			scanFallback(s.pool.book(eff), req.TopK))
		return
	}
	outcome := breakerNeutral
	defer func() { s.breaker.resolve(bkey, probe, outcome) }()

	lease, err := s.pool.Lease(spec)
	if err != nil {
		s.writeError(w, errBadRequest, err.Error(), nil)
		return
	}
	sess := lease.Session()
	book := sess.Book()
	// A panic mid-solve means the session's arenas may hold torn state:
	// discard the session (the pool builds a fresh one) instead of
	// poisoning the next request, and answer a typed 500. The recovery
	// path reads the codebook captured above — shared, immutable, and
	// alive past the lease — because Lease.Session() panics by design
	// once Discard has run.
	done := false
	defer func() {
		if p := recover(); p != nil {
			if !done {
				lease.Discard()
			}
			outcome = breakerFailure
			s.rec.Counter("serve_panics").Add(1)
			s.writeError(w, errInternalPanic, "request panicked; session discarded",
				scanFallback(book, req.TopK))
		}
	}()
	if s.cfg.estimateHook != nil {
		s.cfg.estimateHook()
	}

	sess.obsBuf = sess.obsBuf[:0]
	for i, o := range req.Observations {
		if o.Beam < 0 || o.Beam >= book.Size() {
			done = true
			lease.Release()
			s.writeError(w, errBadRequest,
				fmt.Sprintf("observation %d: beam index %d out of range [0,%d)", i, o.Beam, book.Size()), nil)
			return
		}
		sess.obsBuf = append(sess.obsBuf, covest.Observation{
			V:      book.Beam(o.Beam).Weights,
			Energy: o.Energy,
		})
	}

	rec := obs.New()
	q, stats, err := sess.Estimator().EstimateFactor(obs.Into(ctx, rec), sess.obsBuf, nil)
	if err != nil {
		done = true
		lease.Release()
		if k, isCtx := ctxErrKind(err); isCtx {
			s.writeError(w, k, err.Error(), scanFallback(book, req.TopK))
			return
		}
		// An observation the estimator rejects (negative or non-finite
		// energy) is the client's fault: a 400 that leaves the breaker
		// neutral, so bad input cannot open the circuit for valid callers.
		var oe *covest.ObservationError
		if errors.As(err, &oe) {
			s.writeError(w, errBadRequest, err.Error(), nil)
			return
		}
		// Estimation failure (poisoned energies, degenerate solve) is the
		// server-side analogue of the strategies' estimator failure: the
		// typed 5xx carries the scan-order fallback so the client can
		// keep sounding without an estimate.
		outcome = breakerFailure
		s.rec.Counter("serve_estimation_failures").Add(1)
		s.writeError(w, errEstimationFailed, err.Error(), scanFallback(book, req.TopK))
		return
	}
	outcome = breakerSuccess
	s.rec.AddSolve(align.SolveSample(stats))

	// One codebook scoring pass over Q̂'s factor feeds the best pick,
	// the top k and their reported scores.
	scores := sess.scores
	book.FactorScoresInto(q.UH, q.S, scores)
	bestIdx, bestScore := antenna.BestScore(scores)
	sess.topk = antenna.TopKScoresInto(scores, req.TopK, sess.topk)

	resp := estimateResponse{
		Estimate: estimateSummary{
			N:             spec.WithDefaults().PanelX * spec.WithDefaults().PanelZ,
			Trace:         q.Trace(),
			Rank:          stats.Rank,
			SubspaceDim:   stats.SubspaceDim,
			TopEigenvalue: q.Top(),
			Objective:     stats.Objective,
			StopReason:    stats.Diagnostics.Reason.String(),
			Degraded:      stats.Diagnostics.Degraded(),
		},
		Picks: picks{
			Best: pickFor(book, bestIdx, bestScore),
			TopK: make([]beamPick, 0, len(sess.topk)),
		},
		Solver: solverSummary{
			Iters:          stats.Iters,
			EigenDecomps:   stats.EigenDecomps,
			EigenIters:     stats.EigenIters,
			LambdaMadds:    stats.LambdaMadds,
			GradientMadds:  stats.GradientMadds,
			SetupMadds:     stats.SetupMadds,
			ObjectiveEvals: stats.ObjectiveEvals,
			GradientEvals:  stats.GradientEvals,
			Backtracks:     stats.Backtracks,
		},
	}
	for _, idx := range sess.topk {
		resp.Picks.TopK = append(resp.Picks.TopK, pickFor(book, idx, scores[idx]))
	}
	if req.Telemetry {
		snap := rec.Snapshot()
		resp.Telemetry = &snap
	}
	done = true
	lease.Release()
	writeJSON(w, resp)
}

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// pickFor assembles the response entry for one beam.
func pickFor(book *antenna.Codebook, idx int, score float64) beamPick {
	b := book.Beam(idx)
	return beamPick{
		Beam:  idx,
		AzDeg: b.Dir.Az * 180 / math.Pi,
		ElDeg: b.Dir.El * 180 / math.Pi,
		Score: score,
	}
}

// alignRequest is the POST /v1/align body: a full simulated alignment
// run — link geometry, channel model, scheme, and measurement budget.
// Deterministic for a fixed seed.
type alignRequest struct {
	// Scheme names the strategy (see align.SchemeNames). Default
	// "proposed".
	Scheme string `json:"scheme,omitempty"`
	// Budget is the measurement budget L (required).
	Budget int `json:"budget"`
	// Seed fixes the channel realization and strategy randomness.
	Seed int64 `json:"seed,omitempty"`
	// SNRdB is the pre-beamforming sounding SNR (default 0 dB).
	SNRdB float64 `json:"snr_db,omitempty"`
	// Channel picks the propagation model: "single-path" (default) or
	// "nyc-multipath".
	Channel string `json:"channel,omitempty"`
	// Snapshots is the per-measurement snapshot count (default 4).
	Snapshots int `json:"snapshots,omitempty"`
	// TXPanelX/Z, RXPanelX/Z are the UPA dimensions (default 4×4 TX,
	// 8×8 RX).
	TXPanelX int `json:"tx_panel_x,omitempty"`
	TXPanelZ int `json:"tx_panel_z,omitempty"`
	RXPanelX int `json:"rx_panel_x,omitempty"`
	RXPanelZ int `json:"rx_panel_z,omitempty"`
	// TXBeamsAz/El, RXBeamsAz/El shape the codebook grids (default 4×4
	// TX, 8×8 RX).
	TXBeamsAz int `json:"tx_beams_az,omitempty"`
	TXBeamsEl int `json:"tx_beams_el,omitempty"`
	RXBeamsAz int `json:"rx_beams_az,omitempty"`
	RXBeamsEl int `json:"rx_beams_el,omitempty"`
	// J, Mu, Window tune the proposed scheme; zero takes
	// align.SchemeSpec.WithDefaults.
	J      int     `json:"j,omitempty"`
	Mu     float64 `json:"mu,omitempty"`
	Window int     `json:"window,omitempty"`
	// TimeoutMS overrides the server's default request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Telemetry asks for the per-request recorder snapshot.
	Telemetry bool `json:"telemetry,omitempty"`
}

func (r alignRequest) withDefaults() alignRequest {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	if r.Scheme == "" {
		r.Scheme = "proposed"
	}
	if r.Channel == "" {
		r.Channel = "single-path"
	}
	def(&r.Snapshots, 4)
	def(&r.TXPanelX, 4)
	def(&r.TXPanelZ, 4)
	def(&r.RXPanelX, 8)
	def(&r.RXPanelZ, 8)
	def(&r.TXBeamsAz, 4)
	def(&r.TXBeamsEl, 4)
	def(&r.RXBeamsAz, 8)
	def(&r.RXBeamsEl, 8)
	return r
}

// validate rejects geometry the environment constructor would panic on
// (negative panel or beam-grid dimensions reach cmat.NewVector /
// NewGridCodebook before any recover is armed). withDefaults has
// already filled zeros, so anything non-positive here was explicitly
// negative in the request.
func (r alignRequest) validate() error {
	if r.TXPanelX <= 0 || r.TXPanelZ <= 0 {
		return fmt.Errorf("tx panel %dx%d must be positive", r.TXPanelX, r.TXPanelZ)
	}
	if r.RXPanelX <= 0 || r.RXPanelZ <= 0 {
		return fmt.Errorf("rx panel %dx%d must be positive", r.RXPanelX, r.RXPanelZ)
	}
	if r.TXBeamsAz <= 0 || r.TXBeamsEl <= 0 {
		return fmt.Errorf("tx beam grid %dx%d must be positive", r.TXBeamsAz, r.TXBeamsEl)
	}
	if r.RXBeamsAz <= 0 || r.RXBeamsEl <= 0 {
		return fmt.Errorf("rx beam grid %dx%d must be positive", r.RXBeamsAz, r.RXBeamsEl)
	}
	if r.Snapshots <= 0 {
		return fmt.Errorf("snapshots %d must be positive", r.Snapshots)
	}
	return nil
}

// alignResponse is the POST /v1/align success body.
type alignResponse struct {
	Scheme string `json:"scheme"`
	// TXBeam/RXBeam are the selected codebook indices with their
	// steering angles.
	TXBeam beamPick `json:"tx_beam"`
	RXBeam beamPick `json:"rx_beam"`
	// MeasuredSNRdB is what the receiver can report; TrueSNRdB and
	// OptimalSNRdB are the ground-truth scores; LossDB is the paper's
	// Eq. 31 metric.
	MeasuredSNRdB float64 `json:"measured_snr_db"`
	TrueSNRdB     float64 `json:"true_snr_db"`
	OptimalSNRdB  float64 `json:"optimal_snr_db"`
	LossDB        float64 `json:"loss_db"`
	// Measurements and SearchRate report the sounding cost (Eq. 32).
	Measurements int     `json:"measurements"`
	SearchRate   float64 `json:"search_rate"`
	// Fallback, when present, notes that the run degraded to scan-order
	// sounding (estimator failures mid-trajectory) and how often.
	Fallback *fallbackInfo `json:"fallback,omitempty"`
	// Degraded marks a brown-out response: the server transparently ran
	// the cheap scan-order strategy instead of the requested scheme to
	// keep answering under sustained overload. Omitted when false, so
	// full-quality responses stay byte-identical to a server without the
	// resilience layer.
	Degraded bool `json:"degraded,omitempty"`
	// Telemetry is the optional per-request manifest fragment.
	Telemetry *obs.Snapshot `json:"telemetry,omitempty"`
}

// handleAlign answers POST /v1/align: build the simulated link, run the
// strategy under the request deadline, score against the oracle.
func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	var req alignRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeError(w, errBadRequest, err.Error(), nil)
		return
	}
	req = req.withDefaults()
	if req.Budget <= 0 {
		s.writeError(w, errBadRequest, "budget must be positive", nil)
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, errBadRequest, err.Error(), nil)
		return
	}

	ctx, cancel, ok := s.requestContext(r, req.TimeoutMS)
	if !ok {
		s.writeError(w, errDeadlineExceeded, "request deadline already expired", nil)
		return
	}
	defer cancel()
	if err := ctx.Err(); err != nil {
		s.writeError(w, errDeadlineExceeded, "request deadline already expired", nil)
		return
	}

	release, kind, detail := s.admit(ctx, "align")
	if kind != "" {
		s.writeError(w, kind, detail, nil)
		return
	}
	defer release()

	env, err := s.buildEnv(req)
	if err != nil {
		s.writeError(w, errBadRequest, err.Error(), nil)
		return
	}

	// Brown-out: under sustained queue pressure every align request runs
	// the cheap scan-order sweep instead of its requested scheme, marked
	// "degraded": true — the server keeps answering rather than 503ing.
	scheme := req.Scheme
	degraded := false
	if scheme != "scan" && s.brownout.Degraded() {
		scheme = "scan"
		degraded = true
	}

	// Circuit breaker, keyed by effective scheme + codebook geometry.
	// Checked after buildEnv so a short-circuited request still exercises
	// the prober seam's wrap (fault-injection schedules keyed on wrap
	// count stay aligned).
	bkey := fmt.Sprintf("align:%s:%dx%d:%dx%d", scheme,
		req.TXBeamsAz, req.TXBeamsEl, req.RXBeamsAz, req.RXBeamsEl)
	proceed, probe, wait := s.breaker.Allow(bkey)
	if !proceed {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(wait)))
		s.writeError(w, errCircuitOpen,
			"alignment circuit open for this scheme; sound the scan-order fallback",
			scanFallback(env.RXBook, 8))
		return
	}
	outcome := breakerNeutral
	defer func() { s.breaker.resolve(bkey, probe, outcome) }()

	strat, err := align.ForScheme(scheme, env.RXBook, align.SchemeSpec{
		J:         req.J,
		Window:    req.Window,
		Estimator: covest.Options{Gamma: channel.DBToLinear(req.SNRdB), Mu: req.Mu},
	})
	if err != nil {
		s.writeError(w, errBadRequest, err.Error(), nil)
		return
	}

	// Panics from the measurement path (e.g. an injected prober fault)
	// must not take the server down: answer a typed 500. The env is
	// request-local, so no pooled state needs discarding here.
	defer func() {
		if p := recover(); p != nil {
			outcome = breakerFailure
			s.rec.Counter("serve_panics").Add(1)
			s.writeError(w, errInternalPanic, "alignment run panicked",
				scanFallback(env.RXBook, 8))
		}
	}()

	rec := obs.New()
	tr, err := align.EvaluateContext(obs.Into(ctx, rec), env, strat, req.Budget)
	if err != nil {
		if k, isCtx := ctxErrKind(err); isCtx {
			s.writeError(w, k, err.Error(), scanFallback(env.RXBook, 8))
			return
		}
		outcome = breakerFailure
		s.rec.Counter("serve_estimation_failures").Add(1)
		s.writeError(w, errEstimationFailed, err.Error(), scanFallback(env.RXBook, 8))
		return
	}

	resp := alignResponse{
		Scheme:        tr.Scheme,
		TXBeam:        pickFor(env.TXBook, tr.BestPair.TX, channel.LinearToDB(tr.BestTrueSNR)),
		RXBeam:        pickFor(env.RXBook, tr.BestPair.RX, channel.LinearToDB(tr.BestTrueSNR)),
		MeasuredSNRdB: channel.LinearToDB(tr.BestMeasuredSNR),
		TrueSNRdB:     channel.LinearToDB(tr.BestTrueSNR),
		OptimalSNRdB:  channel.LinearToDB(tr.OptSNR),
		LossDB:        tr.FinalLossDB(),
		Measurements:  len(tr.LossDB),
		SearchRate:    float64(len(tr.LossDB)) / float64(env.TotalPairs()),
	}
	// A non-finite score means the run's measurements were poisoned
	// (e.g. injected NaN energies): the selected pair is garbage, and
	// JSON could not carry the values anyway. Report the degradation as
	// a typed failure carrying the scan-order fallback.
	if !finite(resp.MeasuredSNRdB) || !finite(resp.TrueSNRdB) || !finite(resp.OptimalSNRdB) || !finite(resp.LossDB) {
		outcome = breakerFailure
		s.rec.Counter("serve_estimation_failures").Add(1)
		s.writeError(w, errEstimationFailed,
			"alignment produced a non-finite result (poisoned measurements)", scanFallback(env.RXBook, 8))
		return
	}
	outcome = breakerSuccess
	s.rec.AddSolverStats(rec.Snapshot().Solver)
	if n := rec.Counter("estimator_fallbacks").Value(); n > 0 {
		resp.Fallback = &fallbackInfo{Policy: "scan-order", Count: n}
	}
	if degraded {
		resp.Degraded = true
		s.rec.Counter("serve_degraded_responses").Add(1)
	}
	if req.Telemetry {
		snap := rec.Snapshot()
		resp.Telemetry = &snap
	}
	writeJSON(w, resp)
}

// retryAfterSecs rounds a wait up to whole seconds for the Retry-After
// header, at least one.
func retryAfterSecs(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// buildEnv constructs the request-local simulation environment,
// threading the server's prober seam around the sounder.
func (s *Server) buildEnv(req alignRequest) (*align.Env, error) {
	tx := antenna.NewUPA(req.TXPanelX, req.TXPanelZ)
	rx := antenna.NewUPA(req.RXPanelX, req.RXPanelZ)
	root := rng.New(req.Seed)

	var (
		ch  *channel.Channel
		err error
	)
	switch req.Channel {
	case "single-path":
		ch, err = channel.NewSinglePath(root.Split("channel"), tx, rx, channel.SinglePathSpec{})
	case "nyc-multipath":
		ch, err = channel.NewNYCMultipath(root.Split("channel"), tx, rx, channel.DefaultNYC28())
	default:
		return nil, fmt.Errorf("serve: unknown channel %q (want single-path or nyc-multipath)", req.Channel)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: building channel: %w", err)
	}

	sounder, err := meas.NewSounder(ch, channel.DBToLinear(req.SNRdB), root.Split("noise"))
	if err != nil {
		return nil, fmt.Errorf("serve: building sounder: %w", err)
	}
	sounder.SetSnapshots(req.Snapshots)
	var prober meas.Prober = sounder
	if s.cfg.WrapProber != nil {
		prober = s.cfg.WrapProber(prober)
	}

	return &align.Env{
		TXBook:  antenna.NewGridCodebook(tx, req.TXBeamsAz, req.TXBeamsEl, math.Pi, math.Pi/2),
		RXBook:  antenna.NewGridCodebook(rx, req.RXBeamsAz, req.RXBeamsEl, math.Pi, math.Pi/2),
		Sounder: prober,
		// Matches a fresh Link's first Align run (api.go seeds run i
		// with SplitIndexed("align-run", i)), so a served alignment
		// returns the same pair and loss as the embedded facade on the
		// same seed.
		Src: root.SplitIndexed("align-run", 1),
	}, nil
}
