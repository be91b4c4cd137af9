package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
	"mmwalign/internal/meas"
	"mmwalign/internal/metrics"
	"mmwalign/internal/rng"
	"mmwalign/internal/serve"
)

// The serve traffic mix. Requests come in two panel classes: the
// paper's 8×8 receiver with a 64-beam book, whose estimates take 2 to
// about 100 ms with the window size, and a 4×4 panel with a 16-beam
// book, where the solve takes 0.2 to 6 ms and the server, transport and
// JSON do a visible share of the work. Small requests are 24 of the 39,
// so the open-loop p50 falls inside the small class, never in the gap
// between the classes.
var serveClasses = []struct {
	panel, beams int
	windows      []int // estimation window sizes, cycled
	count        int   // requests of this class in the mix
}{
	{panel: 8, beams: 8, windows: []int{16, 24, 32, 40, 48}, count: 15},
	{panel: 4, beams: 4, windows: []int{8, 12, 16, 24, 32, 48}, count: 24},
}

const (
	// serveOpenRate is the open-loop arrival rate in requests per second,
	// fixed so latency is always measured at the same offered load.
	serveOpenRate = 30.0
	// closedWindow is the length of one closed-loop throughput sample.
	closedWindow = 500 * time.Millisecond
	// serveSLO is the latency limit of slo_attainment.
	serveSLO = 400 * time.Millisecond
	// Shares of the run time: closed-loop saturation, then open loop.
	serveClosedShare = 0.5
)

// serveRequest is one generated /v1/estimate request with the ground
// truth needed to score the beam the server picks.
type serveRequest struct {
	body    []byte
	panel   int
	beams   int
	obs     []estimateObs
	gains   []float64 // true mean gain of every RX beam for the sounded TX beam
	refBody []byte
}

type estimateObs struct {
	Beam   int     `json:"beam"`
	Energy float64 `json:"energy"`
}

type estimateBody struct {
	PanelX       int           `json:"panel_x"`
	PanelZ       int           `json:"panel_z"`
	BeamsAz      int           `json:"beams_az"`
	BeamsEl      int           `json:"beams_el"`
	Observations []estimateObs `json:"observations"`
}

// estimateReply is the part of the server's reply the benchmark reads.
type estimateReply struct {
	Picks struct {
		Best struct {
			Beam int `json:"beam"`
		} `json:"best"`
	} `json:"picks"`
	Solver struct {
		Iters        int `json:"iters"`
		EigenDecomps int `json:"eigen_decomps"`
		Backtracks   int `json:"backtracks"`
	} `json:"solver"`
}

// serveCatalog generates the request windows by sounding seeded NYC
// multipath channels with the repository's channel and sounder: a random
// TX beam of the 4×4/16-beam transmitter, and a window of RX beams from
// the request's panel codebook. The catalog is fixed (default seed):
// the cost of one solve varies several-fold with its channel, so a
// catalog drawn per seed changed the total solve time of the mix by up
// to 1.9× between seeds. --seed drives the traffic instead: the order of
// every closed-loop pass and the open-loop arrival sequence.
func serveCatalog() ([]*serveRequest, error) {
	root := rng.New(inputSeed(defaultSeed, "serve"))
	tx := antenna.NewUPA(4, 4)
	txBook := antenna.NewGridCodebook(tx, 4, 4, math.Pi, math.Pi/2)
	var reqs []*serveRequest
	for ci, class := range serveClasses {
		rx := antenna.NewUPA(class.panel, class.panel)
		rxBook := antenna.NewGridCodebook(rx, class.beams, class.beams, math.Pi, math.Pi/2)
		for k := 0; k < class.count; k++ {
			src := root.SplitIndexed(fmt.Sprintf("class%d", ci), k)
			ch, err := channel.NewNYCMultipath(src.Split("channel"), tx, rx, channel.DefaultNYC28())
			if err != nil {
				return nil, fmt.Errorf("serve inputs: %w", err)
			}
			sounder, err := meas.NewSounder(ch, 1, src.Split("noise"))
			if err != nil {
				return nil, fmt.Errorf("serve inputs: %w", err)
			}
			sounder.SetSnapshots(4)
			pick := src.Split("beams")
			txBeam := pick.Intn(txBook.Size())
			u := txBook.Beam(txBeam).Weights
			w := class.windows[k%len(class.windows)]
			r := &serveRequest{panel: class.panel, beams: class.beams}
			for len(r.obs) < w {
				for _, b := range pick.Perm(rxBook.Size()) {
					if len(r.obs) == w {
						break
					}
					m := sounder.Measure(txBeam, b, u, rxBook.Beam(b).Weights)
					r.obs = append(r.obs, estimateObs{Beam: b, Energy: m.Energy})
				}
			}
			for b := 0; b < rxBook.Size(); b++ {
				r.gains = append(r.gains, ch.MeanPairGain(u, rxBook.Beam(b).Weights))
			}
			r.body, err = json.Marshal(estimateBody{PanelX: class.panel, PanelZ: class.panel, BeamsAz: class.beams, BeamsEl: class.beams, Observations: r.obs})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
		}
	}
	// Interleave the classes deterministically so a pass over the list
	// mixes them the way the open loop does.
	order := root.Split("order").Perm(len(reqs))
	mixed := make([]*serveRequest, len(reqs))
	for i, j := range order {
		mixed[i] = reqs[j]
	}
	return mixed, nil
}

// serveInstance is a running in-process server with its client and the
// reference responses.
type serveInstance struct {
	reqs    []*serveRequest
	srv     *serve.Server
	hs      *http.Server
	url     string
	client  *http.Client
	conns   int
	fid     fidelity
	handler *timedHandler
	served  sync.WaitGroup
}

func (s *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // the listener is ours; a slow shutdown only delays exit
	s.served.Wait()
	s.client.CloseIdleConnections()
}

func setupServe(ctx context.Context) (*serveInstance, error) {
	reqs, err := serveCatalog()
	if err != nil {
		return nil, err
	}
	s := &serveInstance{reqs: reqs, conns: runtime.GOMAXPROCS(0)}
	s.srv = serve.NewServer(serve.Config{})
	s.handler = &timedHandler{next: s.srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String() + "/v1/estimate"
	s.hs = &http.Server{Handler: s.handler}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	s.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns, DisableCompression: true},
	}
	fail := func(err error) (*serveInstance, error) {
		s.close()
		return nil, err
	}
	// Two sequential reference passes: the first records every reply,
	// the second must repeat it byte for byte. They also warm the server's
	// estimator pool and the connections.
	for pass := 0; pass < 2; pass++ {
		for i, r := range reqs {
			code, body, err := s.post(ctx, r.body, -1)
			if err != nil {
				return fail(err)
			}
			if code != http.StatusOK {
				return fail(&checkError{"serve", "reference request succeeds", fmt.Sprintf("request %d", i), fmt.Sprintf("status %d: %s", code, body)})
			}
			if pass == 1 && !bytes.Equal(body, r.refBody) {
				return fail(&checkError{"serve", "sequential replies repeat", fmt.Sprintf("request %d", i), "second reference pass differs"})
			}
			r.refBody = body
		}
	}
	s.fid, err = s.fidelity()
	if err != nil {
		return fail(err)
	}
	return s, nil
}

// fidelity scores the beams the server picked in the reference replies
// against the channels' true gains: loss_db is the mean SNR loss of the
// picked beam to the best beam, efficiency the mean ratio of their gains.
func (s *serveInstance) fidelity() (fidelity, error) {
	var loss, eff float64
	for i, r := range s.reqs {
		var rep estimateReply
		if err := json.Unmarshal(r.refBody, &rep); err != nil {
			return fidelity{}, &checkError{"serve", "reply decodes", fmt.Sprintf("request %d", i), err.Error()}
		}
		best := 0.0
		for _, g := range r.gains {
			best = math.Max(best, g)
		}
		got := r.gains[rep.Picks.Best.Beam]
		loss += 10 * math.Log10(best/got)
		eff += got / best
	}
	n := float64(len(s.reqs))
	fid := fidelity{LossDB: loss / n, Efficiency: eff / n}
	return fid, checkFidelity("serve", fid)
}

// post sends one request; seq >= 0 tags it for the traced handler.
func (s *serveInstance) post(ctx context.Context, body []byte, seq int) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if seq >= 0 {
		req.Header.Set(seqHeader, strconv.Itoa(seq))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: request: %w", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: reading reply: %w", err)
	}
	return resp.StatusCode, out, nil
}

// outcome is one request's fate as the client saw it.
type outcome struct {
	req     int
	seq     int
	ok      bool // 200 with a body byte-identical to the reference
	status  int
	latency time.Duration
	lag     time.Duration
}

// send posts request i and checks the reply against the reference.
func (s *serveInstance) send(ctx context.Context, i, seq int) (outcome, error) {
	t0 := time.Now()
	code, body, err := s.post(ctx, s.reqs[i].body, seq)
	if err != nil {
		return outcome{}, err
	}
	return outcome{req: i, seq: seq, status: code, ok: code == http.StatusOK && bytes.Equal(body, s.reqs[i].refBody), latency: time.Since(t0)}, nil
}

// closedLoop keeps conns clients busy for d, each sending its next
// request (the next in the traffic's closed sequence) as soon as the
// previous reply arrives. It samples completions and CPU in equal
// windows; requests in flight at the end finish and are checked but
// counted in no window.
func (s *serveInstance) closedLoop(ctx context.Context, d time.Duration, t traffic, seq *atomic.Int64, outs *[]outcome) ([]repSample, error) {
	var (
		next, done atomic.Int64
		mu         sync.Mutex
		firstErr   error
		wg         sync.WaitGroup
	)
	stop := make(chan struct{})
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int(next.Add(1) - 1)
				o, err := s.send(ctx, t.closed[k%len(t.closed)], int(seq.Add(1)-1))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				*outs = append(*outs, o)
				mu.Unlock()
				if err != nil {
					return
				}
				done.Add(1)
			}
		}()
	}
	windows := max(minRepetitions, int(d/closedWindow))
	samples := make([]repSample, 0, windows)
	for w := 0; w < windows; w++ {
		n0, c0, t0 := done.Load(), cpuSeconds(), time.Now()
		time.Sleep(d / time.Duration(windows))
		samples = append(samples, repSample{units: int(done.Load() - n0), wall: time.Since(t0), cpu: cpuSeconds() - c0})
	}
	close(stop)
	wg.Wait()
	return samples, firstErr
}

// openLoop sends requests on a fixed schedule at serveOpenRate for about
// d, whatever the server's progress, and times each from its due time.
// It sends whole permutations of the catalog, at least one.
func (s *serveInstance) openLoop(ctx context.Context, d time.Duration, order []int, seq *atomic.Int64) ([]outcome, error) {
	n := max(1, int(serveOpenRate*d.Seconds())/s.n()) * s.n()
	outs := make([]outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / serveOpenRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		wg.Add(1)
		go func(k int, due time.Time, lag time.Duration) {
			defer wg.Done()
			o, err := s.send(ctx, order[k%len(order)], int(seq.Add(1)-1))
			o.latency = time.Since(due)
			o.lag = lag
			outs[k], errs[k] = o, err
		}(k, due, lag)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// traffic is the seed's request order over a catalog of n requests:
// both loops send whole permutations of the catalog, so every request
// is equally represented whatever the seed.
type traffic struct {
	closed, open []int
}

func newTraffic(seed int64, n int) traffic {
	perms := func(name string, k int) []int {
		src := rng.New(inputSeed(seed, name))
		var order []int
		for p := 0; p < k; p++ {
			order = append(order, src.Perm(n)...)
		}
		return order
	}
	return traffic{closed: perms("serve-closed", 64), open: perms("serve-open", 16)}
}

func (s *serveInstance) n() int { return len(s.reqs) }

func countFailed(outs []outcome) (failed int64) {
	for _, o := range outs {
		if !o.ok {
			failed++
		}
	}
	return failed
}

// medianLatencyMS is the median latency of the successful requests.
func medianLatencyMS(outs []outcome) float64 {
	var xs []float64
	for _, o := range outs {
		if o.ok {
			xs = append(xs, float64(o.latency)/1e6)
		}
	}
	return metrics.Median(xs)
}

func runServe(ctx context.Context, o options) (result, error) {
	d := time.Duration(o.seconds * float64(time.Second))
	closedD := time.Duration(serveClosedShare * float64(d))
	var seq atomic.Int64
	if !o.trace {
		same := func(a, b *serveInstance) error {
			for i := range a.reqs {
				if !bytes.Equal(a.reqs[i].refBody, b.reqs[i].refBody) {
					return &checkError{"serve", "set-ups agree", fmt.Sprintf("request %d", i), "reference replies differ between servers"}
				}
			}
			if a.fid != b.fid {
				return &checkError{"serve", "set-ups agree", "fidelity", fmt.Sprintf("%+v != %+v", a.fid, b.fid)}
			}
			return nil
		}
		s, setupS, err := timedSetups(setupRepeats, func() (*serveInstance, error) { return setupServe(ctx) }, same, (*serveInstance).close)
		if err != nil {
			return result{}, err
		}
		defer s.close()
		t := newTraffic(o.seed, s.n())
		var closed []outcome
		samples, err := s.closedLoop(ctx, closedD, t, &seq, &closed)
		if err != nil {
			return result{}, err
		}
		open, err := s.openLoop(ctx, d-closedD, t.open, &seq)
		if err != nil {
			return result{}, err
		}
		within := 0
		for _, oc := range open {
			if oc.ok && oc.latency <= serveSLO {
				within++
			}
		}
		m := metricSet{}
		m.set("setup_s", setupS, "s")
		m.set("throughput", throughputOf(samples), "1/s")
		m.set("cpu_per_unit_ms", cpuPerUnitMS(samples), "ms")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		m.set("latency_p50_ms", medianLatencyMS(open), "ms")
		m.set("slo_attainment", float64(within)/float64(len(open)), "ratio")
		m.set("loss_db", s.fid.LossDB, "dB")
		m.set("efficiency", s.fid.Efficiency, "ratio")
		all := append(closed, open...)
		failed := countFailed(all)
		res := result{Correct: failed == 0, Attempted: int64(len(all)), Failed: failed, Metrics: m}
		return res, serveFailures(failed, all)
	}
	return traceServe(ctx, o, d, closedD, &seq)
}

// serveFailures reports replies that were not a 200 byte-identical to
// the reference as a failed check.
func serveFailures(failed int64, outs []outcome) error {
	if failed == 0 {
		return nil
	}
	for _, o := range outs {
		if !o.ok {
			return &checkError{"serve", "reply equals sequential reference", fmt.Sprintf("request %d", o.req), fmt.Sprintf("%d of %d replies wrong; first has status %d", failed, len(outs), o.status)}
		}
	}
	return nil
}

const seqHeader = "X-Perfbench-Seq"

// timedHandler times ServeHTTP per tagged request when armed.
type timedHandler struct {
	next  http.Handler
	armed atomic.Bool
	mu    sync.Mutex
	durs  map[int]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.armed.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil {
		h.mu.Lock()
		h.durs[seq] = d
		h.mu.Unlock()
	}
}

func (h *timedHandler) arm() {
	h.mu.Lock()
	h.durs = map[int]time.Duration{}
	h.mu.Unlock()
	h.armed.Store(true)
}

// take disarms the handler and returns the durations by sequence number.
// Requests still in flight when it is called are not timed.
func (h *timedHandler) take() map[int]time.Duration {
	h.armed.Store(false)
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.durs
	h.durs = map[int]time.Duration{}
	return d
}

// timedBatcher is a covest.Batcher that runs each product itself and
// times it; madds counts complex multiply-adds computed from the shapes.
type timedBatcher struct {
	calls, madds int64
	busy         time.Duration
}

func (b *timedBatcher) MulInto(dst, x, y *cmat.Matrix) {
	t0 := time.Now()
	dst.MulInto(x, y)
	b.busy += time.Since(t0)
	b.calls++
	b.madds += int64(x.Rows()) * int64(x.Cols()) * int64(y.Cols())
}

// replay is the direct-solve cost of one request outside the server.
type replay struct {
	solve, gemm time.Duration
}

// replayPass re-solves every request with covest directly, with the
// server's estimator options and a timing batcher, and checks that the
// solver's counts equal the ones the server reported.
func (s *serveInstance) replayPass(b *timedBatcher) ([]replay, covest.Stats, error) {
	out := make([]replay, len(s.reqs))
	var total covest.Stats
	for i, r := range s.reqs {
		book := antenna.NewGridCodebook(antenna.NewUPA(r.panel, r.panel), r.beams, r.beams, math.Pi, math.Pi/2)
		est, err := covest.NewEstimator(r.panel*r.panel, covest.Options{Gamma: 1, Mu: 1, MaxIters: 25, Batcher: b})
		if err != nil {
			return nil, total, err
		}
		obs := make([]covest.Observation, len(r.obs))
		for k, o := range r.obs {
			obs[k] = covest.Observation{V: book.Beam(o.Beam).Weights, Energy: o.Energy}
		}
		g0 := b.busy
		t0 := time.Now()
		_, st, err := est.Estimate(obs, nil)
		out[i] = replay{solve: time.Since(t0), gemm: b.busy - g0}
		if err != nil {
			return nil, total, fmt.Errorf("serve replay %d: %w", i, err)
		}
		var rep estimateReply
		if err := json.Unmarshal(r.refBody, &rep); err != nil {
			return nil, total, err
		}
		if rep.Solver.Iters != st.Iters || rep.Solver.EigenDecomps != st.EigenDecomps || rep.Solver.Backtracks != st.Backtracks {
			return nil, total, &checkError{"serve", "replayed solve equals served solve", fmt.Sprintf("request %d", i), fmt.Sprintf("served %+v, replayed iters %d eig %d bt %d", rep.Solver, st.Iters, st.EigenDecomps, st.Backtracks)}
		}
		total.Iters += st.Iters
		total.EigenDecomps += st.EigenDecomps
		total.Backtracks += st.Backtracks
	}
	return out, total, nil
}

// traceServe is the traced serve run: closed loop untraced then traced
// (for trace.overhead_share and the ledger), a traced open loop (handler,
// transport and generator lag), and a direct replay of every request
// (covest and cmat).
func traceServe(ctx context.Context, o options, d, closedD time.Duration, seq *atomic.Int64) (result, error) {
	s, err := setupServe(ctx)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	t := newTraffic(o.seed, s.n())
	var all []outcome
	plain, err := s.closedLoop(ctx, closedD/2, t, seq, &all)
	if err != nil {
		return result{}, err
	}

	// Replay passes: the first gives the exact counts, and each request's
	// solve and GEMM time is its median over the passes.
	const replayPasses = 3
	var (
		b      = &timedBatcher{}
		solves = make([][]float64, len(s.reqs))
		gemms  = make([][]float64, len(s.reqs))
		counts covest.Stats
		calls  int64
		madds  int64
		busy   []float64
		gbusy  []float64
	)
	for p := 0; p < replayPasses; p++ {
		*b = timedBatcher{}
		reps, st, err := s.replayPass(b)
		if err != nil {
			return result{}, err
		}
		if p == 0 {
			counts, calls, madds = st, b.calls, b.madds
		}
		var sum time.Duration
		for i, r := range reps {
			solves[i] = append(solves[i], float64(r.solve))
			gemms[i] = append(gemms[i], float64(r.gemm))
			sum += r.solve
		}
		busy = append(busy, sum.Seconds())
		gbusy = append(gbusy, b.busy.Seconds())
	}
	solve := make([]float64, len(s.reqs))
	gemm := make([]float64, len(s.reqs))
	for i := range s.reqs {
		solve[i], gemm[i] = metrics.Median(solves[i]), metrics.Median(gemms[i])
	}

	// Traced closed loop: the ledger over client connections × wall.
	var closed []outcome
	s.handler.arm()
	t0 := time.Now()
	traced, err := s.closedLoop(ctx, closedD/2, t, seq, &closed)
	wall := time.Since(t0)
	durs := s.handler.take()
	if err != nil {
		return result{}, err
	}
	var transport, server, covestSelf, cmatSelf time.Duration
	for _, oc := range closed {
		h := durs[oc.seq]
		transport += oc.latency - h
		server += h - time.Duration(solve[oc.req])
		covestSelf += time.Duration(solve[oc.req] - gemm[oc.req])
		cmatSelf += time.Duration(gemm[oc.req])
	}
	n := time.Duration(len(closed))
	residual, err := printLedger("serve", "request", []ledgerLine{
		{"transport", transport / n},
		{"serve", server / n},
		{"covest", covestSelf / n},
		{"cmat", cmatSelf / n},
	}, time.Duration(int64(wall)*int64(s.conns))/n, s.conns)
	if err != nil {
		return result{}, err
	}

	// Traced open loop.
	s.handler.arm()
	open, err := s.openLoop(ctx, d-closedD, t.open, seq)
	durs = s.handler.take()
	if err != nil {
		return result{}, err
	}
	var handler, overhead, trans []float64
	var lagMax time.Duration
	var rejected int
	for _, oc := range open {
		if oc.status != http.StatusOK {
			rejected++
		}
		h, ok := durs[oc.seq]
		if !ok {
			continue
		}
		handler = append(handler, float64(h)/1e6)
		overhead = append(overhead, (float64(h)-solve[oc.req])/1e6)
		// Open-loop latency runs from the due time; transport is what
		// the client saw after it sent, less the handler.
		trans = append(trans, float64(oc.latency-oc.lag-h)/1e6)
		lagMax = max(lagMax, oc.lag)
	}
	for _, oc := range closed {
		if oc.status != http.StatusOK {
			rejected++
		}
	}

	stats := s.srv.Pool().Stats()
	m := metricSet{}
	m.set("covest.solves", float64(len(s.reqs)), "count")
	m.set("covest.iters", float64(counts.Iters), "count")
	m.set("covest.eigen_decomps", float64(counts.EigenDecomps), "count")
	m.set("covest.backtracks", float64(counts.Backtracks), "count")
	m.set("covest.busy_s", metrics.Median(busy), "s")
	m.set("cmat.gemm_calls", float64(calls), "count")
	m.set("cmat.gemm_madds", float64(madds), "count")
	m.set("cmat.gemm_busy_s", metrics.Median(gbusy), "s")
	m.set("serve.handler_ms_p50", metrics.Median(handler), "ms")
	m.set("serve.overhead_ms_p50", metrics.Median(overhead), "ms")
	m.set("serve.pool_reuse", 1-float64(stats.Created)/float64(stats.Leases), "ratio")
	m.set("serve.rejected", float64(rejected), "count")
	m.set("transport.ms_p50", metrics.Median(trans), "ms")
	m.set("loadgen.lag_ms_max", float64(lagMax)/1e6, "ms")
	m.set("trace.overhead_share", 1-throughputOf(traced)/throughputOf(plain), "ratio")
	m.set("ledger.residual_share", residual, "ratio")
	res := layerResult(m, append(plain, traced...))
	all = append(append(all, closed...), open...)
	res.Attempted = int64(len(all))
	res.Failed = countFailed(all)
	res.Correct = res.Failed == 0
	return res, serveFailures(res.Failed, all)
}
