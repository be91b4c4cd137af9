package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"maps"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"mmwalign/internal/cmat"
	"mmwalign/internal/experiment"
	"mmwalign/internal/meas"
	"mmwalign/internal/metrics"
	"mmwalign/internal/obs"
	"mmwalign/internal/scenario"
)

// Batch inputs. A batch repetition is one complete sweep (one figure or
// one scenario run). Each workload's inputs are a pool of sweeps with
// seeds derived from --seed; an untraced run cycles through the pool, so
// it covers many drops and the drop-to-drop variation in work (solver
// iterations depend on the channel) averages out. A repetition takes 0.2
// to 1.2 s on two CPUs, so each entry runs several times in a run.
const (
	baselinesSets, baselinesDrops = 8, 240
	mobilitySets, mobilityUEs     = 4, 2
	mobilityFrames                = 8
	mobilityTopSpeed              = 30
	baseCanaryDrops               = 16
	setupRepeats                  = 3
	minRepetitions                = 3
)

var mobilitySpeeds = []float64{1, 5, 15, mobilityTopSpeed}

// inputSeed derives the seed handed to the program for one input of a
// workload, so inputs are unrelated across workloads and pool entries.
func inputSeed(seed int64, input string) int64 {
	x := uint64(seed)
	for _, c := range []byte(input) {
		x = x*1099511628211 ^ uint64(c)
	}
	// splitmix64 finalizer
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

func baselinesPool(seed int64) []experiment.Config {
	pool := make([]experiment.Config, baselinesSets)
	for k := range pool {
		pool[k] = experiment.Config{
			Seed:    inputSeed(seed, fmt.Sprintf("baselines/%d", k)),
			Drops:   baselinesDrops,
			Schemes: []string{"random", "scan"},
			Workers: runtime.GOMAXPROCS(0),
		}
	}
	return pool
}

func mobilityPool(seed int64) []scenario.Config {
	pool := make([]scenario.Config, mobilitySets)
	for k := range pool {
		pool[k] = scenario.Config{
			Seed:      inputSeed(seed, fmt.Sprintf("mobility/%d", k)),
			UEs:       mobilityUEs,
			Frames:    mobilityFrames,
			SpeedsMPS: mobilitySpeeds,
			Schemes:   []string{"proposed", "proposed-warm"},
			Workers:   runtime.GOMAXPROCS(0),
		}
	}
	return pool
}

// inputDigest hashes the inputs a workload generates for a seed: the
// sweep configurations, or the serve request bodies and traffic order.
func inputDigest(workload string, seed int64) (string, error) {
	var v any
	switch workload {
	case "baselines":
		v = baselinesPool(seed)
	case "mobility":
		v = mobilityPool(seed)
	case "serve":
		reqs, err := serveCatalog()
		if err != nil {
			return "", err
		}
		bodies := make([][]byte, len(reqs))
		for i, r := range reqs {
			bodies[i] = r.body
		}
		t := newTraffic(seed, len(reqs))
		v = []any{bodies, t.closed, t.open}
	default:
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// fidelity is a workload's canary result: exact functions of the
// default-seed inputs, checked bit for bit against fidelity.go.
type fidelity struct {
	LossDB, Efficiency float64
}

// sweepFunc runs pool entry i, traced when tr is non-nil, checks the
// properties its outputs must have, and returns the units done and a
// digest of the outputs.
type sweepFunc func(ctx context.Context, i int, tr *tracer) (units int, digest string, err error)

// batchInstance is one set-up batch workload, ready to repeat.
type batchInstance struct {
	name    string
	sweep   sweepFunc
	pool    int
	workers int
	fid     fidelity
	refs    map[int]string // output digest of each pool entry run so far
}

// rep runs pool entry i and checks that its outputs equal those of every
// earlier run of the same entry, the set-up's warm-up included.
func (b *batchInstance) rep(ctx context.Context, i int, tr *tracer) (int, error) {
	units, sum, err := b.sweep(ctx, i, tr)
	if err != nil {
		return 0, err
	}
	if ref, ok := b.refs[i]; ok && ref != sum {
		return 0, &checkError{b.name, "repetition equals earlier run", fmt.Sprintf("pool entry %d", i), "output digest " + sum + " != " + ref}
	}
	b.refs[i] = sum
	if tr != nil {
		if err := tr.endRep(b.name); err != nil {
			return 0, err
		}
	}
	return units, nil
}

// newBatch sets up a batch workload: the fidelity canary, then a warm-up
// sweep of the first warm pool entries, whose outputs every later run of
// those entries, and every other set-up, must reproduce.
func newBatch(ctx context.Context, name string, pool, warm, workers int, sweep sweepFunc, canary func(context.Context) (fidelity, error)) (*batchInstance, error) {
	fid, err := canary(ctx)
	if err != nil {
		return nil, err
	}
	b := &batchInstance{name: name, sweep: sweep, pool: pool, workers: workers, fid: fid, refs: map[int]string{}}
	for i := 0; i < warm; i++ {
		if _, err := b.rep(ctx, i, nil); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// baselinesSweep runs the Fig. 7 cost-efficiency figure over a pool of
// configs and checks what it must show whatever the seed: one finite,
// non-negative required search rate per target, never rising as the
// target loosens and never above the sweep budget.
func baselinesSweep(pool []experiment.Config) sweepFunc {
	return func(ctx context.Context, i int, tr *tracer) (int, string, error) {
		cfg := pool[i]
		if tr != nil {
			ctx = obs.Into(ctx, tr.newRep())
			cfg.WrapSounder = tr.wrapSounder
		}
		fig, err := experiment.GenerateContext(ctx, 7, cfg)
		if err != nil {
			return 0, "", err
		}
		entry := fmt.Sprintf("pool entry %d", i)
		if fig.Failures != nil {
			return 0, "", &checkError{"baselines", "no failed drops", entry, fig.Failures.Err().Error()}
		}
		cfg = cfg.WithDefaults()
		if len(fig.Series) != len(cfg.Schemes) {
			return 0, "", &checkError{"baselines", "one series per scheme", entry, fmt.Sprintf("%d series for %d schemes", len(fig.Series), len(cfg.Schemes))}
		}
		// The sweep budget is ceil(top rate × T) measurements, T the pair count.
		t := float64(cfg.TXBookAz * cfg.TXBookEl * cfg.RXBookAz * cfg.RXBookEl)
		budget := math.Ceil(cfg.SearchRates[len(cfg.SearchRates)-1]*t) / t
		for _, s := range fig.Series {
			for k, y := range s.Y {
				if math.IsNaN(y) || y < 0 || y > budget {
					return 0, "", &checkError{"baselines", "required rate within [0, budget]", "series " + s.Name, fmt.Sprintf("point %d = %v, budget %v", k, y, budget)}
				}
				if k > 0 && y > s.Y[k-1] {
					return 0, "", &checkError{"baselines", "required rate falls as the target loosens", "series " + s.Name, fmt.Sprintf("point %d = %v rises above %v", k, y, s.Y[k-1])}
				}
			}
		}
		return cfg.Drops * len(cfg.Schemes), seriesDigest(sha256.New(), fig.Series), nil
	}
}

func seriesDigest(h hash.Hash, series []metrics.Series) string {
	for _, s := range series {
		h.Write([]byte(s.Name))
		writeFloats(h, s.X...)
		writeFloats(h, s.Y...)
		writeFloats(h, s.YErr...)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// topOf returns the named series' value at its last sweep point.
func topOf(series []metrics.Series, scheme string) (float64, bool) {
	for _, s := range series {
		if s.Name == scheme && len(s.Y) > 0 {
			return s.Y[len(s.Y)-1], true
		}
	}
	return 0, false
}

func runBaselines(ctx context.Context, o options) (result, error) {
	// The canary is Fig. 5, which runs the same single-path cells as
	// Fig. 7 and reports their loss: scan's loss at the top search rate,
	// and that loss as a linear SNR fraction.
	canary := func(ctx context.Context) (fidelity, error) {
		cfg := experiment.Config{Seed: inputSeed(defaultSeed, "baselines"), Drops: baseCanaryDrops, Schemes: []string{"scan"}, Workers: runtime.GOMAXPROCS(0)}
		fig, err := experiment.GenerateContext(ctx, 5, cfg)
		if err != nil {
			return fidelity{}, err
		}
		loss, ok := topOf(fig.Series, "scan")
		if !ok {
			return fidelity{}, &checkError{"baselines", "canary series present", "fidelity canary", "no scan series"}
		}
		fid := fidelity{LossDB: loss, Efficiency: math.Pow(10, -loss/10)}
		return fid, checkFidelity("baselines", fid)
	}
	return runBatch(ctx, o, func() (*batchInstance, error) {
		pool := baselinesPool(o.seed)
		// Baselines sweeps are short, so set-up warms the whole pool: a
		// set-up under half a second is dominated by process noise.
		return newBatch(ctx, "baselines", len(pool), len(pool), pool[0].Workers, baselinesSweep(pool), canary)
	})
}

// runScenario runs one mobility sweep and checks its traces.
func runScenario(ctx context.Context, cfg scenario.Config, tr *tracer) (scenario.Result, string, error) {
	if tr != nil {
		ctx = obs.Into(ctx, tr.newRep())
	}
	res, err := scenario.RunContext(ctx, cfg)
	if err != nil {
		return res, "", err
	}
	h := sha256.New()
	for _, drop := range res.Traces {
		for _, t := range drop {
			if t.Efficiency < 0 || t.Efficiency > 1 || math.IsNaN(t.Efficiency) {
				return res, "", &checkError{"mobility", "efficiency within [0,1]", fmt.Sprintf("trace %s speed %d ue %d", t.Scheme, t.SpeedIdx, t.UE), fmt.Sprint(t.Efficiency)}
			}
			if len(t.Frames) != cfg.Frames {
				return res, "", &checkError{"mobility", "one record per superframe", "trace " + t.Scheme, fmt.Sprintf("%d frames, want %d", len(t.Frames), cfg.Frames)}
			}
			for _, f := range t.Frames {
				writeFloats(h, f.SelSNRDB, f.OptSNRDB, f.DataBits, f.GenieBits, float64(f.TrainSlots))
			}
		}
	}
	return res, seriesDigest(h, res.Speed.Series), nil
}

// mobilityCanary runs the warm scheme alone at the top speed on
// default-seed inputs: efficiency is its delivered/genie ratio, loss_db
// the mean gap between the oracle pair and the held pair over its
// superframes.
func mobilityCanary(ctx context.Context) (fidelity, error) {
	cfg := scenario.Config{
		Seed:      inputSeed(defaultSeed, "mobility"),
		UEs:       1,
		Frames:    mobilityFrames,
		SpeedsMPS: []float64{mobilityTopSpeed},
		Schemes:   []string{"proposed-warm"},
		Workers:   runtime.GOMAXPROCS(0),
	}
	res, _, err := runScenario(ctx, cfg, nil)
	if err != nil {
		return fidelity{}, err
	}
	eff, ok := topOf(res.Speed.Series, "proposed-warm")
	if !ok {
		return fidelity{}, &checkError{"mobility", "canary series present", "fidelity canary", "no proposed-warm series"}
	}
	var gap float64
	var n int
	for _, drop := range res.Traces {
		for _, f := range drop[0].Frames {
			gap += f.OptSNRDB - f.SelSNRDB
			n++
		}
	}
	fid := fidelity{LossDB: gap / float64(n), Efficiency: eff}
	return fid, checkFidelity("mobility", fid)
}

func runMobility(ctx context.Context, o options) (result, error) {
	return runBatch(ctx, o, func() (*batchInstance, error) {
		pool := mobilityPool(o.seed)
		sweep := func(ctx context.Context, i int, tr *tracer) (int, string, error) {
			_, sum, err := runScenario(ctx, pool[i], tr)
			cfg := pool[i]
			return cfg.Drops() * len(cfg.Schemes) * cfg.Frames, sum, err
		}
		return newBatch(ctx, "mobility", len(pool), 1, pool[0].Workers, sweep, mobilityCanary)
	})
}

// runBatch measures a batch workload. Untraced: set up three times
// (median set-up time), then cycle through the input pool for the run
// time. Traced: set up once and repeat the first pool entry, untraced
// and traced in turn, so the per-layer counts are exact.
func runBatch(ctx context.Context, o options, setup func() (*batchInstance, error)) (result, error) {
	d := time.Duration(o.seconds * float64(time.Second))
	same := func(a, b *batchInstance) error {
		for i, ref := range a.refs {
			if b.refs[i] != ref {
				return &checkError{o.workload, "set-ups agree", fmt.Sprintf("pool entry %d", i), ref + " != " + b.refs[i]}
			}
		}
		if a.fid != b.fid {
			return &checkError{o.workload, "set-ups agree", "fidelity canary", fmt.Sprintf("%+v != %+v", a.fid, b.fid)}
		}
		return nil
	}
	if !o.trace {
		inst, setupS, err := timedSetups(setupRepeats, setup, same, func(*batchInstance) {})
		if err != nil {
			return result{}, err
		}
		// Measurement starts at entry 1 and runs every entry at least
		// twice.
		var entries []int
		samples, err := repeat(ctx, d, 2*inst.pool, func(ctx context.Context) (int, error) {
			entries = append(entries, (len(entries)+1)%inst.pool)
			return inst.rep(ctx, entries[len(entries)-1], nil)
		})
		if err != nil {
			return result{}, err
		}
		return batchResult(perEntry(samples, entries, inst.pool), setupS, inst.fid), nil
	}

	inst, err := setup()
	if err != nil {
		return result{}, err
	}
	// Untraced and traced repetitions alternate, so host drift during the
	// run falls on both sides of trace.overhead_share alike.
	tr := &tracer{}
	var plain, traced []repSample
	for deadline := time.Now().Add(d); len(traced) < minRepetitions || time.Now().Before(deadline); {
		p, err := repeat(ctx, 0, 1, func(ctx context.Context) (int, error) { return inst.rep(ctx, 0, nil) })
		if err != nil {
			return result{}, err
		}
		t, err := repeat(ctx, 0, 1, func(ctx context.Context) (int, error) { return inst.rep(ctx, 0, tr) })
		if err != nil {
			return result{}, err
		}
		plain, traced = append(plain, p...), append(traced, t...)
	}
	m, err := tr.batchLedger(o.workload, traced, inst.workers)
	if err != nil {
		return result{}, err
	}
	m.set("trace.overhead_share", 1-throughputOf(traced)/throughputOf(plain), "ratio")
	return layerResult(m, append(plain, traced...)), nil
}

// perEntry reduces repetitions to one sample per pool entry: the
// median wall and CPU time of that entry's runs, which filters bursts of
// host noise while keeping every entry's weight equal.
func perEntry(samples []repSample, entries []int, pool int) []repSample {
	walls := make([][]float64, pool)
	cpus := make([][]float64, pool)
	units := make([]int, pool)
	for k, s := range samples {
		e := entries[k]
		walls[e] = append(walls[e], float64(s.wall))
		cpus[e] = append(cpus[e], s.cpu)
		units[e] = s.units
	}
	out := make([]repSample, pool)
	for e := range out {
		out[e] = repSample{units: units[e], wall: time.Duration(metrics.Median(walls[e])), cpu: metrics.Median(cpus[e]), runs: len(walls[e])}
	}
	return out
}

// batchResult reports a batch run from its per-entry samples: throughput
// is the pool's units over the sum of the entries' sweep times, and the
// latency is the median entry's sweep time.
func batchResult(entries []repSample, setupS float64, fid fidelity) result {
	var attempted int64
	var units int
	var wall time.Duration
	var cpu float64
	for _, s := range entries {
		attempted += int64(s.units * s.runs)
		units += s.units
		wall += s.wall
		cpu += s.cpu
	}
	m := metricSet{}
	m.set("setup_s", setupS, "s")
	m.set("throughput", float64(units)/wall.Seconds(), "1/s")
	m.set("cpu_per_unit_ms", 1e3*cpu/float64(units), "ms")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	m.set("latency_p50_ms", medianWallMS(entries), "ms")
	// Any wrong output aborts the run, so every reported unit is correct;
	// batch workloads have no latency limit.
	m.set("slo_attainment", 1, "ratio")
	m.set("loss_db", fid.LossDB, "dB")
	m.set("efficiency", fid.Efficiency, "ratio")
	return result{Correct: true, Attempted: attempted, Metrics: m}
}

// tracer times the program's layers from outside during traced
// repetitions: a fresh obs.Recorder per repetition (the program's own
// phases and solver counters) plus a timing meas.Prober installed
// through experiment.Config.WrapSounder.
type tracer struct {
	rec      *obs.Recorder
	first    obs.Snapshot // first repetition's counts, which every later one must repeat
	reps     int
	phases   map[string]int64 // summed phase nanoseconds over repetitions
	measNS   atomic.Int64
	measN    atomic.Int64
	repMeasN int64
}

func (t *tracer) newRep() *obs.Recorder {
	t.rec = obs.New()
	return t.rec
}

func (t *tracer) wrapSounder(_ int, _ string, p meas.Prober) meas.Prober {
	return &timedProber{Prober: p, t: t}
}

// endRep folds the repetition's recorder into the totals and checks that
// its exact counts equal the first repetition's.
func (t *tracer) endRep(workload string) error {
	snap := t.rec.Snapshot()
	n := t.measN.Load()
	if t.reps == 0 {
		t.first = snap
		t.phases = map[string]int64{}
		t.repMeasN = n
	} else {
		prevN := t.repMeasN * int64(t.reps)
		if snap.Solver != t.first.Solver || n-prevN != t.repMeasN || !maps.Equal(snap.Counters, t.first.Counters) {
			return &checkError{workload, "exact counts repeat", "traced repetition", fmt.Sprintf("solver %+v vs %+v", snap.Solver, t.first.Solver)}
		}
	}
	for _, p := range snap.Phases {
		t.phases[p.Name] += p.TotalNS
	}
	t.reps++
	return nil
}

// timedProber times every pair measurement a strategy takes.
type timedProber struct {
	meas.Prober
	t *tracer
}

func (p *timedProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	t0 := time.Now()
	m := p.Prober.Measure(txBeam, rxBeam, u, v)
	p.t.measNS.Add(int64(time.Since(t0)))
	p.t.measN.Add(1)
	return m
}
