// Package scenario is the mobility and dynamics engine: it moves UEs
// through the channel model along deterministic trajectories
// (waypoint, linear, or random-walk motion), evolves the propagation
// geometry every superframe (bearing rotation from UE kinematics,
// angle drift scaled by distance travelled, Markov cluster blockage),
// re-aligns on a fixed superframe cadence through the align.Strategy
// seam, and scores *effective throughput over time* — the data-phase
// rate actually delivered after paying alignment overhead, misalignment
// loss, and outage — rather than the one-shot SNR loss of the static
// figures.
//
// The sweep runs on the same cell engine as the static figures
// (internal/sweep): cells are (drop, scheme) coordinates on the
// crash-safe journal (drop enumerates speed × UE), rng splits are pure
// functions of (seed, name) so results are invariant to worker count
// and resumption, and a run emits an obs.Manifest with per-frame spans
// and realign/outage counters.
package scenario

import (
	"context"
	"fmt"
	"math"
	"time"

	"mmwalign/internal/align"
	"mmwalign/internal/antenna"
	"mmwalign/internal/channel"
	"mmwalign/internal/covest"
	"mmwalign/internal/journal"
	"mmwalign/internal/meas"
	"mmwalign/internal/metrics"
	"mmwalign/internal/obs"
	"mmwalign/internal/rng"
	"mmwalign/internal/sweep"
)

// Config parameterizes a mobility sweep. Zero fields take the defaults
// of WithDefaults. The JSON tags define the config block of the run
// manifest; runtime-only knobs (Workers, Journal) are excluded from the
// canonical hash.
type Config struct {
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
	// UEs is the number of independent UE trajectories per speed point.
	UEs int `json:"ues"`
	// Frames is the superframe horizon of each trajectory.
	Frames int `json:"frames"`
	// SlotBudget is the total slots per superframe (training + data).
	SlotBudget int `json:"slot_budget"`
	// AlignSlots is the measurement budget of one re-alignment.
	AlignSlots int `json:"align_slots"`
	// RealignEvery is the re-alignment cadence in superframes (1 =
	// every frame).
	RealignEvery int `json:"realign_every"`
	// SpeedsMPS are the UE speeds swept (m/s).
	SpeedsMPS []float64 `json:"speeds_mps"`
	// FrameDurS is the superframe duration in seconds.
	FrameDurS float64 `json:"frame_dur_s"`
	// Motion selects the trajectory model: "waypoint", "linear" or
	// "random-walk".
	Motion string `json:"motion"`
	// RangeM is the nominal cell range; UEs start on this circle and
	// the path-loss term references it.
	RangeM float64 `json:"range_m"`
	// BSHeightM sets the elevation geometry.
	BSHeightM float64 `json:"bs_height_m"`
	// OutageSNRDB is the misalignment outage threshold: a frame whose
	// held pair falls below it delivers zero data bits.
	OutageSNRDB float64 `json:"outage_snr_db"`
	// DriftSigmaDegPerM is the per-meter-travelled angle random walk
	// (degrees), the channel-aging term on top of deterministic
	// bearing rotation.
	DriftSigmaDegPerM float64 `json:"drift_sigma_deg_per_m"`
	// PBlock and PUnblock are the per-frame cluster blockage transition
	// probabilities; BlockageDB is the blockage depth. NoBlockage
	// disables the process entirely.
	PBlock     float64 `json:"p_block"`
	PUnblock   float64 `json:"p_unblock"`
	BlockageDB float64 `json:"blockage_db"`
	NoBlockage bool    `json:"no_blockage"`
	// TXx..RXBookEl shape the arrays and codebooks as in
	// experiment.Config.
	TXx      int `json:"tx_x"`
	TXz      int `json:"tx_z"`
	RXx      int `json:"rx_x"`
	RXz      int `json:"rx_z"`
	TXBookAz int `json:"tx_book_az"`
	TXBookEl int `json:"tx_book_el"`
	RXBookAz int `json:"rx_book_az"`
	RXBookEl int `json:"rx_book_el"`
	// GammaDB is the pre-beamforming SNR at the nominal range; motion
	// scales it by 20·log10(d/RangeM).
	GammaDB float64 `json:"gamma_db"`
	// Snapshots per measurement.
	Snapshots int `json:"snapshots"`
	// J, Window, Mu, EstimatorIters parameterize the proposed scheme
	// (align.SchemeSpec's J, Window, Estimator.Mu and
	// Estimator.MaxIters).
	J              int     `json:"j"`
	Window         int     `json:"window"`
	Mu             float64 `json:"mu"`
	EstimatorIters int     `json:"estimator_iters"`
	// Multipath selects the NYC clustered channel.
	Multipath bool `json:"multipath"`
	// Schemes are the strategy names compared (align.ForScheme names).
	Schemes []string `json:"schemes"`
	// Workers bounds concurrent cells (0 = GOMAXPROCS). Results are
	// independent of the worker count.
	Workers int `json:"workers"`
	// Journal, when non-nil, is the crash-safe checkpoint: cells on
	// record are replayed bit-exactly, new cells are appended and
	// fsynced as they finish. The caller owns open/close.
	Journal *journal.Journal `json:"-"`
}

// WithDefaults returns a copy with zero fields replaced by the
// engine's defaults: 4 UEs × 40 frames over speeds {1, 5, 15, 30} m/s,
// 20 ms superframes of 512 slots with a 96-slot re-alignment every 4th
// frame, waypoint motion in a 100 m cell, and the static figures' radio
// defaults.
func (c Config) WithDefaults() Config {
	if c.UEs == 0 {
		c.UEs = 4
	}
	if c.Frames == 0 {
		c.Frames = 40
	}
	if c.SlotBudget == 0 {
		c.SlotBudget = 512
	}
	if c.AlignSlots == 0 {
		c.AlignSlots = 96
	}
	if c.RealignEvery == 0 {
		c.RealignEvery = 4
	}
	if c.SpeedsMPS == nil {
		c.SpeedsMPS = []float64{1, 5, 15, 30}
	}
	if c.FrameDurS == 0 {
		c.FrameDurS = 0.02
	}
	if c.Motion == "" {
		c.Motion = MotionWaypoint
	}
	if c.RangeM == 0 {
		c.RangeM = 100
	}
	if c.BSHeightM == 0 {
		c.BSHeightM = 10
	}
	if c.OutageSNRDB == 0 {
		c.OutageSNRDB = -5
	}
	if c.DriftSigmaDegPerM == 0 {
		c.DriftSigmaDegPerM = 0.5
	}
	if c.PBlock == 0 {
		c.PBlock = 0.05
	}
	if c.PUnblock == 0 {
		c.PUnblock = 0.3
	}
	if c.BlockageDB == 0 {
		c.BlockageDB = 25
	}
	if c.TXx == 0 {
		c.TXx = 4
	}
	if c.TXz == 0 {
		c.TXz = 4
	}
	if c.RXx == 0 {
		c.RXx = 8
	}
	if c.RXz == 0 {
		c.RXz = 8
	}
	if c.TXBookAz == 0 {
		c.TXBookAz = 4
	}
	if c.TXBookEl == 0 {
		c.TXBookEl = 4
	}
	if c.RXBookAz == 0 {
		c.RXBookAz = 8
	}
	if c.RXBookEl == 0 {
		c.RXBookEl = 8
	}
	if c.Snapshots == 0 {
		c.Snapshots = 4
	}
	spec := c.schemeSpec().WithDefaults()
	c.J, c.Window, c.Mu, c.EstimatorIters = spec.J, spec.Window, spec.Estimator.Mu, spec.Estimator.MaxIters
	if c.Schemes == nil {
		c.Schemes = []string{"proposed", "proposed-warm", "exhaustive", "hierarchical", "two-sided"}
	}
	return c
}

// schemeSpec returns the config's strategy knobs as align.ForScheme
// takes them. Gamma stays zero: each alignment reads it from the
// sounder, whose SNR follows the UE's distance.
func (c Config) schemeSpec() align.SchemeSpec {
	return align.SchemeSpec{J: c.J, Window: c.Window, Estimator: covest.Options{Mu: c.Mu, MaxIters: c.EstimatorIters}}
}

// Drops returns the cell-grid depth: one drop per (speed, UE) point,
// laid out speed-major so drop = speedIdx·UEs + ue.
func (c Config) Drops() int { return len(c.SpeedsMPS) * c.UEs }

// point resolves a drop index back to its (speedIdx, ue) coordinates.
func (c Config) point(drop int) (speedIdx, ue int) {
	return drop / c.UEs, drop % c.UEs
}

// FramePoint records one superframe of a trajectory.
type FramePoint struct {
	// Frame is the superframe index.
	Frame int
	// Realigned marks a frame that ran a full re-alignment.
	Realigned bool
	// TrainSlots is the training cost paid this frame.
	TrainSlots int
	// SelSNRDB and OptSNRDB are true SNRs (dB) of the held pair and
	// the oracle pair on this frame's channel.
	SelSNRDB, OptSNRDB float64
	// Outage marks a frame below the outage threshold (zero data).
	Outage bool
	// DataBits and GenieBits are delivered and genie throughput in
	// bit/s/Hz × slots.
	DataBits, GenieBits float64
	// Blocked counts blocked clusters during the frame.
	Blocked int
}

// Trace is one completed (speed, UE, scheme) trajectory.
type Trace struct {
	// Scheme is the strategy name.
	Scheme string
	// SpeedIdx and UE locate the trajectory on the sweep grid.
	SpeedIdx, UE int
	// Frames holds the per-superframe records.
	Frames []FramePoint
	// Realigns counts full re-alignment frames.
	Realigns int
	// OutageFrames counts frames below the outage threshold.
	OutageFrames int
	// MeanRealignLatency is the mean number of frames from an outage
	// onset until the next re-alignment ran (censored at the horizon);
	// 0 when no outage occurred.
	MeanRealignLatency float64
	// Efficiency is Σ DataBits / Σ GenieBits over the trajectory.
	Efficiency float64
}

// finalize derives the aggregate fields from the frame records. It is
// called both after simulation and after a journal replay, so the
// aggregates never need to be serialized.
func (t *Trace) finalize() {
	t.Realigns, t.OutageFrames = 0, 0
	var sumData, sumGenie float64
	var latencySum float64
	var onsets int
	for i, f := range t.Frames {
		if f.Realigned {
			t.Realigns++
		}
		if f.Outage {
			t.OutageFrames++
			if i == 0 || !t.Frames[i-1].Outage {
				// Outage onset: latency runs to the next realignment,
				// censored at the horizon.
				lat := len(t.Frames) - i
				for j := i + 1; j < len(t.Frames); j++ {
					if t.Frames[j].Realigned {
						lat = j - i
						break
					}
				}
				latencySum += float64(lat)
				onsets++
			}
		}
		sumData += f.DataBits
		sumGenie += f.GenieBits
	}
	if onsets > 0 {
		t.MeanRealignLatency = latencySum / float64(onsets)
	}
	if sumGenie > 0 {
		t.Efficiency = sumData / sumGenie
	}
}

// Figure is one rendered curve set of a scenario run.
type Figure struct {
	// ID identifies the figure ("scenario-time", "scenario-speed").
	ID string
	// Title restates what is plotted.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds one curve per scheme.
	Series []metrics.Series
}

// Result is a completed scenario sweep.
type Result struct {
	// Time is effective throughput vs time at the highest swept speed.
	Time Figure
	// Speed is delivered/genie efficiency vs UE speed.
	Speed Figure
	// Traces holds every trajectory, drop-major then scheme order.
	Traces [][]Trace
	// Manifest is the machine-readable audit record of the run.
	Manifest *obs.Manifest
}

// runCell simulates one (drop, scheme) trajectory. Every random stream
// is a pure function of (seed, name): channel, motion, drift and
// blockage splits are keyed by drop only, so all schemes of a drop see
// the identical moving channel, and the strategy/noise splits are keyed
// per frame so a cell is reproducible in isolation — the property that
// makes the sweep worker-count invariant and journal-resumable.
func runCell(ctx context.Context, cfg Config, root *rng.Source, drop int, scheme string) (Trace, error) {
	speedIdx, ue := cfg.point(drop)
	speed := cfg.SpeedsMPS[speedIdx]
	rec := obs.From(ctx)

	tx := antenna.NewUPA(cfg.TXx, cfg.TXz)
	rx := antenna.NewUPA(cfg.RXx, cfg.RXz)
	txBook := antenna.NewGridCodebook(tx, cfg.TXBookAz, cfg.TXBookEl, math.Pi, math.Pi/2)
	rxBook := antenna.NewGridCodebook(rx, cfg.RXBookAz, cfg.RXBookEl, math.Pi, math.Pi/2)

	chSrc := root.SplitIndexed("channel", drop)
	var (
		ch  *channel.Channel
		err error
	)
	if cfg.Multipath {
		ch, err = channel.NewNYCMultipath(chSrc, tx, rx, channel.DefaultNYC28())
	} else {
		ch, err = channel.NewSinglePath(chSrc, tx, rx, channel.SinglePathSpec{})
	}
	if err != nil {
		return Trace{}, fmt.Errorf("channel: %w", err)
	}

	var blocker *channel.Blocker
	blockSrc := root.SplitIndexed("blockage", drop)
	if !cfg.NoBlockage {
		groupSize := 1
		if cfg.Multipath {
			groupSize = channel.DefaultNYC28().SubpathsPerCluster
		}
		blocker, err = channel.NewBlocker(ch, groupSize, cfg.PBlock, cfg.PUnblock, cfg.BlockageDB)
		if err != nil {
			return Trace{}, fmt.Errorf("blockage: %w", err)
		}
	}

	motionSrc := root.SplitIndexed("motion", drop)
	driftSrc := root.SplitIndexed("drift", drop)
	mv := newMover(motionSrc, cfg.Motion, cfg.RangeM)

	// One strategy per cell, constructed through the shared factory and
	// reused across the trajectory's re-alignments: stateful variants
	// (proposed-warm) carry their estimate from one alignment to the
	// next, stateless ones are indistinguishable from fresh
	// construction.
	strat, err := align.ForScheme(scheme, rxBook, cfg.schemeSpec())
	if err != nil {
		return Trace{}, err
	}

	noiseName := fmt.Sprintf("noise-%d", drop)
	stratName := fmt.Sprintf("strategy-%s-%d", scheme, drop)
	framePhase := rec.Phase("frame")
	alignPhase := rec.Phase("alignment")
	realignCtr := rec.Counter("scenario_realigns")
	outageCtr := rec.Counter("scenario_outage_frames")

	trace := Trace{Scheme: scheme, SpeedIdx: speedIdx, UE: ue}
	var current align.Pair
	for f := 0; f < cfg.Frames; f++ {
		if err := ctx.Err(); err != nil {
			return Trace{}, err
		}
		frameSpan := framePhase.Start()
		blocked := 0
		if blocker != nil {
			blocker.Step(blockSrc)
			blocked = blocker.BlockedCount()
		}

		// Distance-dependent link budget around the nominal range.
		d := mv.distance()
		gammaDB := cfg.GammaDB - 20*math.Log10(d/cfg.RangeM)
		sounder, err := meas.NewSounder(ch, channel.DBToLinear(gammaDB), root.SplitIndexed(noiseName, f))
		if err != nil {
			frameSpan.End()
			return Trace{}, fmt.Errorf("frame %d sounder: %w", f, err)
		}
		sounder.SetSnapshots(cfg.Snapshots)
		env := &align.Env{TXBook: txBook, RXBook: rxBook, Sounder: sounder, Src: root.SplitIndexed(stratName, f)}

		realigned := f%cfg.RealignEvery == 0
		trainUsed := 0
		if realigned {
			alignSpan := alignPhase.Start()
			tr, err := align.EvaluateContext(ctx, env, strat, cfg.AlignSlots)
			alignSpan.End()
			if err != nil {
				frameSpan.End()
				return Trace{}, fmt.Errorf("frame %d alignment: %w", f, err)
			}
			current = tr.BestPair
			trainUsed = len(tr.LossDB)
			realignCtr.Add(1)
		}

		sel := align.TrueSNROf(env, current)
		_, opt := align.Oracle(env)
		selDB := channel.LinearToDB(sel)
		outage := selDB < cfg.OutageSNRDB
		dataSlots := cfg.SlotBudget - trainUsed
		if dataSlots < 0 {
			dataSlots = 0
		}
		dataBits := 0.0
		if !outage {
			dataBits = float64(dataSlots) * math.Log2(1+sel)
		} else {
			outageCtr.Add(1)
		}
		trace.Frames = append(trace.Frames, FramePoint{
			Frame:      f,
			Realigned:  realigned,
			TrainSlots: trainUsed,
			SelSNRDB:   selDB,
			OptSNRDB:   channel.LinearToDB(opt),
			Outage:     outage,
			DataBits:   dataBits,
			GenieBits:  float64(cfg.SlotBudget) * math.Log2(1+opt),
			Blocked:    blocked,
		})

		// Advance the UE and evolve the geometry: deterministic bearing
		// rotation from kinematics plus distance-scaled angular drift.
		dist := speed * cfg.FrameDurS
		oldBearing, oldEl := mv.bearing(), elevation(cfg.BSHeightM, mv.distance())
		mv.step(motionSrc, dist)
		dAz := angleDelta(mv.bearing(), oldBearing)
		dEl := elevation(cfg.BSHeightM, mv.distance()) - oldEl
		ch.Rotate(dAz, dEl)
		if sigma := cfg.DriftSigmaDegPerM * math.Pi / 180 * dist; sigma > 0 {
			ch.Drift(driftSrc, sigma)
		}
		frameSpan.End()
	}
	trace.finalize()
	return trace, nil
}

// runAll executes every (drop, scheme) cell on the sweep engine
// (journal resume and record, bounded pool, panic attribution,
// cancel-and-drain). Scenario cells get no retries, and the first
// failed cell in drop-major order aborts the run with its attributed
// error.
func runAll(ctx context.Context, cfg Config) ([][]Trace, *sweep.Stats, error) {
	root := rng.New(cfg.Seed)
	results, st, err := sweep.Spec[Trace]{
		Name:    "scenario",
		Drops:   cfg.Drops(),
		Schemes: cfg.Schemes,
		Cell: func(ctx context.Context, drop int, scheme string) (Trace, error) {
			return runCell(ctx, cfg, root, drop, scheme)
		},
		Encode:  encodeTrace,
		Decode:  decodeTrace,
		Workers: cfg.Workers,
		Journal: cfg.Journal,
	}.Run(ctx)
	if err != nil {
		return nil, st, err
	}
	traces := make([][]Trace, len(results))
	for drop, row := range results {
		traces[drop] = make([]Trace, len(row))
		for si, r := range row {
			if r.Err != nil {
				return nil, st, r.Err
			}
			traces[drop][si] = r.Value
		}
	}
	return traces, st, nil
}

// RunContext executes the mobility sweep: every scheme rides every
// (speed, UE) trajectory, and the result carries the two scenario
// figures plus the run manifest. Cancelling ctx stops spawning cells,
// drains the in-flight workers, and returns the context's error.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	traces, st, err := runAll(ctx, cfg)
	if err != nil {
		return Result{}, err
	}

	res := Result{Traces: traces}
	res.Time = timeFigure(cfg, traces)
	res.Speed = speedFigure(cfg, traces)
	res.Manifest = st.Manifest(FigureID, "Mobility scenario sweep: effective throughput under motion, drift and blockage",
		cfg.Seed, cfg, obs.From(ctx), time.Since(start))
	return res, nil
}

// validate rejects configurations the engine cannot run.
func (c Config) validate() error {
	if len(c.SpeedsMPS) == 0 || c.UEs < 1 || c.Frames < 1 {
		return fmt.Errorf("scenario: empty sweep (speeds %d, UEs %d, frames %d)", len(c.SpeedsMPS), c.UEs, c.Frames)
	}
	if c.AlignSlots < 1 || c.SlotBudget < c.AlignSlots {
		return fmt.Errorf("scenario: slot budget %d must cover align slots %d", c.SlotBudget, c.AlignSlots)
	}
	if c.RealignEvery < 1 {
		return fmt.Errorf("scenario: realign cadence %d must be positive", c.RealignEvery)
	}
	switch c.Motion {
	case MotionWaypoint, MotionLinear, MotionRandomWalk:
	default:
		return fmt.Errorf("scenario: unknown motion model %q", c.Motion)
	}
	if len(c.Schemes) == 0 {
		return fmt.Errorf("scenario: no schemes configured")
	}
	return nil
}

// timeFigure renders effective throughput (bit/s/Hz delivered per
// slot) against time at the highest swept speed, mean ± CI95 across
// UEs.
func timeFigure(cfg Config, traces [][]Trace) Figure {
	topSpeed := len(cfg.SpeedsMPS) - 1
	fig := Figure{
		ID:     "scenario-time",
		Title:  fmt.Sprintf("Effective throughput over time at %g m/s (%s motion)", cfg.SpeedsMPS[topSpeed], cfg.Motion),
		XLabel: "time (s)",
		YLabel: "effective throughput (bit/s/Hz)",
	}
	for si, scheme := range cfg.Schemes {
		s := metrics.Series{Name: scheme}
		for f := 0; f < cfg.Frames; f++ {
			var acc metrics.Accumulator
			for ue := 0; ue < cfg.UEs; ue++ {
				drop := topSpeed*cfg.UEs + ue
				acc.Add(traces[drop][si].Frames[f].DataBits / float64(cfg.SlotBudget))
			}
			s.X = append(s.X, float64(f)*cfg.FrameDurS)
			s.Y = append(s.Y, acc.Mean())
			s.YErr = append(s.YErr, acc.CI95())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// speedFigure renders delivered/genie efficiency against UE speed,
// mean ± CI95 across UEs.
func speedFigure(cfg Config, traces [][]Trace) Figure {
	fig := Figure{
		ID:     "scenario-speed",
		Title:  fmt.Sprintf("Effective throughput vs UE speed (%s motion)", cfg.Motion),
		XLabel: "UE speed (m/s)",
		YLabel: "throughput fraction of genie",
	}
	for si, scheme := range cfg.Schemes {
		s := metrics.Series{Name: scheme}
		for spi, speed := range cfg.SpeedsMPS {
			var acc metrics.Accumulator
			for ue := 0; ue < cfg.UEs; ue++ {
				drop := spi*cfg.UEs + ue
				acc.Add(traces[drop][si].Efficiency)
			}
			s.X = append(s.X, speed)
			s.Y = append(s.Y, acc.Mean())
			s.YErr = append(s.YErr, acc.CI95())
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
