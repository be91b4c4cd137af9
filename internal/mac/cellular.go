package mac

import (
	"context"
	"fmt"
	"math"

	"mmwalign/internal/align"
	"mmwalign/internal/channel"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
	"mmwalign/internal/sim"
)

// CellularConfig parameterizes the event-driven multi-cell simulation:
// the full "mmWave cellular network" of the paper's Figure 1. Users
// arrive as a Poisson process into a square deployment of base
// stations, perform directional cell search, are served over drifting
// per-link channels with per-superframe beam tracking, hand over when a
// neighbor measures better, and depart after an exponential hold time.
type CellularConfig struct {
	// Link is the per-link radio configuration.
	Link LinkConfig
	// NumBS is the number of base stations, placed uniformly at random
	// (default 3).
	NumBS int
	// AreaM is the side of the square deployment area in meters
	// (default 400).
	AreaM float64
	// ArrivalRate is the UE arrival rate in users per second
	// (default 0.1).
	ArrivalRate float64
	// MeanHoldS is the mean exponential session duration in seconds
	// (default 30).
	MeanHoldS float64
	// SpeedMS is the user speed in m/s; direction is random and bounces
	// at the area boundary (default 1.5, pedestrian).
	SpeedMS float64
	// SuperframeS is the superframe period in seconds — the tracking and
	// accounting tick (default 0.5).
	SuperframeS float64
	// AlignBudget is the measurement budget of a full alignment at
	// association and after handover (default 64).
	AlignBudget int
	// TrackBudget is the per-tick tracking budget (default 8).
	TrackBudget int
	// ScanPeriodTicks is how often neighbors are scanned for handover
	// (default every 4 ticks).
	ScanPeriodTicks int
	// ScanBudget is the quick per-neighbor scan budget (default 16).
	ScanBudget int
	// HysteresisDB is the handover margin (default 3).
	HysteresisDB float64
	// SlotsPerSuperframe converts training costs into airtime overhead
	// (default 512).
	SlotsPerSuperframe int
	// OutageSNRdB is the post-beamforming SNR below which a tick counts
	// as outage (default 0).
	OutageSNRdB float64
	// HorizonS is the simulated duration in seconds (default 60).
	HorizonS float64
	// Budget and PathLoss convert geometry into pre-beamforming SNR.
	Budget   channel.LinkBudget
	PathLoss channel.PathLossParams
	// Seed drives all randomness.
	Seed int64
}

func (c CellularConfig) withDefaults() CellularConfig {
	c.Link = c.Link.withDefaults()
	if c.NumBS == 0 {
		c.NumBS = 3
	}
	if c.AreaM == 0 {
		c.AreaM = 400
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 0.1
	}
	if c.MeanHoldS == 0 {
		c.MeanHoldS = 30
	}
	if c.SpeedMS == 0 {
		c.SpeedMS = 1.5
	}
	if c.SuperframeS == 0 {
		c.SuperframeS = 0.5
	}
	if c.AlignBudget == 0 {
		c.AlignBudget = 64
	}
	if c.TrackBudget == 0 {
		c.TrackBudget = 8
	}
	if c.ScanPeriodTicks == 0 {
		c.ScanPeriodTicks = 4
	}
	if c.ScanBudget == 0 {
		c.ScanBudget = 16
	}
	if c.HysteresisDB == 0 {
		c.HysteresisDB = 3
	}
	if c.SlotsPerSuperframe == 0 {
		c.SlotsPerSuperframe = 512
	}
	if c.HorizonS == 0 {
		c.HorizonS = 60
	}
	if c.Budget == (channel.LinkBudget{}) {
		c.Budget = channel.LinkBudget{TXPowerDBm: 30, BandwidthHz: 1e9, NoiseFigureDB: 7}
	}
	if c.PathLoss == (channel.PathLossParams{}) {
		c.PathLoss = channel.DefaultPathLoss28()
	}
	return c
}

// CellularStats aggregates an event-driven run.
type CellularStats struct {
	// Arrivals counts user arrivals within the horizon.
	Arrivals int
	// Blocked counts arrivals that found every BS in outage.
	Blocked int
	// Completed counts sessions that departed normally.
	Completed int
	// Handovers counts inter-BS handovers.
	Handovers int
	// FullAlignments counts full alignment runs (association + handover).
	FullAlignments int
	// Ticks counts served superframe ticks across all users.
	Ticks int
	// OutageTicks counts ticks below the outage SNR.
	OutageTicks int
	// MeanSpectralEff is the mean delivered bits/s/Hz per served tick,
	// after subtracting training airtime.
	MeanSpectralEff float64
	// MeanTrainFrac is the mean fraction of airtime spent training.
	MeanTrainFrac float64
	// EventsProcessed is the simulator's event count.
	EventsProcessed int
}

type cellBS struct {
	x, y float64
}

type cellLink struct {
	ch     *channel.Channel
	state  channel.LinkState
	shadow float64 // fixed per-link shadowing (dB)
}

type cellUE struct {
	id         int
	x, y       float64
	vx, vy     float64
	serving    int
	pair       align.Pair
	links      []*cellLink
	departed   bool
	tickNumber int
}

type cellular struct {
	cfg   CellularConfig
	root  *rng.Source
	s     *sim.Simulator
	bss   []cellBS
	stats CellularStats

	sumEff   float64
	sumTrain float64
	nextUE   int
}

// RunCellular executes the event-driven multi-cell simulation.
func RunCellular(cfg CellularConfig) (CellularStats, error) {
	cfg = cfg.withDefaults()
	c := &cellular{cfg: cfg, root: rng.New(cfg.Seed), s: sim.New()}

	place := c.root.Split("placement")
	for i := 0; i < cfg.NumBS; i++ {
		c.bss = append(c.bss, cellBS{
			x: place.Uniform(0, cfg.AreaM),
			y: place.Uniform(0, cfg.AreaM),
		})
	}

	arrivals := c.root.Split("arrivals")
	var scheduleArrival func()
	var simErr error
	scheduleArrival = func() {
		gap := arrivals.Exponential(cfg.ArrivalRate)
		if err := c.s.Schedule(gap, func() {
			if err := c.arrive(); err != nil && simErr == nil {
				simErr = err
			}
			scheduleArrival()
		}); err != nil && simErr == nil {
			simErr = err
		}
	}
	scheduleArrival()

	c.s.Run(cfg.HorizonS)
	if simErr != nil {
		return CellularStats{}, simErr
	}

	if c.stats.Ticks > 0 {
		c.stats.MeanSpectralEff = c.sumEff / float64(c.stats.Ticks)
		c.stats.MeanTrainFrac = c.sumTrain / float64(c.stats.Ticks)
	}
	c.stats.EventsProcessed = c.s.Processed()
	return c.stats, nil
}

// arrive admits one user: place it, build its per-BS links, run the
// directional cell search, and schedule its session.
func (c *cellular) arrive() error {
	c.stats.Arrivals++
	id := c.nextUE
	c.nextUE++
	src := c.root.SplitIndexed("ue", id)

	ue := &cellUE{
		id:      id,
		x:       src.Uniform(0, c.cfg.AreaM),
		y:       src.Uniform(0, c.cfg.AreaM),
		serving: -1,
	}
	theta := src.Uniform(0, 2*math.Pi)
	ue.vx = c.cfg.SpeedMS * math.Cos(theta)
	ue.vy = c.cfg.SpeedMS * math.Sin(theta)

	tx, rx, _, _ := c.cfg.Link.books()
	for b := range c.bss {
		link := &cellLink{shadow: src.NormalScaled(0, 4)}
		link.state = c.cfg.PathLoss.DrawState(src, c.dist(ue, b))
		if link.state != channel.StateOutage {
			ch, err := c.cfg.Link.newChannel(src.SplitIndexed("channel", b), tx, rx)
			if err != nil {
				return fmt.Errorf("mac: cellular UE %d BS %d: %w", id, b, err)
			}
			link.ch = ch
		}
		ue.links = append(ue.links, link)
	}

	// Directional cell search: quick scan of every reachable BS, then a
	// full alignment at the winner.
	best, bestSNR := -1, math.Inf(-1)
	for b := range c.bss {
		tr, err := c.alignUE(ue, b, c.cfg.ScanBudget)
		if err != nil {
			continue // unreachable (outage)
		}
		if tr.BestMeasuredSNR > bestSNR {
			best, bestSNR = b, tr.BestMeasuredSNR
		}
	}
	if best < 0 {
		c.stats.Blocked++
		return nil
	}
	tr, err := c.alignUE(ue, best, c.cfg.AlignBudget)
	if err != nil {
		c.stats.Blocked++
		return nil
	}
	c.stats.FullAlignments++
	ue.serving = best
	ue.pair = tr.BestPair

	// Session lifetime and first tick.
	hold := src.Exponential(1 / c.cfg.MeanHoldS)
	deadline := c.s.Now() + hold
	if err := c.s.Schedule(c.cfg.SuperframeS, func() { c.tick(ue, src, deadline) }); err != nil {
		return err
	}
	return nil
}

// tick advances one user's superframe: mobility, channel drift, beam
// tracking, throughput accounting, and periodic handover checks.
func (c *cellular) tick(ue *cellUE, src *rng.Source, deadline float64) {
	if ue.departed {
		return
	}
	if c.s.Now() >= deadline {
		ue.departed = true
		c.stats.Completed++
		return
	}
	ue.tickNumber++

	// Mobility with boundary bounce.
	ue.x += ue.vx * c.cfg.SuperframeS
	ue.y += ue.vy * c.cfg.SuperframeS
	if ue.x < 0 || ue.x > c.cfg.AreaM {
		ue.vx = -ue.vx
		ue.x = math.Min(math.Max(ue.x, 0), c.cfg.AreaM)
	}
	if ue.y < 0 || ue.y > c.cfg.AreaM {
		ue.vy = -ue.vy
		ue.y = math.Min(math.Max(ue.y, 0), c.cfg.AreaM)
	}

	// Channel evolution: displacement-proportional angle drift.
	driftRad := c.cfg.SpeedMS * c.cfg.SuperframeS * 0.005
	for _, l := range ue.links {
		if l.ch != nil {
			l.ch.Drift(src, driftRad)
		}
	}

	// Track the serving beam.
	trainSlots := 0
	env, gamma, err := c.envFor(ue, ue.serving)
	if err == nil && gamma > 0 {
		best, _, used := trackStep(env, ue.pair, c.cfg.TrackBudget)
		ue.pair = best
		trainSlots += used
	}

	// Periodic neighbor scan and handover.
	if ue.tickNumber%c.cfg.ScanPeriodTicks == 0 {
		servingSNR := c.trueServingSNR(ue)
		bestB, bestMeasured := -1, math.Inf(-1)
		var bestPair align.Pair
		for b := range c.bss {
			if b == ue.serving {
				continue
			}
			tr, err := c.alignUE(ue, b, c.cfg.ScanBudget)
			if err != nil {
				continue
			}
			trainSlots += c.cfg.ScanBudget
			if tr.BestMeasuredSNR > bestMeasured {
				bestB, bestMeasured, bestPair = b, tr.BestMeasuredSNR, tr.BestPair
			}
		}
		margin := channel.DBToLinear(c.cfg.HysteresisDB)
		if bestB >= 0 && bestMeasured > servingSNR*margin {
			ue.serving = bestB
			ue.pair = bestPair
			c.stats.Handovers++
			// Refine at the new cell.
			if tr, err := c.alignUE(ue, bestB, c.cfg.AlignBudget); err == nil {
				ue.pair = tr.BestPair
				trainSlots += c.cfg.AlignBudget
				c.stats.FullAlignments++
			}
		}
	}

	// Throughput accounting for this superframe.
	snr := c.trueServingSNR(ue)
	trainFrac := math.Min(1, float64(trainSlots)/float64(c.cfg.SlotsPerSuperframe))
	c.stats.Ticks++
	c.sumEff += (1 - trainFrac) * math.Log2(1+snr)
	c.sumTrain += trainFrac
	if channel.LinearToDB(snr) < c.cfg.OutageSNRdB {
		c.stats.OutageTicks++
	}

	// Next tick.
	_ = c.s.Schedule(c.cfg.SuperframeS, func() { c.tick(ue, src, deadline) })
}

// dist returns the UE-BS distance in meters.
func (c *cellular) dist(ue *cellUE, b int) float64 {
	return math.Hypot(ue.x-c.bss[b].x, ue.y-c.bss[b].y)
}

// gammaFor returns the pre-beamforming SNR of the UE-BS link from the
// deterministic path-loss mean plus the link's fixed shadowing.
func (c *cellular) gammaFor(ue *cellUE, b int) float64 {
	l := ue.links[b]
	if l.state == channel.StateOutage || l.ch == nil {
		return 0
	}
	d := math.Max(c.dist(ue, b), 1)
	var pl float64
	switch l.state {
	case channel.StateLOS:
		pl = c.cfg.PathLoss.AlphaLOS + c.cfg.PathLoss.BetaLOS*10*math.Log10(d)
	default:
		pl = c.cfg.PathLoss.AlphaNLOS + c.cfg.PathLoss.BetaNLOS*10*math.Log10(d)
	}
	return c.cfg.Budget.SNRLinear(pl + l.shadow)
}

// envFor builds a fresh measurement environment for the UE-BS link.
func (c *cellular) envFor(ue *cellUE, b int) (*align.Env, float64, error) {
	gamma := c.gammaFor(ue, b)
	if gamma <= 0 {
		return nil, 0, fmt.Errorf("mac: cellular link UE %d BS %d in outage", ue.id, b)
	}
	_, _, txBook, rxBook := c.cfg.Link.books()
	sounder, err := meas.NewSounder(ue.links[b].ch, gamma,
		c.root.SplitIndexed(fmt.Sprintf("noise-%d-%d", ue.id, b), ue.tickNumber))
	if err != nil {
		return nil, 0, err
	}
	sounder.SetSnapshots(c.cfg.Link.Snapshots)
	return &align.Env{
		TXBook:  txBook,
		RXBook:  rxBook,
		Sounder: sounder,
		Src:     c.root.SplitIndexed(fmt.Sprintf("strategy-%d-%d", ue.id, b), ue.tickNumber),
	}, gamma, nil
}

// alignUE runs a full alignment of the UE toward BS b with the given
// budget.
func (c *cellular) alignUE(ue *cellUE, b, budget int) (align.Trajectory, error) {
	env, gamma, err := c.envFor(ue, b)
	if err != nil {
		return align.Trajectory{}, err
	}
	strat, err := c.cfg.Link.strategy(gamma, env.RXBook)
	if err != nil {
		return align.Trajectory{}, err
	}
	return align.EvaluateContext(context.Background(), env, strat, budget)
}

// trueServingSNR returns the ground-truth SNR of the UE's held pair on
// its serving link (0 when unreachable).
func (c *cellular) trueServingSNR(ue *cellUE) float64 {
	if ue.serving < 0 {
		return 0
	}
	env, gamma, err := c.envFor(ue, ue.serving)
	if err != nil || gamma <= 0 {
		return 0
	}
	return align.TrueSNROf(env, ue.pair)
}
