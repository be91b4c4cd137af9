// Package experiment is the benchmark harness that regenerates every
// result figure of the paper:
//
//   - Fig. 5: SNR loss vs search rate, single-path channel.
//   - Fig. 6: SNR loss vs search rate, NYC multipath channel.
//   - Fig. 7: required search rate vs target loss, single-path channel.
//   - Fig. 8: required search rate vs target loss, NYC multipath channel.
//
// Each generator sweeps simulation drops (independent channel
// realizations), runs every configured scheme on identical channels with
// identical measurement-noise streams, and aggregates the paper's
// metrics: SNR loss of the selected pair (Eq. 31) and search rate L/T
// (Eq. 32). Determinism: a Config fully determines the output.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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

// Config parameterizes a figure regeneration. Zero fields take the
// paper-matched defaults (see WithDefaults). The JSON tags define the
// config block of the run manifest (obs.Manifest): everything that
// determines the output is serialized, runtime-only hooks are not.
type Config struct {
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
	// Drops is the number of independent channel realizations.
	Drops int `json:"drops"`
	// TXx, TXz are the TX UPA dimensions (paper: 4×4).
	TXx int `json:"tx_x"`
	TXz int `json:"tx_z"`
	// RXx, RXz are the RX UPA dimensions (paper: 8×8).
	RXx int `json:"rx_x"`
	RXz int `json:"rx_z"`
	// TXBookAz, TXBookEl shape the TX codebook grid (card(U) = product).
	TXBookAz int `json:"tx_book_az"`
	TXBookEl int `json:"tx_book_el"`
	// RXBookAz, RXBookEl shape the RX codebook grid (card(V) = product).
	RXBookAz int `json:"rx_book_az"`
	RXBookEl int `json:"rx_book_el"`
	// GammaDB is the pre-beamforming SNR E_s/N₀ in dB.
	GammaDB float64 `json:"gamma_db"`
	// Snapshots is the number of fading+noise snapshots per measurement.
	Snapshots int `json:"snapshots"`
	// J, Window, Mu and EstimatorIters parameterize the proposed and
	// two-sided schemes (align.SchemeSpec's J, Window, Estimator.Mu and
	// Estimator.MaxIters).
	J              int     `json:"j"`
	Window         int     `json:"window"`
	Mu             float64 `json:"mu"`
	EstimatorIters int     `json:"estimator_iters"`
	// Multipath selects the NYC clustered channel instead of single-path.
	Multipath bool `json:"multipath"`
	// SearchRates are the L/T points of the effectiveness sweep.
	SearchRates []float64 `json:"search_rates"`
	// TargetsDB are the target losses of the cost-efficiency sweep.
	TargetsDB []float64 `json:"targets_db"`
	// Schemes are the strategy names to compare: any of
	// align.SchemeNames().
	Schemes []string `json:"schemes"`
	// EstimatorKind selects the likelihood (ablation); zero means
	// covest.PerMeasurement.
	EstimatorKind covest.ObjectiveKind `json:"estimator_kind"`
	// Workers bounds the concurrent drops (0 = GOMAXPROCS). Results are
	// independent of the worker count.
	Workers int `json:"workers"`
	// CrossCellBatch routes the estimator's per-iteration Q·V products
	// of concurrently running "proposed"/"two-sided" cells through one
	// cross-cell batch scheduler, which coalesces same-shape products
	// into single virtual tall GEMMs (see batch.go). Pure scheduling:
	// results are bitwise identical with the knob on or off, at any
	// worker count, so it is zeroed in CanonicalHash like Workers.
	CrossCellBatch bool `json:"cross_cell_batch"`
	// PhaseBits applies b-bit phase-shifter quantization to both
	// codebooks (0 = ideal continuous phases).
	PhaseBits int `json:"phase_bits"`
	// MaxFailedDrops is the error budget: how many drops may fail
	// (worker panic, estimator failure, invalid measurements) while
	// still producing a figure. A failed drop is excluded from the
	// aggregation of every scheme — keeping the per-scheme means
	// comparable — and recorded in the figure's FailureReport. The
	// default 0 is strict: any failure aborts the figure with every
	// collected failure joined into the returned error. A cell that
	// succeeds within MaxRetries never reaches this budget.
	MaxFailedDrops int `json:"max_failed_drops"`
	// MaxRetries re-runs a failed (drop, scheme) cell up to this many
	// extra times before the failure counts against MaxFailedDrops.
	// Cell computations are pure functions of (seed, drop, scheme), so
	// a retry that succeeds produces exactly the result the first
	// attempt would have — retries only help against transient faults
	// (an injected hiccup, a resource blip), and a deterministic bug
	// burns all attempts and reports how many (DropFailure.Attempts).
	MaxRetries int `json:"max_retries"`
	// RetryBackoff is the delay before the first retry, doubling per
	// subsequent attempt and capped at 100× the base (or at 5s when no
	// base is set but retries are). Zero means retry immediately.
	RetryBackoff time.Duration `json:"retry_backoff_ns"`
	// Journal, when non-nil, is the crash-safe checkpoint of the run:
	// cells already on record are skipped (their journaled trajectories
	// are bit-exact, so the figure is byte-identical to an
	// uninterrupted run) and every newly completed cell is appended and
	// fsynced as it finishes. Failed cells are never journaled — a
	// resume retries them. The caller owns opening (with the canonical
	// config-hash check) and closing the journal.
	Journal *journal.Journal `json:"-"`
	// WrapSounder, when non-nil, wraps each (drop, scheme) cell's
	// sounder before the strategies run — the seam used by the
	// fault-injection harness and instrumentation. The wrapper must be
	// deterministic in (drop, scheme) for the worker-count invariance
	// guarantee to hold.
	WrapSounder func(drop int, scheme string, p meas.Prober) meas.Prober `json:"-"`

	// batcher is the live cross-cell GEMM scheduler of the current run,
	// installed by trajectories when CrossCellBatch is set. Runtime
	// state, never serialized; it rides the by-value Config copies down
	// to schemeSpec, which hands it to the estimator options.
	batcher *gemmBatcher
}

// WithDefaults returns a copy with zero fields replaced by the defaults
// used throughout the reproduction: 4×4/8×8 arrays, 16/64-beam books
// (T = 1024 pairs), γ = 0 dB, 4 snapshots, 100 drops, the paper's three
// schemes, sweeps matching the figures, and the estimator settings of
// align.SchemeSpec.WithDefaults.
func (c Config) WithDefaults() Config {
	if c.Drops == 0 {
		c.Drops = 100
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
	if c.SearchRates == nil {
		c.SearchRates = []float64{0.03, 0.06, 0.10, 0.15, 0.20, 0.25, 0.30}
	}
	if c.TargetsDB == nil {
		c.TargetsDB = []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
	}
	if c.Schemes == nil {
		c.Schemes = []string{"random", "scan", "proposed"}
	}
	return c
}

// Figure is one regenerated paper figure.
type Figure struct {
	// ID is the figure identifier, e.g. "fig5".
	ID string
	// Title restates what the paper plots.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds one curve per scheme.
	Series []metrics.Series
	// Failures reports drops excluded under the error budget
	// (Config.MaxFailedDrops). Nil when every drop succeeded; when
	// non-nil the Series aggregate only the surviving drops, making
	// partial results first-class rather than silent.
	Failures *FailureReport
	// Manifest is the machine-readable audit record of the run: config,
	// seed, per-phase timings, solver-stat aggregates, and the failure
	// summary. Always attached; timing/counter detail is present only
	// when an obs.Recorder travelled in the generation context.
	Manifest *obs.Manifest
}

// DropFailure is one failed (drop, scheme) cell with full attribution.
type DropFailure struct {
	// Drop is the channel-realization index that failed.
	Drop int
	// Scheme is the strategy that failed on it.
	Scheme string
	// Attempts is how many times the cell was run before giving up
	// (1 + retries burned): it distinguishes a permanent failure that
	// exhausted Config.MaxRetries from a first-attempt failure with no
	// retry budget.
	Attempts int
	// Err is the attributed failure of the final attempt (a
	// *sweep.PanicError for recovered panics).
	Err error
}

// FailureReport accounts for every drop excluded from a figure. The
// listing is deterministic: failures appear in drop-major, scheme
// order regardless of the worker count.
type FailureReport struct {
	// Failures lists each failed (drop, scheme) cell.
	Failures []DropFailure
	// FailedDrops is the number of distinct drops excluded (a drop with
	// several failing schemes counts once).
	FailedDrops int
	// TotalDrops is the configured drop count.
	TotalDrops int
}

// Err joins every recorded failure into one inspectable error (nil when
// the report is empty). Cells that burned retries say so — an
// over-budget error distinguishes "failed once, no retries configured"
// from "failed persistently through N retries".
func (r *FailureReport) Err() error {
	if r == nil || len(r.Failures) == 0 {
		return nil
	}
	errs := make([]error, len(r.Failures))
	for i, f := range r.Failures {
		if f.Attempts > 1 {
			errs[i] = fmt.Errorf("%w (persistent: %d retries burned over %d attempts)", f.Err, f.Attempts-1, f.Attempts)
		} else {
			errs[i] = f.Err
		}
	}
	return errors.Join(errs...)
}

// buildEnv creates the per-drop, per-scheme environment. All schemes of
// a drop share the channel realization and the measurement-noise seed so
// differences come only from their pair-selection policies. A non-nil
// recorder observes channel-generation time and wraps the sounder with
// measurement timing; instrumentation never alters the random streams.
func buildEnv(cfg Config, root *rng.Source, drop int, scheme string, rec *obs.Recorder) (*align.Env, error) {
	tx := antenna.NewUPA(cfg.TXx, cfg.TXz)
	rx := antenna.NewUPA(cfg.RXx, cfg.RXz)

	chSrc := root.SplitIndexed("channel", drop)
	var (
		ch  *channel.Channel
		err error
	)
	chSpan := rec.Phase("channel").Start()
	if cfg.Multipath {
		ch, err = channel.NewNYCMultipath(chSrc, tx, rx, channel.DefaultNYC28())
	} else {
		ch, err = channel.NewSinglePath(chSrc, tx, rx, channel.SinglePathSpec{})
	}
	chSpan.End()
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}

	sounder, err := meas.NewSounder(ch, channel.DBToLinear(cfg.GammaDB), root.SplitIndexed("noise", drop))
	if err != nil {
		return nil, fmt.Errorf("sounder: %w", err)
	}
	sounder.SetSnapshots(cfg.Snapshots)
	var prober meas.Prober = sounder
	if cfg.WrapSounder != nil {
		prober = cfg.WrapSounder(drop, scheme, prober)
	}
	if rec != nil {
		// Outermost wrapper: sounding time includes any injected-fault
		// work, and the count covers exactly what strategies observe.
		prober = &obsProber{Prober: prober, phase: rec.Phase("sounding"), count: rec.Counter("measurements")}
	}

	txBook := antenna.NewGridCodebook(tx, cfg.TXBookAz, cfg.TXBookEl, math.Pi, math.Pi/2)
	rxBook := antenna.NewGridCodebook(rx, cfg.RXBookAz, cfg.RXBookEl, math.Pi, math.Pi/2)
	if cfg.PhaseBits > 0 {
		txBook = antenna.QuantizedCodebook(txBook, cfg.PhaseBits)
		rxBook = antenna.QuantizedCodebook(rxBook, cfg.PhaseBits)
	}
	return &align.Env{
		TXBook:  txBook,
		RXBook:  rxBook,
		Sounder: prober,
		Src:     root.SplitIndexed("strategy-"+scheme, drop),
	}, nil
}

// schemeSpec returns the config's strategy knobs as align.ForScheme
// takes them.
func (c Config) schemeSpec() align.SchemeSpec {
	spec := align.SchemeSpec{
		J:      c.J,
		Window: c.Window,
		Estimator: covest.Options{
			Gamma:    channel.DBToLinear(c.GammaDB),
			Mu:       c.Mu,
			MaxIters: c.EstimatorIters,
			Kind:     c.EstimatorKind,
		},
	}
	// Assigning the nil *gemmBatcher directly would produce a typed-nil
	// interface the estimator reads as "batching on".
	if c.batcher != nil {
		spec.Estimator.Batcher = c.batcher
	}
	return spec
}

// checkSchemes rejects a scheme name align.ForScheme does not know, and
// estimator knobs it would refuse. Either fails every cell the same
// way, so it is a configuration error, reported before any cell runs
// rather than retried per drop.
func (c Config) checkSchemes() error {
	for _, s := range c.Schemes {
		if !slices.Contains(align.SchemeNames(), s) {
			return fmt.Errorf("experiment: unknown scheme %q (known: %s)", s, strings.Join(align.SchemeNames(), ", "))
		}
	}
	if err := c.schemeSpec().WithDefaults().Validate(); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

// sweepSpec describes the config's (drop, scheme) grid to the sweep
// engine: a cell builds its drop's environment and runs the scheme on
// it with the given measurement budget, and its trajectory is journaled
// through the bit-exact codec.
func (c Config) sweepSpec(budget int) sweep.Spec[align.Trajectory] {
	root := rng.New(c.Seed)
	return sweep.Spec[align.Trajectory]{
		Name:    "experiment",
		Drops:   c.Drops,
		Schemes: c.Schemes,
		Cell: func(ctx context.Context, drop int, scheme string) (align.Trajectory, error) {
			env, err := buildEnv(c, root, drop, scheme, obs.From(ctx))
			if err != nil {
				return align.Trajectory{}, err
			}
			strat, err := align.ForScheme(scheme, env.RXBook, c.schemeSpec())
			if err != nil {
				return align.Trajectory{}, err
			}
			return align.EvaluateContext(ctx, env, strat, budget)
		},
		Encode:       encodeTrajectory,
		Decode:       decodeTrajectory,
		Workers:      c.Workers,
		MaxRetries:   c.MaxRetries,
		RetryBackoff: c.RetryBackoff,
		Journal:      c.Journal,
	}
}

// trajectories runs every configured scheme on every drop with the given
// measurement budget and feeds each per-drop trajectory to visit, in
// deterministic (drop-major, scheme order) sequence.
//
// The cells run on the sweep engine (worker pool, journal resume and
// record, panic attribution, retries, cancel-and-drain), which keeps
// the output bit-identical to a sequential run (WrapSounder hooks must
// themselves be deterministic in (drop, scheme) to preserve this).
// What a failure means is decided here: under the error budget
// (Config.MaxFailedDrops) failed drops are skipped for all schemes
// (keeping the per-scheme aggregates comparable) and reported; over
// budget, the joined errors are returned.
func trajectories(ctx context.Context, cfg Config, budget int, visit func(scheme string, drop int, tr align.Trajectory)) (*FailureReport, *sweep.Stats, error) {
	if err := cfg.checkSchemes(); err != nil {
		return nil, nil, err
	}
	if cfg.CrossCellBatch {
		// One scheduler for the whole run; stopped only after every
		// worker has drained, so no MulInto can race the close.
		cfg.batcher = newGemmBatcher(obs.From(ctx))
		defer cfg.batcher.stop()
	}
	results, st, err := cfg.sweepSpec(budget).Run(ctx)
	if err != nil {
		return nil, st, err
	}

	// Collect every failure with attribution; a drop is excluded for all
	// schemes as soon as any of its cells failed, so the surviving
	// aggregates stay comparable across schemes.
	failedDrop := make([]bool, cfg.Drops)
	var failures []DropFailure
	for drop := 0; drop < cfg.Drops; drop++ {
		for si, scheme := range cfg.Schemes {
			if r := results[drop][si]; r.Err != nil {
				failedDrop[drop] = true
				failures = append(failures, DropFailure{Drop: drop, Scheme: scheme, Attempts: r.Attempts, Err: r.Err})
			}
		}
	}
	var report *FailureReport
	if len(failures) > 0 {
		report = &FailureReport{Failures: failures, TotalDrops: cfg.Drops}
		for _, failed := range failedDrop {
			if failed {
				report.FailedDrops++
			}
		}
		if report.FailedDrops > cfg.MaxFailedDrops {
			return report, st, fmt.Errorf("experiment: %d of %d drops failed (error budget %d, %d retries per cell): %w",
				report.FailedDrops, cfg.Drops, cfg.MaxFailedDrops, cfg.MaxRetries, report.Err())
		}
		if report.FailedDrops == cfg.Drops {
			return report, st, fmt.Errorf("experiment: all %d drops failed: %w", cfg.Drops, report.Err())
		}
	}

	for drop := 0; drop < cfg.Drops; drop++ {
		if failedDrop[drop] {
			continue
		}
		for si, scheme := range cfg.Schemes {
			visit(scheme, drop, results[drop][si].Value)
		}
	}
	return report, st, nil
}

// totalPairs returns T for the configured codebooks.
func (c Config) totalPairs() int {
	return c.TXBookAz * c.TXBookEl * c.RXBookAz * c.RXBookEl
}

// SearchEffectivenessContext regenerates Fig. 5 (single-path) or Fig. 6
// (multipath): mean SNR loss of the selected pair at each search rate.
// Cancelling ctx stops the sweep; failed drops within the error budget
// are excluded and reported in Figure.Failures.
func SearchEffectivenessContext(ctx context.Context, cfg Config) (Figure, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	t := cfg.totalPairs()
	maxRate := cfg.SearchRates[len(cfg.SearchRates)-1]
	budget := int(math.Ceil(maxRate * float64(t)))

	accs := make(map[string][]metrics.Accumulator, len(cfg.Schemes))
	for _, s := range cfg.Schemes {
		accs[s] = make([]metrics.Accumulator, len(cfg.SearchRates))
	}
	report, stats, err := trajectories(ctx, cfg, budget, func(scheme string, _ int, tr align.Trajectory) {
		for i, rate := range cfg.SearchRates {
			l := int(math.Ceil(rate * float64(t)))
			if l < 1 {
				l = 1
			}
			if l > len(tr.LossDB) {
				l = len(tr.LossDB)
			}
			accs[scheme][i].AddFinite(tr.LossDB[l-1])
		}
	})
	if err != nil {
		return Figure{}, err
	}

	fig := Figure{
		Title:    "Search effectiveness: SNR loss vs search rate",
		XLabel:   "search rate (L/T)",
		YLabel:   "SNR loss (dB)",
		Failures: report,
	}
	if cfg.Multipath {
		fig.ID, fig.Title = "fig6", fig.Title+" — NYC multipath channel"
	} else {
		fig.ID, fig.Title = "fig5", fig.Title+" — single-path channel"
	}
	for _, scheme := range cfg.Schemes {
		s := metrics.Series{Name: scheme}
		for i, rate := range cfg.SearchRates {
			s.X = append(s.X, rate)
			s.Y = append(s.Y, accs[scheme][i].Mean())
			s.YErr = append(s.YErr, accs[scheme][i].CI95())
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Manifest = buildManifest(cfg, &fig, obs.From(ctx), time.Since(start), stats)
	return fig, nil
}

// CostEfficiencyContext regenerates Fig. 7 (single-path) or Fig. 8
// (multipath): the mean search rate each scheme needs before the loss
// of its current best pair first drops to the target. Runs that never
// reach a target within the sweep budget are counted at the full budget
// (a conservative lower bound, noted in EXPERIMENTS.md). Cancelling ctx
// stops the sweep; failed drops within the error budget are excluded
// and reported in Figure.Failures.
func CostEfficiencyContext(ctx context.Context, cfg Config) (Figure, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	t := cfg.totalPairs()
	maxRate := cfg.SearchRates[len(cfg.SearchRates)-1]
	budget := int(math.Ceil(maxRate * float64(t)))

	accs := make(map[string][]metrics.Accumulator, len(cfg.Schemes))
	for _, s := range cfg.Schemes {
		accs[s] = make([]metrics.Accumulator, len(cfg.TargetsDB))
	}
	report, stats, err := trajectories(ctx, cfg, budget, func(scheme string, _ int, tr align.Trajectory) {
		for i, target := range cfg.TargetsDB {
			l := tr.FirstWithin(target)
			if l < 0 {
				l = len(tr.LossDB) // censored at the sweep budget
			}
			accs[scheme][i].Add(float64(l) / float64(t))
		}
	})
	if err != nil {
		return Figure{}, err
	}

	fig := Figure{
		Title:    "Cost efficiency: required search rate vs target loss",
		XLabel:   "target loss (dB)",
		YLabel:   "required search rate (L/T)",
		Failures: report,
	}
	if cfg.Multipath {
		fig.ID, fig.Title = "fig8", fig.Title+" — NYC multipath channel"
	} else {
		fig.ID, fig.Title = "fig7", fig.Title+" — single-path channel"
	}
	for _, scheme := range cfg.Schemes {
		s := metrics.Series{Name: scheme}
		for i, target := range cfg.TargetsDB {
			s.X = append(s.X, target)
			s.Y = append(s.Y, accs[scheme][i].Mean())
			s.YErr = append(s.YErr, accs[scheme][i].CI95())
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Manifest = buildManifest(cfg, &fig, obs.From(ctx), time.Since(start), stats)
	return fig, nil
}

// GenerateContext regenerates a figure by paper number (5–8) with
// cooperative cancellation: cancelling ctx stops spawning new drops,
// drains the in-flight workers, and returns the context's error.
func GenerateContext(ctx context.Context, figure int, cfg Config) (Figure, error) {
	switch figure {
	case 5:
		cfg.Multipath = false
		return SearchEffectivenessContext(ctx, cfg)
	case 6:
		cfg.Multipath = true
		return SearchEffectivenessContext(ctx, cfg)
	case 7:
		cfg.Multipath = false
		return CostEfficiencyContext(ctx, cfg)
	case 8:
		cfg.Multipath = true
		return CostEfficiencyContext(ctx, cfg)
	default:
		return Figure{}, fmt.Errorf("experiment: the paper has figures 5-8, not %d", figure)
	}
}
