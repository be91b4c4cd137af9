// Command figgen regenerates the result figures of the paper
// (Fig. 5–8) as CSV files and quick ASCII plots.
//
// Usage:
//
//	figgen -fig 5 -drops 100 -out fig5.csv
//	figgen -all -drops 100 -outdir results/
//	figgen -fig 5 -strict -inject nan=0.3 -max-failed-drops 2
//	figgen -fig 7 -pprof prof/fig7 -counters
//	figgen -fig 6 -drops 500 -checkpoint fig6.journal       # long run, crash-safe
//	figgen -fig 6 -drops 500 -checkpoint fig6.journal -resume
//	figgen -checkpoint-inspect fig6.journal                 # is a resume safe?
//	figgen -fig 6 -drops 500 -shard-dir sweep -worker-id w1 # one of N processes
//	figgen -fig 6 -drops 500 -shard-dir sweep -merge        # fold + finish
//	figgen -checkpoint-inspect sweep                        # shard-dir progress
//
// With -checkpoint, every completed (drop, scheme) cell is fsynced to
// an append-only journal; Ctrl-C (or SIGTERM) cancels the workers
// gracefully, flushes the journal, and prints the exact -resume
// invocation. A resumed run skips the journaled cells and produces
// byte-identical CSVs to an uninterrupted run; the journal refuses to
// resume across a changed configuration (canonical config-hash check).
//
// With -shard-dir, several figgen processes — typically on different
// machines sharing a directory — split one figure's (drop, scheme)
// grid between them: each -worker-id process claims cells through
// crash-tolerant lease files and journals its results, and cells held
// by a worker that died (lease heartbeat older than -lease-ttl) are
// stolen and recomputed by the survivors. A final -merge invocation
// folds the worker journals into one checkpoint and generates the
// figure from it, byte-identical to a single-process run.
//
// The output CSV has one row per sweep point and one column per scheme;
// the same data is printed as an aligned table and an ASCII plot on
// stdout so the figure shape can be checked without leaving the
// terminal. A machine-readable run manifest
// (mmwalign/run-manifest/v1) is written next to each CSV; progress and
// failure diagnostics go to stderr so stdout stays parseable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mmwalign/internal/align"
	"mmwalign/internal/cmat"
	"mmwalign/internal/experiment"
	"mmwalign/internal/faultinject"
	"mmwalign/internal/journal"
	"mmwalign/internal/meas"
	"mmwalign/internal/metrics"
	"mmwalign/internal/obs"
	"mmwalign/internal/scenario"
	"mmwalign/internal/shard"
	"mmwalign/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "figgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defaults := align.SchemeSpec{}.WithDefaults()
	var (
		fig        = fs.Int("fig", 0, "paper figure to regenerate (5-8)")
		all        = fs.Bool("all", false, "regenerate all figures")
		drops      = fs.Int("drops", 100, "independent channel drops per point")
		seed       = fs.Int64("seed", 1, "random seed")
		gammaDB    = fs.Float64("gamma", 0, "pre-beamforming SNR Es/N0 in dB")
		snapshots  = fs.Int("snapshots", 4, "fading+noise snapshots per measurement")
		j          = fs.Int("j", 0, fmt.Sprintf("measurements per TX slot (proposed scheme; 0 = %d)", defaults.J))
		mu         = fs.Float64("mu", 0, fmt.Sprintf("nuclear-norm regularization weight (0 = %g)", defaults.Estimator.Mu))
		schemes    = fs.String("schemes", "", "comma-separated scheme list of "+strings.Join(align.SchemeNames(), ",")+" (default: random,scan,proposed)")
		extended   = fs.Bool("extended", false, "include the extension schemes (two-sided, local-refine, hierarchical)")
		out        = fs.String("out", "", "CSV output path (single figure; default stdout only)")
		outdir     = fs.String("outdir", ".", "output directory for -all")
		jsonOut    = fs.Bool("json", false, "also write a .json next to each CSV")
		timeout    = fs.Duration("timeout", 0, "abort generation after this duration (0 = no limit)")
		maxFailed  = fs.Int("max-failed-drops", 0, "error budget: drops that may fail while still producing a figure (failures are excluded and reported)")
		strict     = fs.Bool("strict", false, "exit non-zero when any drop failed, even within the error budget")
		progress   = fs.Bool("progress", true, "report live per-cell progress on stderr (requires -instrument)")
		instrument = fs.Bool("instrument", true, "collect phase timings, counters and solver aggregates")
		manifest   = fs.Bool("manifest", true, "write a <fig>.manifest.json run manifest next to each CSV")
		counters   = fs.Bool("counters", false, "print the instrumentation snapshot to stderr and publish it via expvar")
		pprofPfx   = fs.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles")
		inject     = fs.String("inject", "", "fault-injection spec, e.g. nan=0.1,inf=0.05,outlier=0.1,drop=0.1,block-after=40,seed=9,panic-drop=2,fail-attempts=1")
		checkpoint = fs.String("checkpoint", "", "crash-safe run journal path: completed cells are fsynced so an interrupted run can -resume (with -all, one journal per figure at <path>.<fig>)")
		resume     = fs.Bool("resume", false, "resume from the -checkpoint journal, skipping already-completed cells (refused if the configuration changed)")
		retries    = fs.Int("retries", 0, "re-run a failed (drop, scheme) cell up to N times before it consumes the -max-failed-drops budget")
		retryWait  = fs.Duration("retry-backoff", 0, "delay before the first retry of a cell, doubling per attempt (capped)")
		inspect    = fs.String("checkpoint-inspect", "", "print a journal's header, completed-cell count and pending cells, then exit (also accepts a -shard-dir)")
		shardDir   = fs.String("shard-dir", "", "shared directory for a multi-process sharded sweep (use with -worker-id or -merge)")
		workerID   = fs.String("worker-id", "", "compute this process's share of the -shard-dir sweep under the given worker ID")
		leaseTTL   = fs.Duration("lease-ttl", 10*time.Second, "shard lease heartbeat TTL: a cell whose lease is staler than this is stolen from its (presumed dead) worker")
		merge      = fs.Bool("merge", false, "fold the -shard-dir worker journals into one checkpoint and generate the figure from it")
		scen       = fs.Bool("scenario", false, "run the mobility scenario sweep instead of a static figure (writes scenario-time and scenario-speed CSVs)")
		workers    = fs.Int("workers", 0, "bound concurrent cells (0 = GOMAXPROCS); results are invariant to the worker count")
		speeds     = fs.String("speeds", "", "-scenario: comma-separated UE speeds in m/s (default 1,5,15,30)")
		ues        = fs.Int("ues", 0, "-scenario: UE trajectories per speed point (default 4)")
		frames     = fs.Int("frames", 0, "-scenario: superframe horizon per trajectory (default 40)")
		motion     = fs.String("motion", "", "-scenario: trajectory model, waypoint, linear or random-walk (default waypoint)")
		multipath  = fs.Bool("multipath", false, "-scenario: use the NYC clustered multipath channel")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspect != "" {
		return inspectCheckpoint(*inspect, stdout)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels the context,
	// which stops spawning cells and drains the in-flight workers; every
	// cell that finished is already fsynced to the journal, so the
	// "resume with …" hint below is honest the moment it prints. A
	// second signal kills the process the hard way (signal.NotifyContext
	// unregisters on stop).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint <path>")
	}

	if *scen {
		switch {
		case *fig != 0 || *all:
			return fmt.Errorf("-scenario is its own mode: drop -fig/-all")
		case *shardDir != "" || *workerID != "" || *merge:
			return fmt.Errorf("-scenario does not shard; use -checkpoint/-resume for crash safety")
		case *inject != "":
			return fmt.Errorf("-inject applies to the static figures only")
		}
		spd, err := parseSpeeds(*speeds)
		if err != nil {
			return err
		}
		scfg := scenario.Config{
			Seed:      *seed,
			UEs:       *ues,
			Frames:    *frames,
			SpeedsMPS: spd,
			Motion:    *motion,
			Multipath: *multipath,
			GammaDB:   *gammaDB,
			Snapshots: *snapshots,
			J:         *j,
			Mu:        *mu,
			Workers:   *workers,
		}
		if *schemes != "" {
			scfg.Schemes = splitComma(*schemes)
		}
		return runScenario(ctx, scenarioOpts{
			cfg:        scfg,
			out:        *out,
			outdir:     *outdir,
			checkpoint: *checkpoint,
			resume:     *resume,
			instrument: *instrument,
			progress:   *progress,
			counters:   *counters,
			manifest:   *manifest,
		}, stdout, stderr)
	}

	if !*all && (*fig < 5 || *fig > 8) {
		return fmt.Errorf("pass -fig 5..8 or -all")
	}
	switch {
	case *workerID != "" && *merge:
		return fmt.Errorf("pass -worker-id to compute a share or -merge to fold the results, not both")
	case (*workerID != "" || *merge) && *shardDir == "":
		return fmt.Errorf("-worker-id and -merge need -shard-dir <dir>")
	case *shardDir != "" && *workerID == "" && !*merge:
		return fmt.Errorf("-shard-dir needs -worker-id (compute a share) or -merge (fold the results)")
	}
	if *shardDir != "" {
		if *all {
			return fmt.Errorf("sharded sweeps are per figure: pass -fig, not -all")
		}
		if *checkpoint != "" || *resume {
			return fmt.Errorf("-shard-dir replaces -checkpoint/-resume: workers journal into the shard directory")
		}
	}

	cfg := experiment.Config{
		Seed:           *seed,
		Drops:          *drops,
		GammaDB:        *gammaDB,
		Snapshots:      *snapshots,
		J:              *j,
		Mu:             *mu,
		MaxFailedDrops: *maxFailed,
		MaxRetries:     *retries,
		RetryBackoff:   *retryWait,
		Workers:        *workers,
	}
	if *schemes != "" {
		cfg.Schemes = splitComma(*schemes)
	} else if *extended {
		cfg.Schemes = []string{"random", "scan", "proposed", "two-sided", "local-refine", "hierarchical"}
	}
	if *inject != "" {
		wrap, err := parseInjectSpec(*inject)
		if err != nil {
			return err
		}
		cfg.WrapSounder = wrap
	}

	if *workerID != "" {
		// Worker mode computes cells and exits; figure generation belongs
		// to the -merge invocation once the grid is (mostly) done.
		w := &shard.Worker{Dir: *shardDir, ID: *workerID, Figure: *fig, Config: cfg, TTL: *leaseTTL, Log: stderr}
		sum, err := w.Run(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "worker %s: %d cells computed (%d stolen from dead workers, %d resumed from own journal, %d failed), grid complete: %v\n",
			sum.Worker, sum.ComputedCells, sum.StolenCells, sum.ResumedCells, sum.FailedCells, sum.Complete)
		return nil
	}

	if *pprofPfx != "" {
		cf, err := os.Create(*pprofPfx + ".cpu.pprof")
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
			hf, err := os.Create(*pprofPfx + ".heap.pprof")
			if err != nil {
				fmt.Fprintln(stderr, "figgen: create heap profile:", err)
				return
			}
			if err := pprof.Lookup("heap").WriteTo(hf, 0); err != nil {
				fmt.Fprintln(stderr, "figgen: write heap profile:", err)
			}
			hf.Close()
		}()
	}

	figs := []int{*fig}
	if *all {
		figs = []int{5, 6, 7, 8}
	}
	anyFailures := false
	for _, f := range figs {
		// One recorder per figure so each manifest carries only its own
		// run's timings and counters.
		fctx := ctx
		var rec *obs.Recorder
		if *instrument {
			rec = obs.New()
			if *progress {
				rec.SetProgress(obs.ProgressPrinter(stderr, fmt.Sprintf("fig%d", f), time.Second))
			}
			if *counters {
				obs.Publish(fmt.Sprintf("figgen.fig%d", f), rec)
			}
			fctx = obs.Into(ctx, rec)
		}

		fcfg := cfg
		var shardSummary *obs.ShardSummary
		if *merge {
			res, err := shard.Merge(*shardDir, f, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "figgen: merged %d of %d cells from %d worker journals (%d duplicates, %d stolen)\n",
				res.Summary.MergedCells, res.Summary.TotalCells, len(res.Summary.Workers),
				res.Summary.DuplicateCells, res.Summary.StolenCells)
			// The merged journal is a plain checkpoint: the figure run
			// resume-skips every merged cell and computes whatever a
			// still-incomplete grid is missing, so the aggregation path is
			// the single-process one.
			want, err := experiment.JournalHeader(f, cfg)
			if err != nil {
				return err
			}
			jnl, err := journal.Open(res.JournalPath, want)
			if err != nil {
				return fmt.Errorf("open merged journal: %w", err)
			}
			defer jnl.Close()
			fcfg.Journal = jnl
			shardSummary = res.Summary
		}
		var jpath string
		if *checkpoint != "" {
			jpath = *checkpoint
			if *all {
				// One journal per figure: cells of different figures are
				// not interchangeable even when their configs hash alike.
				jpath = fmt.Sprintf("%s.fig%d", *checkpoint, f)
			}
			want, err := experiment.JournalHeader(f, cfg)
			if err != nil {
				return err
			}
			jnl, err := openCheckpoint(jpath, want, *resume, stderr)
			if err != nil {
				return err
			}
			defer jnl.Close()
			fcfg.Journal = jnl
		}

		start := time.Now()
		result, err := experiment.GenerateContext(fctx, f, fcfg)
		if err != nil {
			if ctx.Err() != nil && jpath != "" {
				// The journal is already flushed (each cell fsyncs), so
				// the hint is safe to act on immediately.
				fmt.Fprintf(stderr, "figgen: interrupted — resume with: figgen -fig %d -drops %d -seed %d -checkpoint %s -resume\n",
					f, *drops, *seed, jpath)
			}
			return err
		}
		if shardSummary != nil && result.Manifest != nil {
			result.Manifest.Shard = shardSummary
		}
		fmt.Fprintf(stdout, "== %s (%s) — %d drops, %v ==\n", result.ID, result.Title, *drops, time.Since(start).Round(time.Millisecond))
		if result.Failures != nil {
			anyFailures = true
			// Failure diagnostics belong on stderr: stdout carries the
			// figure tables that downstream tooling parses.
			fmt.Fprintf(stderr, "!! %s: %d of %d drops excluded under the error budget:\n",
				result.ID, result.Failures.FailedDrops, result.Failures.TotalDrops)
			for _, fl := range result.Failures.Failures {
				fmt.Fprintf(stderr, "!!   drop %d scheme %s: %v\n", fl.Drop, fl.Scheme, fl.Err)
			}
		}
		if err := metrics.WriteTable(stdout, result.XLabel, result.Series); err != nil {
			return err
		}
		if err := metrics.PlotASCII(stdout, result.YLabel+" vs "+result.XLabel, result.Series, 64, 14); err != nil {
			return err
		}
		if *counters && rec != nil {
			if err := rec.Snapshot().WriteText(stderr); err != nil {
				return err
			}
		}

		path := *out
		if *all || path == "" {
			path = filepath.Join(*outdir, result.ID+".csv")
		}
		if err := writeFile(path, stdout, func(w io.Writer) error {
			return metrics.WriteCSV(w, result.XLabel, result.Series)
		}); err != nil {
			return err
		}
		if *manifest && result.Manifest != nil {
			if err := writeManifest(result.Manifest, path, stdout); err != nil {
				return err
			}
		}
		if *jsonOut {
			jpath := strings.TrimSuffix(path, filepath.Ext(path)) + ".json"
			if err := writeFile(jpath, stdout, func(w io.Writer) error {
				return metrics.WriteJSON(w, result.XLabel, result.Series)
			}); err != nil {
				return err
			}
		}
		fmt.Fprintln(stdout)
	}
	if *strict && anyFailures {
		return fmt.Errorf("-strict: figure completed with failed drops")
	}
	return nil
}

// openCheckpoint attaches the checkpoint journal of one run: resuming
// validates the existing file against the run's header (a changed
// config is a refusal, not a warning), anything else starts a fresh
// journal.
func openCheckpoint(path string, want journal.Header, resume bool, stderr io.Writer) (*journal.Journal, error) {
	if !resume {
		if _, err := os.Stat(path); err == nil {
			fmt.Fprintf(stderr, "figgen: overwriting existing checkpoint %s (pass -resume to continue it)\n", path)
		}
	}
	j, resumed, err := sweep.OpenJournal(path, want, resume)
	if err != nil {
		return nil, err
	}
	switch {
	case resumed:
		if hv := j.Header().Version; hv != "" && want.Version != "" && hv != want.Version {
			// Version drift is informational: results are determined
			// by the config, which the hash already vouched for.
			fmt.Fprintf(stderr, "figgen: note: journal written by engine %s, resuming with %s\n", hv, want.Version)
		}
		fmt.Fprintf(stderr, "figgen: resuming %s from %s: %d of %d cells already complete\n",
			want.Figure, path, j.Len(), want.Drops*len(want.Schemes))
	case resume:
		fmt.Fprintf(stderr, "figgen: -resume: no journal at %s yet, starting fresh\n", path)
	}
	return j, nil
}

// writeFile creates path, fills it through write, and reports it on
// stdout.
func writeFile(path string, stdout io.Writer, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = write(fh)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// writeManifest stamps the run manifest with the engine version and
// creation time and writes it next to the CSV at csvPath.
func writeManifest(m *obs.Manifest, csvPath string, stdout io.Writer) error {
	m.Version = versionString()
	m.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	mpath := strings.TrimSuffix(csvPath, filepath.Ext(csvPath)) + ".manifest.json"
	// WriteJSON self-validates: a manifest that violates its own schema
	// fails the run rather than poisoning the audit trail.
	return writeFile(mpath, stdout, m.WriteJSON)
}

// inspectCheckpoint prints a journal's header, completion tally, and
// pending cells — the pre-flight check for deciding whether a resume
// is safe (and how much work it will save).
func inspectCheckpoint(path string, stdout io.Writer) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return inspectShardDir(path, stdout)
	}
	h, done, torn, err := journal.Inspect(path)
	if err != nil {
		return fmt.Errorf("checkpoint-inspect: %w", err)
	}
	fmt.Fprintf(stdout, "journal:      %s\n", path)
	fmt.Fprintf(stdout, "schema:       %s\n", h.Schema)
	fmt.Fprintf(stdout, "figure:       %s\n", h.Figure)
	fmt.Fprintf(stdout, "config hash:  %s\n", h.ConfigHash)
	if h.Version != "" {
		fmt.Fprintf(stdout, "engine:       %s\n", h.Version)
	}
	if h.CreatedAt != "" {
		fmt.Fprintf(stdout, "created:      %s\n", h.CreatedAt)
	}
	fmt.Fprintf(stdout, "seed:         %d\n", h.Seed)
	fmt.Fprintf(stdout, "shape:        %d drops × %d schemes (%s)\n", h.Drops, len(h.Schemes), strings.Join(h.Schemes, ","))
	total := h.Drops * len(h.Schemes)
	records := 0
	completed := make(map[journal.CellKey]bool, len(done))
	var reruns []string
	for _, st := range done {
		completed[st.CellKey] = true
		records += st.Records
		if st.Records > 1 {
			reruns = append(reruns, fmt.Sprintf("%d/%s×%d", st.Drop, st.Scheme, st.Records))
		}
	}
	fmt.Fprintf(stdout, "completed:    %d of %d cells (%d records)\n", len(done), total, records)
	if len(reruns) > 0 {
		// A cell with more than one record was re-run — a resumed retry
		// or a stolen shard lease — and resolved last-write-wins.
		fmt.Fprintf(stdout, "re-run cells: %s\n", joinCapped(reruns, 16))
	}
	if torn {
		fmt.Fprintf(stdout, "torn tail:    yes (last record was cut mid-write; resume will truncate and re-run that cell)\n")
	}
	var pending []string
	for drop := 0; drop < h.Drops; drop++ {
		for _, scheme := range h.Schemes {
			if !completed[journal.CellKey{Drop: drop, Scheme: scheme}] {
				pending = append(pending, fmt.Sprintf("%d/%s", drop, scheme))
			}
		}
	}
	if len(pending) == 0 {
		fmt.Fprintf(stdout, "pending:      none — a resume replays entirely from the journal\n")
		return nil
	}
	fmt.Fprintf(stdout, "pending:      %d cells: %s\n", len(pending), joinCapped(pending, 16))
	return nil
}

// inspectShardDir prints a sharded sweep's progress: the directory
// header, each worker journal's tally, and the distinct-cell total —
// the pre-flight check for whether a -merge will produce a complete
// figure. Because it prints the config hash and per-cell record
// counts, running it against two shard directories is how you diff
// them: same hash means the cells are interchangeable, and a cell
// with more than one record was stolen or re-run.
func inspectShardDir(dir string, stdout io.Writer) error {
	hdr, err := shard.ReadDirHeader(dir)
	if err != nil {
		return fmt.Errorf("checkpoint-inspect: %w", err)
	}
	fmt.Fprintf(stdout, "shard dir:    %s\n", dir)
	fmt.Fprintf(stdout, "schema:       %s\n", hdr.Schema)
	fmt.Fprintf(stdout, "figure:       %s\n", hdr.Figure)
	fmt.Fprintf(stdout, "config hash:  %s\n", hdr.ConfigHash)
	fmt.Fprintf(stdout, "seed:         %d\n", hdr.Seed)
	fmt.Fprintf(stdout, "shape:        %d drops × %d schemes (%s)\n", hdr.Drops, len(hdr.Schemes), strings.Join(hdr.Schemes, ","))
	paths, err := filepath.Glob(filepath.Join(dir, "journals", "*.journal"))
	if err != nil {
		return fmt.Errorf("checkpoint-inspect: %w", err)
	}
	sort.Strings(paths)
	records := make(map[journal.CellKey]int)
	for _, p := range paths {
		_, stats, torn, err := journal.Inspect(p)
		if err != nil {
			return fmt.Errorf("checkpoint-inspect: %s: %v", p, err)
		}
		n := 0
		for _, st := range stats {
			records[st.CellKey] += st.Records
			n += st.Records
		}
		note := ""
		if torn {
			note = ", torn tail"
		}
		fmt.Fprintf(stdout, "worker:       %s — %d cells (%d records%s)\n",
			strings.TrimSuffix(filepath.Base(p), ".journal"), len(stats), n, note)
	}
	total := hdr.Drops * len(hdr.Schemes)
	var reruns, pending []string
	for drop := 0; drop < hdr.Drops; drop++ {
		for _, scheme := range hdr.Schemes {
			switch n := records[journal.CellKey{Drop: drop, Scheme: scheme}]; {
			case n == 0:
				pending = append(pending, fmt.Sprintf("%d/%s", drop, scheme))
			case n > 1:
				reruns = append(reruns, fmt.Sprintf("%d/%s×%d", drop, scheme, n))
			}
		}
	}
	fmt.Fprintf(stdout, "completed:    %d of %d cells\n", total-len(pending), total)
	if len(reruns) > 0 {
		// More than one record for a cell across the worker journals is
		// the signature of a stolen lease (or a worker's own retry); the
		// merge resolves it after verifying the payloads byte-identical.
		fmt.Fprintf(stdout, "re-run cells: %s\n", joinCapped(reruns, 16))
	}
	if len(pending) == 0 {
		fmt.Fprintf(stdout, "pending:      none — a -merge produces the complete figure\n")
		return nil
	}
	fmt.Fprintf(stdout, "pending:      %d cells: %s\n", len(pending), joinCapped(pending, 16))
	return nil
}

// joinCapped renders a list space-separated, eliding past the first
// show entries.
func joinCapped(list []string, show int) string {
	if len(list) <= show {
		return strings.Join(list, " ")
	}
	return fmt.Sprintf("%s … and %d more", strings.Join(list[:show], " "), len(list)-show)
}

// parseInjectSpec converts a "key=value,..." fault spec into a
// WrapSounder hook. Probability keys nan, inf, outlier and drop are per
// measurement; block-after and seed configure blockage and the fault
// stream; panic-drop=N panics on drop N's first measurement — the knob
// the CI strict-mode smoke uses to produce a genuinely failed drop;
// fail-attempts=N makes the first N attempts of every cell panic, the
// transient fault that only a -retries budget survives;
// kill-after-cells=N SIGKILLs the process on the (N+1)-th cell's first
// measurement — the shard chaos harness's deterministic mid-cell
// worker death.
func parseInjectSpec(spec string) (func(drop int, scheme string, p meas.Prober) meas.Prober, error) {
	var fcfg faultinject.Config
	panicDrop := -1
	failAttempts := 0
	killAfter := -1
	for _, kv := range splitComma(spec) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("inject: %q is not key=value", kv)
		}
		switch key {
		case "nan", "inf", "outlier", "drop":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("inject: %s=%q is not a probability", key, val)
			}
			switch key {
			case "nan":
				fcfg.PNaN = p
			case "inf":
				fcfg.PInf = p
			case "outlier":
				fcfg.POutlier = p
			case "drop":
				fcfg.PDrop = p
			}
		case "block-after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("inject: block-after=%q is not a count", val)
			}
			fcfg.BlockAfter = n
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("inject: seed=%q is not an integer", val)
			}
			fcfg.Seed = s
		case "panic-drop":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("inject: panic-drop=%q is not a drop index", val)
			}
			panicDrop = n
		case "fail-attempts":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("inject: fail-attempts=%q is not a count", val)
			}
			failAttempts = n
		case "kill-after-cells":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("inject: kill-after-cells=%q is not a count", val)
			}
			killAfter = n
		default:
			return nil, fmt.Errorf("inject: unknown key %q", key)
		}
	}
	wrap := faultinject.Wrap(fcfg)
	var transient, killer func(drop int, scheme string, p meas.Prober) meas.Prober
	if failAttempts > 0 {
		transient = faultinject.WrapTransient(failAttempts, faultinject.TransientPanic)
	}
	if killAfter >= 0 {
		killer = faultinject.WrapKillAfter(killAfter)
	}
	return func(drop int, scheme string, p meas.Prober) meas.Prober {
		p = wrap(drop, scheme, p)
		if transient != nil {
			p = transient(drop, scheme, p)
		}
		if killer != nil {
			p = killer(drop, scheme, p)
		}
		if drop == panicDrop {
			return &panicProber{Prober: p}
		}
		return p
	}, nil
}

// panicProber crashes on the first pair measurement of its drop. The
// stochastic faults degrade gracefully inside the strategies, so this
// is the only injection that exercises the failed-drop path end to end.
type panicProber struct {
	meas.Prober
}

func (p *panicProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	panic("figgen: injected measurement panic (-inject panic-drop)")
}

// versionString identifies the source tree for the manifest: build-info
// VCS stamping when the binary carries it, git describe as the dev-tree
// fallback.
func versionString() string {
	if v := sweep.VersionString(); v != "" {
		return v
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		if v := strings.TrimSpace(string(out)); v != "" {
			return v
		}
	}
	return "unknown"
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
