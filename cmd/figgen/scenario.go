package main

// The -scenario mode: mobility sweeps through internal/scenario with
// the same production substrate as the figure runs — checkpoint
// journal, resume, run manifest, progress — emitting two CSVs
// (throughput-vs-time and throughput-vs-speed) instead of one.

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"time"

	"mmwalign/internal/metrics"
	"mmwalign/internal/obs"
	"mmwalign/internal/scenario"
)

// scenarioOpts carries the flag values the scenario path consumes.
type scenarioOpts struct {
	cfg        scenario.Config
	out        string
	outdir     string
	checkpoint string
	resume     bool
	instrument bool
	progress   bool
	counters   bool
	manifest   bool
}

// parseSpeeds converts a comma-separated speed list to m/s values.
func parseSpeeds(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	var out []float64
	for _, s := range splitComma(spec) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-speeds: %q is not a non-negative speed", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// runScenario executes the mobility sweep and writes its two CSVs, the
// manifest, and the terminal tables.
func runScenario(ctx context.Context, o scenarioOpts, stdout, stderr io.Writer) error {
	sctx := ctx
	var rec *obs.Recorder
	if o.instrument {
		rec = obs.New()
		if o.progress {
			rec.SetProgress(obs.ProgressPrinter(stderr, "scenario", time.Second))
		}
		if o.counters {
			obs.Publish("figgen.scenario", rec)
		}
		sctx = obs.Into(ctx, rec)
	}

	var jpath string
	if o.checkpoint != "" {
		jpath = o.checkpoint
		jnl, err := openCheckpoint(jpath, scenario.JournalHeader(o.cfg), o.resume, stderr)
		if err != nil {
			return err
		}
		defer jnl.Close()
		o.cfg.Journal = jnl
	}

	start := time.Now()
	res, err := scenario.RunContext(sctx, o.cfg)
	if err != nil {
		if ctx.Err() != nil && jpath != "" {
			fmt.Fprintf(stderr, "figgen: interrupted — resume with: figgen -scenario -seed %d -checkpoint %s -resume\n",
				o.cfg.Seed, jpath)
		}
		return err
	}

	rc := o.cfg.WithDefaults()
	fmt.Fprintf(stdout, "== scenario — %d speeds × %d UEs × %d schemes, %d frames, %v ==\n",
		len(rc.SpeedsMPS), rc.UEs, len(rc.Schemes), rc.Frames, time.Since(start).Round(time.Millisecond))

	timePath := o.out
	if timePath == "" {
		timePath = filepath.Join(o.outdir, res.Time.ID+".csv")
	}
	speedPath := siblingPath(timePath, res.Speed.ID)

	for _, fig := range []struct {
		f    scenario.Figure
		path string
	}{{res.Time, timePath}, {res.Speed, speedPath}} {
		fmt.Fprintf(stdout, "-- %s (%s)\n", fig.f.ID, fig.f.Title)
		if err := metrics.WriteTable(stdout, fig.f.XLabel, fig.f.Series); err != nil {
			return err
		}
		if err := metrics.PlotASCII(stdout, fig.f.YLabel+" vs "+fig.f.XLabel, fig.f.Series, 64, 14); err != nil {
			return err
		}
		if err := writeFile(fig.path, stdout, func(w io.Writer) error {
			return metrics.WriteCSV(w, fig.f.XLabel, fig.f.Series)
		}); err != nil {
			return err
		}
	}

	if o.counters && rec != nil {
		if err := rec.Snapshot().WriteText(stderr); err != nil {
			return err
		}
	}

	if o.manifest && res.Manifest != nil {
		return writeManifest(res.Manifest, timePath, stdout)
	}
	return nil
}

// siblingPath derives the second CSV's path from the first: the speed
// figure lands next to the time figure under its own figure ID.
func siblingPath(timePath, id string) string {
	return filepath.Join(filepath.Dir(timePath), id+".csv")
}
