// Command beamalign runs a single beam-alignment experiment from the
// command line and reports the selected pair and its quality.
//
// Usage:
//
//	beamalign -scheme proposed -budget 150 -channel multipath -seed 7
//	beamalign -scheme random -rate 0.15 -v
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"mmwalign"
	"mmwalign/internal/align"
	"mmwalign/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "beamalign:", err)
		os.Exit(1)
	}
}

// backoff returns the capped exponential retry delay: base doubling
// per attempt, capped at 100× base.
func backoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < 100*base; i++ {
		d *= 2
	}
	if d > 100*base {
		d = 100 * base
	}
	return d
}

func run() error {
	var (
		scheme    = flag.String("scheme", "proposed", "alignment scheme: "+strings.Join(align.SchemeNames(), "|"))
		budget    = flag.Int("budget", 0, "measurement budget in beam pairs (overrides -rate)")
		rate      = flag.Float64("rate", 0.15, "measurement budget as a fraction of all pairs")
		chKind    = flag.String("channel", "singlepath", "channel model: singlepath|multipath")
		seed      = flag.Int64("seed", 1, "random seed")
		snrDB     = flag.Float64("snr", 0, "pre-beamforming SNR Es/N0 in dB")
		snapshots = flag.Int("snapshots", 4, "snapshots per measurement")
		j         = flag.Int("j", 0, fmt.Sprintf("measurements per TX slot (proposed; 0 = %d)", align.SchemeSpec{}.WithDefaults().J))
		verbose   = flag.Bool("v", false, "print the loss trajectory")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		maxFailed = flag.Int("max-failed-drops", 0, "retry budget: re-run a failed alignment up to this many times with fresh randomness")
		retries   = flag.Int("retries", 0, "alias for the retry budget (takes precedence over -max-failed-drops when set)")
		retryWait = flag.Duration("retry-backoff", 0, "delay before the first retry, doubling per attempt (capped at 100x)")
		progress  = flag.Bool("progress", true, "print a live heartbeat on stderr while a long run is in flight")
		counters  = flag.Bool("counters", false, "print phase timings, counters and solver aggregates to stderr and publish them via expvar")
		pprofPfx  = flag.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles")
	)
	flag.Parse()

	// Graceful shutdown: SIGINT/SIGTERM cancels the run at the next
	// measurement or estimation boundary instead of killing the process
	// mid-solve; a second signal kills it the hard way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
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
				fmt.Fprintln(os.Stderr, "beamalign: create heap profile:", err)
				return
			}
			if err := pprof.Lookup("heap").WriteTo(hf, 0); err != nil {
				fmt.Fprintln(os.Stderr, "beamalign: write heap profile:", err)
			}
			hf.Close()
		}()
	}

	// The recorder rides the context into the alignment strategies; the
	// snapshot is safe to read concurrently, which is what the heartbeat
	// goroutine does for runs long enough to wonder about.
	rec := obs.New()
	ctx = obs.Into(ctx, rec)
	if *counters {
		obs.Publish("beamalign", rec)
	}
	if *progress {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					snap := rec.Snapshot()
					fmt.Fprintf(os.Stderr, "beamalign: %d estimations, %v elapsed\n",
						snap.Solver.Estimations, time.Duration(snap.ElapsedNS).Round(100*time.Millisecond))
				}
			}
		}()
	}

	spec := mmwalign.LinkSpec{Seed: *seed, SNRdB: *snrDB, Snapshots: *snapshots}
	switch *chKind {
	case "singlepath":
		spec.Channel = mmwalign.ChannelSinglePath
	case "multipath":
		spec.Channel = mmwalign.ChannelNYCMultipath
	default:
		return fmt.Errorf("unknown channel %q", *chKind)
	}

	link, err := mmwalign.NewLink(spec)
	if err != nil {
		return err
	}
	b := *budget
	if b == 0 {
		b = int(math.Ceil(*rate * float64(link.TotalPairs())))
	}

	// Each retry re-runs on the same channel with fresh measurement noise
	// and strategy randomness; cancellation and deadline errors are not
	// retryable.
	budgetRetries := *maxFailed
	if *retries > 0 {
		budgetRetries = *retries
	}
	var res mmwalign.Result
	for attempt := 0; ; attempt++ {
		res, err = link.AlignContext(ctx, mmwalign.Scheme(*scheme), b, mmwalign.AlignOptions{J: *j})
		if err == nil {
			break
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if errors.Is(err, context.Canceled) {
				return fmt.Errorf("interrupted: %w", err)
			}
			return fmt.Errorf("timed out after %v: %w", *timeout, err)
		}
		if attempt >= budgetRetries {
			return err
		}
		fmt.Fprintf(os.Stderr, "beamalign: attempt %d failed (%v), retrying\n", attempt+1, err)
		if delay := backoff(*retryWait, attempt); delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("interrupted during retry backoff: %w", ctx.Err())
			case <-t.C:
			}
		}
	}

	if *counters {
		if err := rec.Snapshot().WriteText(os.Stderr); err != nil {
			return err
		}
	}

	fmt.Printf("scheme:        %s\n", res.Scheme)
	fmt.Printf("budget:        %d of %d pairs (%.1f%%)\n", res.Measurements, link.TotalPairs(), 100*res.SearchRate)
	fmt.Printf("selected pair: TX beam %d (az %+.1f°, el %+.1f°), RX beam %d (az %+.1f°, el %+.1f°)\n",
		res.TXBeam, res.TXAzDeg, res.TXElDeg, res.RXBeam, res.RXAzDeg, res.RXElDeg)
	fmt.Printf("true SNR:      %.2f dB\n", res.TrueSNRdB)
	fmt.Printf("optimal SNR:   %.2f dB\n", res.OptimalSNRdB)
	fmt.Printf("SNR loss:      %.2f dB\n", res.LossDB)
	if *verbose {
		fmt.Println("\nloss trajectory (dB):")
		for i, l := range res.LossTrajectoryDB {
			if (i+1)%8 == 0 || i == len(res.LossTrajectoryDB)-1 {
				if math.IsInf(l, 1) {
					fmt.Printf("  after %4d measurements: (no pair yet)\n", i+1)
				} else {
					fmt.Printf("  after %4d measurements: %6.2f\n", i+1, l)
				}
			}
		}
	}
	return nil
}
