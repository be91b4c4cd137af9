package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"mmwalign/internal/metrics"
)

// runContext records what a result was measured on.
type runContext struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, when the
	// build could see one; Source hashes the module's Go sources, so
	// results from a checkout without VCS data can still be told apart.
	Commit  string `json:"commit"`
	Source  string `json:"source"`
	LoadAvg string `json:"loadavg_before"`
	// Inputs hashes the workload's generated inputs for the seed.
	Inputs string `json:"inputs"`
}

func captureRunContext(workload string, seed int64) runContext {
	rc := runContext{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rc.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		rc.LoadAvg = strings.TrimSpace(string(b))
	}
	if d, err := inputDigest(workload, seed); err == nil {
		rc.Inputs = d
	}
	return rc
}

// sourceDigest hashes every .go file and go.mod under the working
// directory, which is the repository root. Unreadable trees digest to
// "unknown".
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repSample is one measured repetition of a batch workload.
type repSample struct {
	units int
	wall  time.Duration
	cpu   float64
	runs  int // repetitions a per-entry sample summarizes (perEntry)
}

// repeat runs rep until d has elapsed, and at least atLeast times, and
// returns the samples. A repetition that starts before the deadline runs
// to completion, so every sample covers the same amount of work.
func repeat(ctx context.Context, d time.Duration, atLeast int, rep func(ctx context.Context) (int, error)) ([]repSample, error) {
	var out []repSample
	deadline := time.Now().Add(d)
	for len(out) < atLeast || time.Now().Before(deadline) {
		c0, t0 := cpuSeconds(), time.Now()
		units, err := rep(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, repSample{units: units, wall: time.Since(t0), cpu: cpuSeconds() - c0})
	}
	return out, nil
}

// throughputOf is the median over repetitions of units per second.
func throughputOf(samples []repSample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s.units) / s.wall.Seconds()
	}
	return metrics.Median(xs)
}

// cpuPerUnitMS is the median over repetitions of CPU milliseconds per unit.
func cpuPerUnitMS(samples []repSample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = 1e3 * s.cpu / float64(s.units)
	}
	return metrics.Median(xs)
}

// medianWallMS is the median repetition wall time in ms.
func medianWallMS(samples []repSample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s.wall) / 1e6
	}
	return metrics.Median(xs)
}

// timedSetups runs setup n times, keeps the last instance, closes the
// others, and returns the median set-up time in seconds. Every set-up
// must reach the same reference outputs, which same() checks.
func timedSetups[T any](n int, setup func() (T, error), same func(a, b T) error, closeFn func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := setup()
		if err != nil {
			if i > 0 {
				closeFn(last)
			}
			return inst, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			err := same(last, inst)
			closeFn(last)
			if err != nil {
				closeFn(inst)
				return inst, 0, err
			}
		}
		last = inst
	}
	return last, metrics.Median(times), nil
}
