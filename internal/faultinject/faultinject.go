// Package faultinject is the fault-injection harness behind the
// robustness test suite: it wraps a meas.Prober so that alignment
// strategies, the covariance estimator, and the experiment engine can be
// exercised against the failure modes a real sounding front end
// produces — poisoned energies (NaN/Inf), heavy-tailed outliers,
// dropped measurements, and mid-trajectory blockage — without touching
// any production code path.
//
// Injection is deterministic: the fault stream is a pure function of
// (Config.Seed, drop, scheme), so the experiment engine's worker-count
// invariance guarantee holds under injection, and a failing fuzz case
// replays from its coordinates alone.
package faultinject

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"mmwalign/internal/cmat"
	"mmwalign/internal/meas"
	"mmwalign/internal/rng"
)

// Config selects which faults to inject and how often. Probabilities
// are per pair measurement and are evaluated from one uniform draw per
// measurement (in the order NaN, Inf, Outlier, Drop), so enabling one
// fault never shifts the random stream of another.
type Config struct {
	// Seed drives the fault stream (independent of the simulation seed).
	Seed int64
	// PNaN is the probability a measurement's energy is replaced by NaN.
	PNaN float64
	// PInf is the probability a measurement's energy is replaced by +Inf.
	PInf float64
	// POutlier is the probability a measurement's energy is multiplied
	// by OutlierScale — a heavy-tailed interference spike.
	POutlier float64
	// OutlierScale is the outlier multiplier. Default 1e9.
	OutlierScale float64
	// PDrop is the probability a measurement is erased: the receiver
	// sees zero energy (sounding slot lost), not an invalid value.
	PDrop float64
	// BlockAfter, when positive, simulates a blocker moving into the
	// path: from the BlockAfter-th measurement on, the signal part of
	// every energy is attenuated by BlockLossDB.
	BlockAfter int
	// BlockLossDB is the blockage attenuation in dB. Default 30.
	BlockLossDB float64
}

// Counts tallies the faults actually injected by one Sounder.
type Counts struct {
	// Measurements is the total number of pair measurements seen.
	Measurements int
	// NaN, Inf, Outlier and Dropped count each injected fault kind.
	NaN, Inf, Outlier, Dropped int
	// Blocked counts measurements taken under blockage attenuation.
	Blocked int
}

// Total returns the number of corrupted measurements (blockage is
// attenuation, not corruption, and is counted separately).
func (c Counts) Total() int { return c.NaN + c.Inf + c.Outlier + c.Dropped }

// Sounder wraps a meas.Prober and injects the configured faults into
// pair measurements. Vector measurements, SNR ground truth, and all
// metadata delegate untouched.
type Sounder struct {
	inner meas.Prober
	cfg   Config
	src   *rng.Source
	n     int
	// Counts tallies what was injected (readable after a run).
	Counts Counts
}

// New wraps inner with the fault model of cfg, drawing the fault stream
// from src. Use Wrap for the experiment-engine seam.
func New(inner meas.Prober, cfg Config, src *rng.Source) *Sounder {
	if cfg.OutlierScale == 0 {
		cfg.OutlierScale = 1e9
	}
	if cfg.BlockLossDB == 0 {
		cfg.BlockLossDB = 30
	}
	return &Sounder{inner: inner, cfg: cfg, src: src}
}

// Wrap returns a Config.WrapSounder hook for the experiment engine: each
// (drop, scheme) cell gets an independent fault stream split from
// cfg.Seed, keeping injection deterministic regardless of worker count.
func Wrap(cfg Config) func(drop int, scheme string, p meas.Prober) meas.Prober {
	return func(drop int, scheme string, p meas.Prober) meas.Prober {
		return New(p, cfg, rng.New(cfg.Seed).SplitIndexed("faultinject-"+scheme, drop))
	}
}

// Measure implements meas.Prober, applying at most one fault per
// measurement plus blockage attenuation when active.
func (s *Sounder) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	m := s.inner.Measure(txBeam, rxBeam, u, v)
	s.n++
	s.Counts.Measurements++

	if s.cfg.BlockAfter > 0 && s.n > s.cfg.BlockAfter {
		// Attenuate the signal part only: the unit noise floor of the
		// normalized energy statistic survives blockage.
		loss := math.Pow(10, -s.cfg.BlockLossDB/10)
		if sig := m.Energy - 1; sig > 0 {
			m.Energy = 1 + sig*loss
		}
		s.Counts.Blocked++
	}

	// One uniform draw per measurement keeps fault streams independent
	// of which faults are enabled.
	draw := s.src.Float64()
	switch {
	case draw < s.cfg.PNaN:
		m.Energy = math.NaN()
		s.Counts.NaN++
	case draw < s.cfg.PNaN+s.cfg.PInf:
		m.Energy = math.Inf(1)
		s.Counts.Inf++
	case draw < s.cfg.PNaN+s.cfg.PInf+s.cfg.POutlier:
		m.Energy *= s.cfg.OutlierScale
		s.Counts.Outlier++
	case draw < s.cfg.PNaN+s.cfg.PInf+s.cfg.POutlier+s.cfg.PDrop:
		m.Energy = 0
		m.Z = 0
		s.Counts.Dropped++
	}
	return m
}

// MeasureVector implements meas.Prober (delegates; the fault model
// targets the analog pair-sounding path).
func (s *Sounder) MeasureVector(txBeam int, u cmat.Vector) meas.VectorMeasurement {
	return s.inner.MeasureVector(txBeam, u)
}

// TrueSNR implements meas.Prober.
func (s *Sounder) TrueSNR(u, v cmat.Vector) float64 { return s.inner.TrueSNR(u, v) }

// Gamma implements meas.Prober.
func (s *Sounder) Gamma() float64 { return s.inner.Gamma() }

// Snapshots implements meas.Prober.
func (s *Sounder) Snapshots() int { return s.inner.Snapshots() }

// SetSnapshots implements meas.Prober.
func (s *Sounder) SetSnapshots(k int) { s.inner.SetSnapshots(k) }

// Count implements meas.Prober.
func (s *Sounder) Count() int { return s.inner.Count() }

// TransientMode selects how WrapTransient fails an attempt.
type TransientMode int

// Transient failure modes.
const (
	// TransientPanic panics on the cell's first measurement — the
	// guaranteed-to-fail mode the retry-engine tests lean on.
	TransientPanic TransientMode = iota
	// TransientNaN poisons every measurement energy of the attempt with
	// NaN — exercises the degradation paths instead of the panic path.
	TransientNaN
)

// WrapTransient returns a Config.WrapSounder hook that makes the first
// failAttempts attempts of every (drop, scheme) cell fail in the given
// mode; later attempts pass through untouched. The experiment engine
// re-invokes the hook on each retry, which is what lets the wrapper
// count attempts — making it the canonical transient fault: a cell
// that fails deterministically on attempt 1..n and succeeds (with the
// exact result an unfaulted first attempt would have produced) from
// attempt n+1 on. Attempt counting is keyed by (drop, scheme) under a
// lock, so it is deterministic regardless of worker count.
func WrapTransient(failAttempts int, mode TransientMode) func(drop int, scheme string, p meas.Prober) meas.Prober {
	var mu sync.Mutex
	attempts := make(map[string]int)
	return func(drop int, scheme string, p meas.Prober) meas.Prober {
		key := fmt.Sprintf("%s/%d", scheme, drop)
		mu.Lock()
		attempts[key]++
		n := attempts[key]
		mu.Unlock()
		if n > failAttempts {
			return p
		}
		return &transientProber{Prober: p, mode: mode}
	}
}

// transientProber applies one attempt's worth of injected failure.
type transientProber struct {
	meas.Prober
	mode TransientMode
}

// Measure implements meas.Prober with the configured transient fault.
func (t *transientProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	switch t.mode {
	case TransientPanic:
		panic("faultinject: transient measurement fault (fails this attempt only)")
	default: // TransientNaN
		m := t.Prober.Measure(txBeam, rxBeam, u, v)
		m.Energy = math.NaN()
		return m
	}
}

// WrapKillAfter returns a Config.WrapSounder hook that SIGKILLs the
// current process on the first measurement of the (cells+1)-th cell it
// sees — the shard chaos harness's deterministic mid-cell worker
// death. Unlike TransientPanic, nothing is recovered: the process dies
// exactly as a real OOM-kill or `kill -9` would, leaving a claimed
// lease with no journal record behind, which is the state the shard
// engine's stale-lease stealing exists to clean up.
//
// Cell counting is by hook invocation (the experiment engine invokes
// WrapSounder once per cell attempt), atomically, so the kill lands on
// a deterministic cell ordinal even under concurrent workers — though
// which (drop, scheme) that ordinal maps to depends on the schedule,
// which is fine: the chaos jobs assert on recovery, not on which cell
// died.
func WrapKillAfter(cells int) func(drop int, scheme string, p meas.Prober) meas.Prober {
	return wrapKillAfter(cells, func() {
		// os.Process.Kill delivers SIGKILL on unix: no deferred
		// functions, no journal flush, no lease release.
		proc, err := os.FindProcess(os.Getpid())
		if err == nil {
			proc.Kill()
		}
		// Nothing to do if the kill fails: the wrapped measurement
		// proceeds and the chaos job's wait-for-death times out loudly.
	})
}

// wrapKillAfter is WrapKillAfter with the kill action injectable for
// tests that must survive their own assertions.
func wrapKillAfter(cells int, kill func()) func(drop int, scheme string, p meas.Prober) meas.Prober {
	var seen atomic.Int64
	return func(drop int, scheme string, p meas.Prober) meas.Prober {
		if seen.Add(1) <= int64(cells) {
			return p
		}
		return &killProber{Prober: p, kill: kill}
	}
}

// killProber kills the process on its first measurement — mid-cell,
// after the lease claim, before any journal record.
type killProber struct {
	meas.Prober
	kill func()
	once sync.Once
}

// Measure implements meas.Prober.
func (k *killProber) Measure(txBeam, rxBeam int, u, v cmat.Vector) meas.Measurement {
	k.once.Do(k.kill)
	return k.Prober.Measure(txBeam, rxBeam, u, v)
}

var _ meas.Prober = (*Sounder)(nil)
