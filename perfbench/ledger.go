package main

import (
	"fmt"
	"os"
	"time"
)

// layerMetrics are the per-layer metrics of a traced run, in
// BENCHMARK.json order. Every traced run prints all of them; a layer a
// workload does not reach reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"covest.solves", "count"},
	{"covest.iters", "count"},
	{"covest.eigen_decomps", "count"},
	{"covest.backtracks", "count"},
	{"covest.busy_s", "s"},
	{"cmat.gemm_calls", "count"},
	{"cmat.gemm_madds", "count"},
	{"cmat.gemm_busy_s", "s"},
	{"align.selection_busy_s", "s"},
	{"align.oracle_busy_s", "s"},
	{"meas.measurements", "count"},
	{"meas.busy_s", "s"},
	{"channel.busy_s", "s"},
	{"experiment.cells", "count"},
	{"experiment.unaccounted_share", "ratio"},
	{"scenario.frames", "count"},
	{"scenario.realigns", "count"},
	{"scenario.engine_busy_s", "s"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.pool_reuse", "ratio"},
	{"serve.rejected", "count"},
	{"transport.ms_p50", "ms"},
	{"loadgen.lag_ms_max", "ms"},
	{"trace.overhead_share", "ratio"},
	{"ledger.residual_share", "ratio"},
}

// layerResult completes a traced run's metrics with zeros for the layers
// the workload does not reach.
func layerResult(m metricSet, samples []repSample) result {
	out := metricSet{}
	for _, lm := range layerMetrics {
		v := m[lm.name]
		out.set(lm.name, v.Value, lm.unit)
		delete(m, lm.name)
	}
	if len(m) != 0 {
		panic(fmt.Sprintf("perfbench: per-layer metrics missing from layerMetrics: %v", m))
	}
	var attempted int64
	for _, s := range samples {
		attempted += int64(s.units)
	}
	return result{Correct: true, Attempted: attempted, Metrics: out}
}

// ledgerLine is one layer's self time: its span minus the child spans
// it covers.
type ledgerLine struct {
	layer string
	self  time.Duration
}

// printLedger writes the self-time ledger to stderr and returns the
// residual share: the part of capacity (workers × wall) no layer
// accounts for. A residual below zero beyond timer noise means the
// spans used as leaves overlap, which is reported as a failed check.
func printLedger(workload, per string, lines []ledgerLine, capacity time.Duration, workers int) (float64, error) {
	var sum time.Duration
	for _, l := range lines {
		sum += l.self
	}
	residual := 1 - float64(sum)/float64(capacity)
	fmt.Fprintf(os.Stderr, "ledger %s (self time per %s; capacity = %d workers x wall = %v)\n", workload, per, workers, capacity.Round(time.Microsecond))
	for _, l := range lines {
		fmt.Fprintf(os.Stderr, "  %-22s %12v  %6.2f%%\n", l.layer, l.self.Round(time.Microsecond), 100*float64(l.self)/float64(capacity))
	}
	fmt.Fprintf(os.Stderr, "  %-22s %12v  %6.2f%%\n", "residual", (capacity - sum).Round(time.Microsecond), 100*residual)
	if residual < -0.02 {
		return residual, &checkError{workload, "ledger leaves are disjoint", "traced run", fmt.Sprintf("layers sum to %.1f%% of capacity", 100*(1-residual))}
	}
	return residual, nil
}

// batchLedger derives the per-layer metrics of a traced batch run from
// the program's recorder phases and the timing prober. Experiment cells
// record the disjoint leaves channel, oracle, sounding, selection and
// estimation; scenario cells nest oracle, selection and estimation in
// alignment, inside frame.
func (t *tracer) batchLedger(workload string, traced []repSample, workers int) (metricSet, error) {
	r := int64(t.reps)
	per := func(ns int64) time.Duration { return time.Duration(ns / r) }
	var wall time.Duration
	for _, s := range traced {
		wall += s.wall
	}
	capacity := time.Duration(int64(wall) * int64(workers) / r)
	p := t.phases
	m := metricSet{}
	m.set("covest.solves", float64(t.first.Solver.Estimations), "count")
	m.set("covest.iters", float64(t.first.Solver.Iters), "count")
	m.set("covest.eigen_decomps", float64(t.first.Solver.EigenDecomps), "count")
	m.set("covest.backtracks", float64(t.first.Solver.Backtracks), "count")
	m.set("covest.busy_s", per(p["estimation"]).Seconds(), "s")
	m.set("align.selection_busy_s", per(p["selection"]).Seconds(), "s")
	m.set("align.oracle_busy_s", per(p["oracle"]).Seconds(), "s")

	var lines []ledgerLine
	if _, isScenario := p["frame"]; isScenario {
		m.set("scenario.frames", float64(traced[0].units), "count")
		m.set("scenario.realigns", float64(t.first.Counters["scenario_realigns"]), "count")
		engine := per(p["frame"] - p["alignment"])
		m.set("scenario.engine_busy_s", engine.Seconds(), "s")
		lines = []ledgerLine{
			{"scenario (engine)", engine},
			{"align (run+sounding)", per(p["alignment"] - p["oracle"] - p["selection"] - p["estimation"])},
			{"align.oracle", per(p["oracle"])},
			{"align.selection", per(p["selection"])},
			{"covest", per(p["estimation"])},
		}
	} else {
		measNS := t.measNS.Load()
		m.set("meas.measurements", float64(t.repMeasN), "count")
		m.set("meas.busy_s", per(measNS).Seconds(), "s")
		m.set("channel.busy_s", per(p["channel"]).Seconds(), "s")
		m.set("experiment.cells", float64(traced[0].units), "count")
		lines = []ledgerLine{
			{"channel", per(p["channel"])},
			{"align.oracle", per(p["oracle"])},
			{"align.selection", per(p["selection"])},
			{"covest", per(p["estimation"])},
			{"meas", per(measNS)},
			{"trace (sounding span)", per(p["sounding"] - measNS)},
		}
	}
	residual, err := printLedger(workload, "repetition", lines, capacity, workers)
	if err != nil {
		return nil, err
	}
	if _, isScenario := p["frame"]; !isScenario {
		m.set("experiment.unaccounted_share", residual, "ratio")
	}
	m.set("ledger.residual_share", residual, "ratio")
	return m, nil
}
