// Command benchdiff records and compares benchmark baselines for the
// solver hot path and the figure regenerations.
//
// It runs the shared workloads of internal/benchsuite in-process via
// testing.Benchmark and persists ns/op, allocs/op, bytes/op, and every
// fidelity metric the workload reports (loss_dB, rate_at_3dB,
// objective, …) to BENCH_<name>.json. A later run with -compare checks
// the current tree against those baselines and exits non-zero on any
// speed, allocation, or fidelity regression — the CI gate that keeps
// the hot path honest.
//
// Usage:
//
//	benchdiff -record                 # write BENCH_<name>.json for the default set
//	benchdiff -compare                # compare current tree against the baselines
//	benchdiff -record -bench estimate,eigen -dir .
//	benchdiff -compare -ns-tol 0.25 -alloc-tol 0.05
//
// Fidelity metrics are deterministic functions of the seeded workloads,
// so their tolerance defaults are tight; timing tolerances default
// looser because wall-clock benchmarks are noisy. Metrics with an _ns
// suffix (the serve workload's latency percentiles) are wall-clock too
// and are compared relatively under -lat-tol instead of the fidelity
// drift tolerances.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"mmwalign/internal/benchsuite"
)

// Baseline is the persisted benchmark record for one workload.
type Baseline struct {
	Name        string             `json:"name"`
	Desc        string             `json:"desc,omitempty"`
	GoVersion   string             `json:"go_version,omitempty"`
	RecordedAt  string             `json:"recorded_at,omitempty"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func baselinePath(dir, name string) string {
	return filepath.Join(dir, "BENCH_"+name+".json")
}

// defaultSet is the workload list used when -bench is not given. It
// covers both hot-path kernels and one single-path figure of each kind;
// the multipath figures are available by name.
var defaultSet = []string{"estimate", "eigen", "gemm", "codebook", "serve", "overload", "multicell", "scenario", "fig5", "fig7"}

func main() {
	var (
		record   = flag.Bool("record", false, "run the workloads and write BENCH_<name>.json baselines")
		compare  = flag.Bool("compare", false, "run the workloads and compare against existing baselines")
		list     = flag.Bool("list", false, "list available workloads and exit")
		dir      = flag.String("dir", ".", "directory holding the BENCH_<name>.json files")
		benches  = flag.String("bench", "", "comma-separated workload names (default: "+strings.Join(defaultSet, ",")+")")
		nsTol    = flag.Float64("ns-tol", 0.25, "allowed relative ns/op regression before failing")
		allocTol = flag.Float64("alloc-tol", 0.10, "allowed relative allocs/op regression before failing")
		metRel   = flag.Float64("metric-rel-tol", 0.05, "allowed relative fidelity-metric drift")
		metAbs   = flag.Float64("metric-abs-tol", 0.05, "allowed absolute fidelity-metric drift")
		latTol   = flag.Float64("lat-tol", 1.5, "allowed relative regression for _ns latency metrics (wall-clock percentiles are noisy)")
	)
	flag.Parse()

	if *list {
		for _, w := range benchsuite.All() {
			fmt.Printf("%-10s %s\n", w.Name, w.Desc)
		}
		return
	}
	if *record == *compare {
		fmt.Fprintln(os.Stderr, "benchdiff: exactly one of -record or -compare is required")
		flag.Usage()
		os.Exit(2)
	}

	names := defaultSet
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	// allocs/op depends on the processor count: the GEMM kernels fan
	// out across goroutines (and allocate for it) only when GOMAXPROCS
	// is at least 2. The committed baselines were recorded at 1.
	fmt.Printf("benchdiff: GOMAXPROCS=%d, %s\n", runtime.GOMAXPROCS(0), runtime.Version())
	failed := false
	for _, name := range names {
		name = strings.TrimSpace(name)
		w, ok := benchsuite.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchdiff: unknown workload %q (use -list)\n", name)
			os.Exit(2)
		}
		cur := run(w)
		if *record {
			if err := writeBaseline(*dir, cur); err != nil {
				fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("recorded %s: %.0f ns/op, %d allocs/op, %d B/op%s\n",
				baselinePath(*dir, cur.Name), cur.NsPerOp, cur.AllocsPerOp, cur.BytesPerOp, metricString(cur.Metrics))
			continue
		}
		base, err := readBaseline(*dir, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v (run -record first)\n", err)
			failed = true
			continue
		}
		if !diff(os.Stdout, base, cur, *nsTol, *allocTol, *metRel, *metAbs, *latTol) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// run executes one workload in-process and converts the result.
func run(w benchsuite.Workload) Baseline {
	res := testing.Benchmark(w.Func)
	b := Baseline{
		Name:        w.Name,
		Desc:        w.Desc,
		GoVersion:   runtime.Version(),
		RecordedAt:  time.Now().UTC().Format(time.RFC3339),
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	if len(res.Extra) > 0 {
		b.Metrics = make(map[string]float64, len(res.Extra))
		for k, v := range res.Extra {
			b.Metrics[k] = v
		}
	}
	return b
}

func writeBaseline(dir string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(baselinePath(dir, b.Name), append(data, '\n'), 0o644)
}

func readBaseline(dir, name string) (Baseline, error) {
	data, err := os.ReadFile(baselinePath(dir, name))
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("parsing %s: %w", baselinePath(dir, name), err)
	}
	return b, nil
}

// diff prints a comparison and reports whether the current run is within
// tolerance of the baseline.
func diff(out io.Writer, base, cur Baseline, nsTol, allocTol, metRel, metAbs, latTol float64) bool {
	ok := true
	fmt.Fprintf(out, "%s:\n", base.Name)
	nsDelta := relDelta(cur.NsPerOp, base.NsPerOp)
	fmt.Fprintf(out, "  ns/op     %12.0f -> %12.0f  (%s)%s\n",
		base.NsPerOp, cur.NsPerOp, nsDelta, verdict(nsDelta.exceeds(nsTol)))
	if nsDelta.exceeds(nsTol) {
		ok = false
	}
	allocDelta := relDelta(float64(cur.AllocsPerOp), float64(base.AllocsPerOp))
	fmt.Fprintf(out, "  allocs/op %12d -> %12d  (%s)%s\n",
		base.AllocsPerOp, cur.AllocsPerOp, allocDelta, verdict(allocDelta.exceeds(allocTol)))
	if allocDelta.exceeds(allocTol) {
		ok = false
	}
	fmt.Fprintf(out, "  B/op      %12d -> %12d  (%s)\n",
		base.BytesPerOp, cur.BytesPerOp, relDelta(float64(cur.BytesPerOp), float64(base.BytesPerOp)))

	keys := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bv := base.Metrics[k]
		cv, present := cur.Metrics[k]
		if !present {
			fmt.Fprintf(out, "  %-9s missing in current run  FAIL\n", k)
			ok = false
			continue
		}
		// _ns-suffixed metrics are wall-clock latency percentiles: they
		// flap far beyond the tight fidelity tolerances, so they get the
		// timing-style relative comparison under -lat-tol instead.
		if strings.HasSuffix(k, "_ns") {
			d := relDelta(cv, bv)
			fmt.Fprintf(out, "  %-9s %12.0f -> %12.0f  (%s)%s\n", k, bv, cv, d, verdict(d.exceeds(latTol)))
			if d.exceeds(latTol) {
				ok = false
			}
			continue
		}
		// A NaN on either side makes the drift NaN, and a NaN drift
		// compares false against both tolerances — which would silently
		// PASS a workload that produced garbage. Non-finite values fail
		// hard, with explicit text.
		if !isFinite(cv) || !isFinite(bv) {
			fmt.Fprintf(out, "  %-9s %12.4g -> %12.4g  non-finite value  FAIL\n", k, bv, cv)
			ok = false
			continue
		}
		drift := math.Abs(cv - bv)
		bad := drift > metAbs && drift > metRel*math.Abs(bv)
		fmt.Fprintf(out, "  %-9s %12.4g -> %12.4g  (drift %.3g)%s\n", k, bv, cv, drift, verdict(bad))
		if bad {
			ok = false
		}
	}
	return ok
}

// delta is the baseline→current change of one benchmark quantity. A
// zero baseline has no meaningful relative change — a zero-alloc hot
// path (the solver since the allocation-free rewrite) that starts
// allocating again would otherwise print "+Inf%" — so the zero→nonzero
// case is carried explicitly and reported as an absolute regression.
// A NaN or Inf on either side is carried explicitly too: NaN poisons
// every comparison to false, so `rel > tol` on a NaN delta would read
// as "within tolerance" and silently PASS the exact runs a regression
// gate exists to catch.
type delta struct {
	// rel is (cur-base)/base, valid only when !fromZero && !nonFinite.
	rel float64
	// fromZero marks a nonzero current value against a zero baseline.
	fromZero bool
	// nonFinite marks a NaN/Inf baseline or current value; always a
	// hard failure.
	nonFinite bool
	// abs is cur-base, used to report fromZero regressions.
	abs float64
}

// relDelta compares cur against base; 0→0 is a clean 0% change, 0→k a
// fromZero regression, and any NaN/Inf input a nonFinite hard failure.
// The rel/abs fields are never Inf or NaN.
func relDelta(cur, base float64) delta {
	if !isFinite(cur) || !isFinite(base) {
		return delta{nonFinite: true}
	}
	d := delta{abs: cur - base}
	switch {
	case base != 0:
		d.rel = (cur - base) / base
	case cur != 0:
		d.fromZero = true
	}
	return d
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// exceeds reports whether the change is a regression beyond tol. Any
// growth from a zero baseline is a regression: no finite tolerance can
// express "some fraction of zero". Any non-finite value is a
// regression: a NaN ns/op or metric means the workload (or its
// baseline file) is broken, and must never pass the gate by poisoned
// comparison.
func (d delta) exceeds(tol float64) bool {
	if d.nonFinite || d.fromZero {
		return true
	}
	return d.rel > tol
}

// String renders the change for the diff table.
func (d delta) String() string {
	if d.nonFinite {
		return "non-finite value"
	}
	if d.fromZero {
		return fmt.Sprintf("%+g from zero baseline", d.abs)
	}
	return fmt.Sprintf("%+.1f%%", 100*d.rel)
}

// metricString renders the fidelity metrics for -record output.
func metricString(metrics map[string]float64) string {
	if len(metrics) == 0 {
		return ""
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, ", %s=%.4g", k, metrics[k])
	}
	return sb.String()
}

func verdict(bad bool) string {
	if bad {
		return "  FAIL"
	}
	return ""
}
