// Command perfbench is the repository benchmark. It runs one named
// workload on inputs generated from a seed, measures it for a fixed
// time, checks that every output is correct, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	perfbench --workload mobility --seed 1 --seconds 35 --trace 0
//	perfbench compare [--spec BENCHMARK.json] <dir-A> <dir-B>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer ledger instead, timed from outside the program
// at the seams the packages export. README.md in this directory gives
// each workload's reason and the metric-to-layer table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed is the seed whose fidelity values are recorded in
// fidelity.go. The fidelity canaries always run on it.
const defaultSeed = 1

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named traffic mix. run measures it and returns the
// result; an error means a correctness check failed or the program
// could not run.
type workload struct {
	name string
	run  func(ctx context.Context, o options) (result, error)
}

var workloads = []workload{
	{name: "baselines", run: runBaselines},
	{name: "mobility", run: runMobility},
	{name: "serve", run: runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checkError is a failed correctness check, attributed to the workload,
// the check and the unit of work that failed it.
type checkError struct {
	workload, check, unit, detail string
}

func (e *checkError) Error() string {
	return fmt.Sprintf("workload %s: check %s failed on %s: %s", e.workload, e.check, e.unit, e.detail)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: baselines, mobility or serve")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 35, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	flag.StringVar(&o.out, "out", "", "directory to also write the result record to (for compare)")
	flag.Parse()
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (baselines|mobility|serve), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}

	rc := captureRunContext(o.workload, o.seed)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := w.run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *checkError
		if errors.As(err, &ce) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Context: rc, Result: res}
	ctxLine, _ := json.Marshal(rc)
	fmt.Printf("run context: %s\n", ctxLine)
	if o.out != "" {
		if err := rec.write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// record is one run as saved by --out and read by compare.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Trace    bool       `json:"trace"`
	Context  runContext `json:"context"`
	Result   result     `json:"result"`
}

func (r record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// metricSet accumulates named metrics for a result.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
