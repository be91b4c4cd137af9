package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of untraced result records (written with
// --out) metric by metric and prints, per workload, each side's median
// and quartiles and a verdict:
//
//   - improved: at least ten seed-paired runs, B wins at least nine
//     tenths of the pairs (ties count for neither), and the medians
//     differ by more than A's interquartile distance;
//   - no worse within bound: B's median is not worse than A's by more
//     than the metric's bound;
//   - unresolved: either side's spread (interquartile distance over
//     median) exceeds the bound, unless every B run beats every A run;
//   - worse: B's median is worse than A's by more than the bound.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [--spec BENCHMARK.json] <dir-A> <dir-B>")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("no workload has untraced records on both sides")
	}
	fmt.Fprintf(w, "%-10s %-16s %-34s %-34s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl].values(m.Name), b[wl].values(m.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-10s %-16s too few runs (A %d, B %d)\n", wl, m.Name, len(va), len(vb))
				continue
			}
			v := judge(va, vb, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-10s %-16s %-34s %-34s %s\n", wl, m.Name, quartileText(v.a), quartileText(v.b), v.verdict)
		}
	}
	return nil
}

// runSet is one side's untraced runs of a workload, keyed by seed.
type runSet map[int64]result

func (rs runSet) values(metric string) map[int64]float64 {
	out := map[int64]float64{}
	for seed, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out[seed] = m.Value
		}
	}
	return out
}

func loadRecords(dir string) (map[string]runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]runSet{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace || !r.Result.Correct {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = runSet{}
		}
		out[r.Workload][r.Seed] = r.Result
	}
	return out, nil
}

type quartiles struct{ q1, median, q3 float64 }

func quartileText(q quartiles) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q.median, q.q1, q.q3)
}

// quartilesOf matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method.
func quartilesOf(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return quartiles{q1: cut(1), median: cut(2), q3: cut(3)}
}

type judgement struct {
	a, b    quartiles
	verdict string
}

func judge(va, vb map[int64]float64, higher bool, bound float64) judgement {
	list := func(v map[int64]float64) []float64 {
		var xs []float64
		for _, x := range v {
			xs = append(xs, x)
		}
		return xs
	}
	xa, xb := list(va), list(vb)
	j := judgement{a: quartilesOf(xa), b: quartilesOf(xb)}
	better := func(x, y float64) bool { // x reads better than y
		if higher {
			return x > y
		}
		return x < y
	}
	// worseBy is how much B's median is worse than A's, as a share of A's.
	worseBy := 0.0
	if j.a.median != 0 {
		worseBy = (j.b.median - j.a.median) / math.Abs(j.a.median)
		if higher {
			worseBy = -worseBy
		}
	} else if j.b.median != 0 {
		worseBy = math.Inf(1)
	}
	pairs, wins := 0, 0
	for seed, x := range va {
		if y, ok := vb[seed]; ok {
			pairs++
			if better(y, x) {
				wins++
			}
		}
	}
	allBetter := true
	for _, y := range xb {
		for _, x := range xa {
			if !better(y, x) {
				allBetter = false
			}
		}
	}
	spread := func(q quartiles) float64 {
		if q.median == 0 {
			return 0
		}
		return (q.q3 - q.q1) / math.Abs(q.median)
	}
	switch {
	case pairs >= 10 && 10*wins >= 9*pairs && better(j.b.median, j.a.median) && math.Abs(j.b.median-j.a.median) > j.a.q3-j.a.q1:
		j.verdict = fmt.Sprintf("improved (%d/%d pairs)", wins, pairs)
	case spread(j.a) > bound || spread(j.b) > bound:
		if allBetter {
			j.verdict = "no worse within bound (every B run better)"
		} else {
			j.verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f > bound %.3f)", spread(j.a), spread(j.b), bound)
		}
	case worseBy <= bound:
		j.verdict = fmt.Sprintf("no worse within bound (%+.3f, bound %.3f)", worseBy, bound)
	default:
		j.verdict = fmt.Sprintf("worse (%+.3f > bound %.3f)", worseBy, bound)
	}
	return j
}
