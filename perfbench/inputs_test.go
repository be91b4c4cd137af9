package main

import "testing"

// TestSeedDiscipline pins that every workload's inputs are a pure
// function of the seed: the same seed generates identical inputs, and a
// different seed generates different ones.
func TestSeedDiscipline(t *testing.T) {
	for _, w := range workloads {
		a, err := inputDigest(w.name, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := inputDigest(w.name, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := inputDigest(w.name, 8)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs: %s vs %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs %s", w.name, a)
		}
	}
}

// TestQuartilesMatchPython pins compare's quartiles to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q := quartilesOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q.q1 != 2.75 || q.median != 5.5 || q.q3 != 8.25 {
		t.Errorf("quartiles = %+v, want {2.75 5.5 8.25}", q)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	seeds := func(xs ...float64) map[int64]float64 {
		m := map[int64]float64{}
		for i, x := range xs {
			m[int64(i)] = x
		}
		return m
	}
	base := seeds(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name   string
		b      map[int64]float64
		prefix string
	}{
		{"faster everywhere", seeds(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "improved"},
		{"same", seeds(100, 100, 101, 99, 100, 101, 99, 100, 100, 100), "no worse within bound"},
		{"slower", seeds(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), "worse"},
		{"noisy", seeds(60, 140, 70, 150, 100, 60, 140, 70, 150, 100), "unresolved"},
	}
	for _, c := range cases {
		// Lower is better, as for a latency; the bound is 10%.
		v := judge(base, c.b, false, 0.10)
		if len(v.verdict) < len(c.prefix) || v.verdict[:len(c.prefix)] != c.prefix {
			t.Errorf("%s: verdict %q, want %s", c.name, v.verdict, c.prefix)
		}
	}
}
