package experiment

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"mmwalign/internal/align"
)

// tinyConfig keeps experiment tests fast: 2x2/4x4 arrays, 8x16 books
// (T = 128), few drops.
func tinyConfig(multipath bool) Config {
	return Config{
		Seed:  42,
		Drops: 3,
		TXx:   2, TXz: 2, RXx: 4, RXz: 4,
		TXBookAz: 4, TXBookEl: 2, RXBookAz: 4, RXBookEl: 4,
		GammaDB:     0,
		Snapshots:   4,
		J:           4,
		Multipath:   multipath,
		SearchRates: []float64{0.1, 0.2, 0.3},
		TargetsDB:   []float64{1, 3},
		Schemes:     []string{"random", "proposed"},
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Drops != 100 || c.TXx != 4 || c.RXx != 8 || c.J != 8 {
		t.Errorf("unexpected defaults: %+v", c)
	}
	if len(c.SearchRates) == 0 || len(c.TargetsDB) == 0 || len(c.Schemes) != 3 {
		t.Errorf("sweep defaults missing: %+v", c)
	}
	if got := c.totalPairs(); got != 16*64 {
		t.Errorf("totalPairs = %d, want 1024", got)
	}
}

func TestSearchEffectivenessShape(t *testing.T) {
	fig, err := SearchEffectivenessContext(context.Background(), tinyConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig5" {
		t.Errorf("ID = %q, want fig5", fig.ID)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(fig.Series))
	}
	for _, s := range fig.Series {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(s.X) != 3 {
			t.Fatalf("series %s has %d points, want 3", s.Name, len(s.X))
		}
		for i, y := range s.Y {
			if y < 0 || math.IsNaN(y) {
				t.Errorf("series %s point %d invalid loss %g", s.Name, i, y)
			}
		}
	}
}

func TestSearchEffectivenessMultipathID(t *testing.T) {
	fig, err := SearchEffectivenessContext(context.Background(), tinyConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig6" {
		t.Errorf("ID = %q, want fig6", fig.ID)
	}
}

func TestCostEfficiencyShape(t *testing.T) {
	fig, err := CostEfficiencyContext(context.Background(), tinyConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig7" {
		t.Errorf("ID = %q, want fig7", fig.ID)
	}
	for _, s := range fig.Series {
		if len(s.Y) != 2 {
			t.Fatalf("series %s has %d targets", s.Name, len(s.Y))
		}
		for i, y := range s.Y {
			if y <= 0 || y > 1 {
				t.Errorf("series %s target %d rate %g outside (0,1]", s.Name, i, y)
			}
		}
		// A looser target can never require more measurements.
		if s.Y[1] > s.Y[0]+1e-12 {
			t.Errorf("series %s: rate for 3dB (%g) exceeds rate for 1dB (%g)", s.Name, s.Y[1], s.Y[0])
		}
	}
}

func TestGenerateDispatch(t *testing.T) {
	cfg := tinyConfig(false)
	ids := map[int]string{5: "fig5", 6: "fig6", 7: "fig7", 8: "fig8"}
	for figNum, wantID := range ids {
		fig, err := GenerateContext(context.Background(), figNum, cfg)
		if err != nil {
			t.Fatalf("fig %d: %v", figNum, err)
		}
		if fig.ID != wantID {
			t.Errorf("GenerateContext(%d).ID = %q, want %q", figNum, fig.ID, wantID)
		}
	}
	if _, err := GenerateContext(context.Background(), 4, cfg); err == nil {
		t.Error("GenerateContext(4) should fail")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := tinyConfig(false)
	a, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := range a.Series {
		for i := range a.Series[si].Y {
			if a.Series[si].Y[i] != b.Series[si].Y[i] {
				t.Fatalf("series %s point %d differs across identical runs", a.Series[si].Name, i)
			}
		}
	}
}

// TestWorkerCountInvariance pins the concurrency contract of the drop
// runner: rng splits are pure functions of (seed, name) and results are
// buffered and visited in order, so the trajectories must be
// bit-identical — not merely close — regardless of how many workers
// execute them.
func TestWorkerCountInvariance(t *testing.T) {
	collect := func(workers int) []align.Trajectory {
		cfg := tinyConfig(false)
		cfg.Workers = workers
		var trs []align.Trajectory
		_, _, err := trajectories(context.Background(), cfg, 32, func(scheme string, drop int, tr align.Trajectory) {
			trs = append(trs, tr)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return trs
	}
	serial := collect(1)
	parallel := collect(8)
	if len(serial) != len(parallel) {
		t.Fatalf("trajectory count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Scheme != b.Scheme || a.OptPair != b.OptPair || a.BestPair != b.BestPair {
			t.Fatalf("trajectory %d identity differs: %+v vs %+v", i, a, b)
		}
		if a.OptSNR != b.OptSNR || a.BestMeasuredSNR != b.BestMeasuredSNR || a.BestTrueSNR != b.BestTrueSNR {
			t.Fatalf("trajectory %d SNR fields differ bitwise", i)
		}
		if len(a.LossDB) != len(b.LossDB) {
			t.Fatalf("trajectory %d loss length differs: %d vs %d", i, len(a.LossDB), len(b.LossDB))
		}
		for l := range a.LossDB {
			if a.LossDB[l] != b.LossDB[l] {
				t.Fatalf("trajectory %d (%s) loss[%d] differs bitwise: %v vs %v",
					i, a.Scheme, l, a.LossDB[l], b.LossDB[l])
			}
		}
	}
}

// TestUnknownSchemeRejected pins that a name outside
// align.SchemeNames(), or an estimator knob align.ForScheme refuses, is
// a configuration error: the sweep returns at once with one plain
// error, and no cell runs, retries or waits out its backoff.
func TestUnknownSchemeRejected(t *testing.T) {
	for _, tc := range []struct {
		schemes []string
		j       int
		want    string
	}{
		{[]string{"random", "bogus"}, 0, "unknown scheme"},
		{[]string{"random", "proposed"}, -3, "j -3"},
	} {
		cfg := tinyConfig(false)
		cfg.Schemes, cfg.J = tc.schemes, tc.j
		cfg.MaxRetries = 3
		cfg.RetryBackoff = time.Hour
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		fig, err := SearchEffectivenessContext(ctx, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want one naming %q", tc.want, err, tc.want)
		}
		if ctx.Err() != nil || time.Since(start) > 5*time.Second {
			t.Fatalf("%s: rejection took %v: cells ran and retried", tc.want, time.Since(start))
		}
		cancel()
		if fig.Failures != nil {
			t.Errorf("%s: Failures = %+v, want none: no cell should run", tc.want, fig.Failures)
		}
		if _, err := JournalHeader(5, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: JournalHeader err = %v, want one naming %q", tc.want, err, tc.want)
		}
	}
}

// TestEverySchemeNameRuns pins that a figure sweep builds its
// strategies through align.ForScheme: every name it lists runs.
func TestEverySchemeNameRuns(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.Drops = 1
	cfg.Schemes = align.SchemeNames()
	fig, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(cfg.Schemes) {
		t.Errorf("got %d series, want %d", len(fig.Series), len(cfg.Schemes))
	}
}

func TestHierarchicalSchemeSupported(t *testing.T) {
	cfg := tinyConfig(false)
	cfg.Schemes = []string{"hierarchical"}
	fig, err := SearchEffectivenessContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || fig.Series[0].Name != "hierarchical" {
		t.Errorf("unexpected series: %+v", fig.Series)
	}
}

// TestProposedBeatsBaselinesIntegration is the reproduction's headline
// integration check: at the paper's full problem size (4×4/8×8 arrays,
// T = 1024 pairs) the proposed scheme's mean loss at a moderate search
// rate must beat Random and Scan on both channel types — the Fig. 5/6
// ordering. The advantage is specific to large beam spaces: on tiny
// codebooks (T ≈ 100) random sampling covers the space quickly and
// adaptivity has no room to pay off, which is exactly the paper's
// motivation for studying large arrays.
func TestProposedBeatsBaselinesIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in -short mode")
	}
	for _, multipath := range []bool{false, true} {
		cfg := Config{
			Seed:        42,
			Drops:       16,
			Multipath:   multipath,
			SearchRates: []float64{0.25},
			Schemes:     []string{"random", "scan", "proposed"},
		}
		fig, err := SearchEffectivenessContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		get := func(name string) float64 {
			for _, s := range fig.Series {
				if s.Name == name {
					return s.At(0.25)
				}
			}
			t.Fatalf("series %s missing", name)
			return 0
		}
		prop, random, scan := get("proposed"), get("random"), get("scan")
		if prop > random || prop > scan {
			t.Errorf("multipath=%v: proposed %.2f dB not best (random %.2f, scan %.2f)",
				multipath, prop, random, scan)
		}
	}
}
