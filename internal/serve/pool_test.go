package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mmwalign/internal/cmat"
	"mmwalign/internal/covest"
)

// smallSpec is the test pool configuration: a 4-antenna ULA-shaped
// panel with a 4-beam codebook and a short solver, so hammer tests stay
// fast under -race.
func smallSpec() EstimatorSpec {
	return EstimatorSpec{PanelX: 4, PanelZ: 1, BeamsAz: 4, BeamsEl: 1, Gamma: 1, Mu: 1, MaxIters: 5}
}

// testObservations builds a deterministic estimation window on the
// session's codebook: a synthetic energy bump centered on beam peak.
func testObservations(s *Session, peak int) []covest.Observation {
	book := s.Book()
	obs := make([]covest.Observation, 0, book.Size())
	for j := 0; j < book.Size(); j++ {
		d := float64(j - peak)
		obs = append(obs, covest.Observation{
			V:      book.Beam(j).Weights,
			Energy: 1 + 6/(1+d*d),
		})
	}
	return obs
}

func TestLeaseExclusiveUnderHammer(t *testing.T) {
	pool := NewPool(4)
	spec := smallSpec()

	// owners tracks which goroutine currently owns each session; a CAS
	// failure means two leases shared a session. The estimate inside the
	// critical section gives the race detector real memory traffic on
	// the workspace arenas to check.
	var owners sync.Map
	const goroutines = 32
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lease, err := pool.Lease(spec)
				if err != nil {
					t.Errorf("goroutine %d: lease: %v", id, err)
					return
				}
				s := lease.Session()
				slot, _ := owners.LoadOrStore(s, new(atomic.Int64))
				owner := slot.(*atomic.Int64)
				if !owner.CompareAndSwap(0, int64(id)+1) {
					t.Errorf("goroutine %d: session already owned by %d", id, owner.Load()-1)
					lease.Release()
					return
				}
				if _, _, err := s.Estimator().Estimate(testObservations(s, i%4), nil); err != nil {
					t.Errorf("goroutine %d: estimate: %v", id, err)
				}
				if !owner.CompareAndSwap(int64(id)+1, 0) {
					t.Errorf("goroutine %d: lost session ownership mid-lease", id)
				}
				lease.Release()
			}
		}(g)
	}
	wg.Wait()

	stats := pool.Stats()
	if stats.Active != 0 {
		t.Errorf("active sessions after hammer = %d, want 0", stats.Active)
	}
	if want := int64(goroutines * iters); stats.Leases != want {
		t.Errorf("leases = %d, want %d", stats.Leases, want)
	}
	if stats.Created > goroutines {
		t.Errorf("created %d sessions for %d goroutines: pool is not reusing", stats.Created, goroutines)
	}
}

func TestLeaseUseAfterReleasePanics(t *testing.T) {
	pool := NewPool(4)
	lease, err := pool.Lease(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	defer func() {
		if recover() == nil {
			t.Error("Session() after Release did not panic")
		}
	}()
	lease.Session()
}

func TestLeaseDoubleReleasePanics(t *testing.T) {
	pool := NewPool(4)
	lease, err := pool.Lease(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	lease.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	lease.Release()
}

func TestDiscardDropsSession(t *testing.T) {
	pool := NewPool(4)
	lease, err := pool.Lease(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	poisoned := lease.Session()
	lease.Discard()

	stats := pool.Stats()
	if stats.Discarded != 1 {
		t.Errorf("discarded = %d, want 1", stats.Discarded)
	}

	lease2, err := pool.Lease(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer lease2.Release()
	if lease2.Session() == poisoned {
		t.Error("discarded session was leased again")
	}
	if got := pool.Stats().Created; got != 2 {
		t.Errorf("created = %d, want 2 (discard must force a fresh session)", got)
	}
}

// TestCrossRequestStateLeakage is the satellite-4 regression: a session
// that just solved a completely different problem must produce results
// byte-identical to a never-used session. The first lease runs a
// "poisoning" estimate (different peak, different energies); the second
// lease must not observe any residue of it.
func TestCrossRequestStateLeakage(t *testing.T) {
	spec := smallSpec()

	estimate := func(pool *Pool, peak int) (*cmat.Matrix, covest.Stats) {
		lease, err := pool.Lease(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer lease.Release()
		s := lease.Session()
		q, stats, err := s.Estimator().Estimate(testObservations(s, peak), nil)
		if err != nil {
			t.Fatal(err)
		}
		return q, stats
	}

	// Reference: a fresh pool solves peak=1 with no history.
	wantQ, wantStats := estimate(NewPool(4), 1)

	// Reused: the same pool first solves peak=3 (poisoning the arenas
	// with unrelated iterates), then peak=1 on the recycled session.
	pool := NewPool(4)
	estimate(pool, 3)
	gotQ, gotStats := estimate(pool, 1)
	if created := pool.Stats().Created; created != 1 {
		t.Fatalf("created = %d, want 1: the second lease must reuse the pooled session", created)
	}

	if gotStats != wantStats {
		t.Errorf("solver stats differ after session reuse:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	if gotQ.Rows() != wantQ.Rows() || gotQ.Cols() != wantQ.Cols() {
		t.Fatalf("estimate shape %dx%d, want %dx%d", gotQ.Rows(), gotQ.Cols(), wantQ.Rows(), wantQ.Cols())
	}
	for i := 0; i < wantQ.Rows(); i++ {
		for j := 0; j < wantQ.Cols(); j++ {
			if gotQ.At(i, j) != wantQ.At(i, j) {
				t.Fatalf("Q[%d,%d] = %v after reuse, want %v (bitwise)", i, j, gotQ.At(i, j), wantQ.At(i, j))
			}
		}
	}
}

func TestLeaseResetClearsScratch(t *testing.T) {
	pool := NewPool(4)
	lease, err := pool.Lease(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := lease.Session()
	s.obsBuf = append(s.obsBuf, covest.Observation{Energy: 42})
	s.topk = append(s.topk, 3)
	for i := range s.scores {
		s.scores[i] = 99
	}
	lease.Release()

	lease2, err := pool.Lease(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer lease2.Release()
	s2 := lease2.Session()
	if s2 != s {
		t.Skip("pool returned a different session; scratch reuse not exercised")
	}
	if len(s2.obsBuf) != 0 || len(s2.topk) != 0 {
		t.Errorf("scratch not truncated on lease: obsBuf=%d topk=%d", len(s2.obsBuf), len(s2.topk))
	}
	for i, v := range s2.scores {
		if v != 0 {
			t.Errorf("scores[%d] = %v on fresh lease, want 0", i, v)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	pool := NewPool(4)
	bad := []EstimatorSpec{
		{PanelX: -1, PanelZ: 1, BeamsAz: 1, BeamsEl: 1, Gamma: 1, Mu: 1, MaxIters: 1},
		{PanelX: 1, PanelZ: 1, BeamsAz: -1, BeamsEl: 1, Gamma: 1, Mu: 1, MaxIters: 1},
		{PanelX: 1, PanelZ: 1, BeamsAz: 1, BeamsEl: 1, Gamma: -2, Mu: 1, MaxIters: 1},
		{PanelX: 1, PanelZ: 1, BeamsAz: 1, BeamsEl: 1, Gamma: 1, Mu: -3, MaxIters: 1},
		{PanelX: 1, PanelZ: 1, BeamsAz: 1, BeamsEl: 1, Gamma: 1, Mu: 1, MaxIters: -1},
	}
	for i, spec := range bad {
		if _, err := pool.Lease(spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	if got := pool.Stats().Leases; got != 0 {
		t.Errorf("leases = %d after rejected specs, want 0", got)
	}
}

func TestSpecKeySeparatesConfigurations(t *testing.T) {
	a := smallSpec()
	b := smallSpec()
	b.Mu = 2
	if a.key() == b.key() {
		t.Error("specs with different mu share a pool key")
	}
	if a.bookKey() != b.bookKey() {
		t.Error("specs with identical geometry should share a codebook key")
	}
	pool := NewPool(4)
	la, err := pool.Lease(a)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := pool.Lease(b)
	if err != nil {
		t.Fatal(err)
	}
	if la.Session() == lb.Session() {
		t.Error("different specs leased the same session")
	}
	if la.Session().Book() != lb.Session().Book() {
		t.Error("same geometry should share one codebook")
	}
	la.Release()
	lb.Release()
}

func TestConcurrentDistinctSpecs(t *testing.T) {
	// Sessions of different specs must be independent: hammer two specs
	// concurrently and let the race detector check for shared state.
	pool := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			spec := smallSpec()
			spec.Mu = 1 + float64(id%2)
			for i := 0; i < 10; i++ {
				lease, err := pool.Lease(spec)
				if err != nil {
					t.Errorf("lease: %v", err)
					return
				}
				s := lease.Session()
				if _, _, err := s.Estimator().Estimate(testObservations(s, id%4), nil); err != nil {
					t.Errorf("estimate: %v", err)
				}
				lease.Release()
			}
		}(g)
	}
	wg.Wait()
	if got := pool.Stats().Active; got != 0 {
		t.Errorf("active = %d after hammer, want 0", got)
	}
}

func TestPoolStatsString(t *testing.T) {
	// PoolStats must marshal with stable field names (the /statsz
	// contract); a rename would silently break dashboards.
	s := PoolStats{Created: 1, Leases: 2, Active: 3, Discarded: 4}
	got := fmt.Sprintf("%+v", s)
	want := "{Created:1 Leases:2 Active:3 Discarded:4}"
	if got != want {
		t.Errorf("PoolStats layout changed: %s, want %s", got, want)
	}
}

// TestPoolReuseSurvivesGC pins that idle sessions outlive a garbage
// collection. Two concurrent leases put one session in the hot slot
// and one in the overflow list; after runtime.GC, leasing two again
// must reuse both. A sync.Pool overflow lost the second session to
// every GC, so steady concurrent traffic kept rebuilding sessions.
func TestPoolReuseSurvivesGC(t *testing.T) {
	pool := NewPool(4)
	spec := smallSpec()
	leaseTwo := func() {
		a, err := pool.Lease(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pool.Lease(spec)
		if err != nil {
			t.Fatal(err)
		}
		a.Release()
		b.Release()
	}
	leaseTwo()
	if got := pool.Stats().Created; got != 2 {
		t.Fatalf("created %d sessions for two concurrent leases, want 2", got)
	}
	// Two collections: a sync.Pool keeps its items through one GC in
	// its victim cache and drops them on the second.
	runtime.GC()
	runtime.GC()
	leaseTwo()
	if got := pool.Stats().Created; got != 2 {
		t.Errorf("created %d sessions after GC, want 2 (idle sessions were dropped)", got)
	}
}

// TestPoolIdleBound pins that a spec keeps at most maxIdle idle
// sessions: releasing more than that many drops the excess.
func TestPoolIdleBound(t *testing.T) {
	pool := NewPool(2)
	spec := smallSpec()
	var leases []*Lease
	for i := 0; i < 5; i++ {
		l, err := pool.Lease(spec)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	for _, l := range leases {
		l.Release()
	}
	if f := pool.freeFor(spec.WithDefaults().key()); len(f.overflow)+1 != 2 || f.hot == nil {
		t.Fatalf("idle sessions: hot %v, overflow %d, want 1 + 1", f.hot != nil, len(f.overflow))
	}
}
