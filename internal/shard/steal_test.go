package shard

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mmwalign/internal/journal"
)

// staleLeaseDir makes a lease directory holding one claimed lease whose
// holder stopped heartbeating a minute ago.
func staleLeaseDir(t *testing.T, c journal.CellKey) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "leases"), 0o755); err != nil {
		t.Fatal(err)
	}
	lp := leasePath(dir, c)
	if err := os.WriteFile(lp, []byte(`{"worker":"dead","pid":1,"state":"claimed"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(lp, old, old); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestStealCountedByWinnerOfInterleavedClaim forces the interleaving
// where worker A sets a stale lease aside and worker B claims the cell
// on its first attempt before A re-creates the lease. B computes the
// cell, so B must count the takeover; A must see the cell held and
// count nothing.
func TestStealCountedByWinnerOfInterleavedClaim(t *testing.T) {
	c := journal.CellKey{Drop: 1, Scheme: "proposed"}
	dir := staleLeaseDir(t, c)
	a := &Worker{Dir: dir, ID: "a", TTL: time.Second}
	b := &Worker{Dir: dir, ID: "b", TTL: time.Second}

	var bStatus claimStatus
	var bStolen bool
	var bErr error
	testHookStaleSetAside = func(string) {
		testHookStaleSetAside = nil
		bStatus, bStolen, bErr = b.tryClaim(c)
	}
	defer func() { testHookStaleSetAside = nil }()

	aStatus, aStolen, err := a.tryClaim(c)
	if err != nil || bErr != nil {
		t.Fatalf("claims failed: a %v, b %v", err, bErr)
	}
	if bStatus != claimAcquired || !bStolen {
		t.Errorf("b: status %v stolen %v, want acquired and stolen", bStatus, bStolen)
	}
	if aStatus != claimHeld || aStolen {
		t.Errorf("a: status %v stolen %v, want held and not stolen", aStatus, aStolen)
	}
	if li := readLease(leasePath(dir, c)); li.Worker != "b" {
		t.Errorf("lease held by %q, want b", li.Worker)
	}
	if _, err := os.Stat(leasePath(dir, c) + staleSuffix); !os.IsNotExist(err) {
		t.Errorf("tombstone left behind after the steal was counted (stat err %v)", err)
	}
}

// TestStealAndFreshClaimCounts covers the uncontended paths: a steal
// of a stale lease counts once, a fresh claim counts nothing.
func TestStealAndFreshClaimCounts(t *testing.T) {
	c := journal.CellKey{Drop: 0, Scheme: "random"}
	dir := staleLeaseDir(t, c)
	a := &Worker{Dir: dir, ID: "a", TTL: time.Second}
	if status, stolen, err := a.tryClaim(c); err != nil || status != claimAcquired || !stolen {
		t.Fatalf("steal: status %v stolen %v err %v, want acquired and stolen", status, stolen, err)
	}
	fresh := journal.CellKey{Drop: 2, Scheme: "random"}
	if status, stolen, err := a.tryClaim(fresh); err != nil || status != claimAcquired || stolen {
		t.Fatalf("fresh claim: status %v stolen %v err %v, want acquired, not stolen", status, stolen, err)
	}
}
