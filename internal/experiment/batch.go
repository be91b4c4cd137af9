package experiment

import (
	"sync"

	"mmwalign/internal/cmat"
	"mmwalign/internal/obs"
)

// Cross-cell GEMM batching. With CrossCellBatch enabled, every
// concurrently running "proposed"/"two-sided" cell routes its solver's
// λ products (Uᴴ·V off each prox step's kept eigenpairs, Q·V for the
// other iterates; covest.Options.Batcher) through one shared scheduler
// instead of calling cmat.MulInto directly. The scheduler drains
// whatever requests are queued at that instant, groups them by matrix
// shape, and executes each group as a single virtual tall GEMM
// (cmat.MulIntoPanels) — one parallel fan-out amortized across cells
// whose individual products sit below the per-call parallel threshold.
//
// Fidelity: batching is pure scheduling. MulIntoPanels produces each
// panel's dst with the same row kernel and the same per-entry
// accumulation order as MulInto, so a batched solve is bitwise
// identical to an unbatched one — which is why CrossCellBatch is a
// runtime-only knob zeroed in CanonicalHash, like Workers.

// gemmRequest is one cell's pending product. done receives the
// recovered panic value of the executing kernel (nil on success)
// exactly once.
type gemmRequest struct {
	panel cmat.Panel
	done  chan any
}

// gemmShape is the grouping key: panels executed together must agree on
// every dimension, and the per-panel validation inside MulIntoPanels
// then cannot trip on a well-formed group member because of a
// malformed one.
type gemmShape struct {
	dstRows, dstCols, aRows, aCols, bRows, bCols int
}

func shapeOf(p cmat.Panel) gemmShape {
	return gemmShape{
		dstRows: p.Dst.Rows(), dstCols: p.Dst.Cols(),
		aRows: p.A.Rows(), aCols: p.A.Cols(),
		bRows: p.B.Rows(), bCols: p.B.Cols(),
	}
}

// gemmBatcher implements covest.Batcher over a single dispatcher
// goroutine. Requesters block on their done channel, so the dispatcher
// owns every enqueued panel's memory for the duration of the group
// execute — the channel handoff is the happens-before edge in both
// directions.
type gemmBatcher struct {
	reqs     chan gemmRequest
	wg       sync.WaitGroup
	requests *obs.Counter
	groups   *obs.Counter
	batched  *obs.Counter // requests that shared a group with at least one other
}

// newGemmBatcher starts the dispatcher. rec's counters make the
// coalescing observable in the manifest: batch_gemm_requests,
// batch_gemm_groups, batch_gemm_coalesced.
func newGemmBatcher(rec *obs.Recorder) *gemmBatcher {
	g := &gemmBatcher{
		reqs:     make(chan gemmRequest, 64),
		requests: rec.Counter("batch_gemm_requests"),
		groups:   rec.Counter("batch_gemm_groups"),
		batched:  rec.Counter("batch_gemm_coalesced"),
	}
	g.wg.Add(1)
	go g.run()
	return g
}

// MulInto implements covest.Batcher: enqueue, wait, re-panic any kernel
// panic in the caller's goroutine so cell panic attribution (drop,
// scheme) is preserved.
func (g *gemmBatcher) MulInto(dst, a, b *cmat.Matrix) {
	done := make(chan any, 1)
	g.reqs <- gemmRequest{panel: cmat.Panel{Dst: dst, A: a, B: b}, done: done}
	if v := <-done; v != nil {
		panic(v)
	}
}

// stop drains the dispatcher. Callers must guarantee no MulInto is in
// flight or forthcoming (the run's worker WaitGroup does).
func (g *gemmBatcher) stop() {
	close(g.reqs)
	g.wg.Wait()
}

// run is the dispatcher loop: block for one request, opportunistically
// drain everything else already queued, execute by shape group. The
// dispatcher never blocks on a requester, so requesters blocking on it
// cannot deadlock.
func (g *gemmBatcher) run() {
	defer g.wg.Done()
	var pending []gemmRequest
	for req := range g.reqs {
		pending = append(pending[:0], req)
	drain:
		for {
			select {
			case more, ok := <-g.reqs:
				if !ok {
					break drain
				}
				pending = append(pending, more)
			default:
				break drain
			}
		}
		g.execute(pending)
	}
}

// execute groups the drained requests by shape (preserving arrival
// order within a group) and runs each group as one panel batch. A
// kernel panic is fanned out to every member of its group — the group
// shares one execution, so it shares the failure — and each affected
// cell turns it into its own attributed *sweep.PanicError.
func (g *gemmBatcher) execute(pending []gemmRequest) {
	g.requests.Add(int64(len(pending)))
	byShape := make(map[gemmShape][]gemmRequest, 1)
	var order []gemmShape
	for _, r := range pending {
		s := shapeOf(r.panel)
		if _, seen := byShape[s]; !seen {
			order = append(order, s)
		}
		byShape[s] = append(byShape[s], r)
	}
	for _, s := range order {
		group := byShape[s]
		g.groups.Add(1)
		if len(group) > 1 {
			g.batched.Add(int64(len(group)))
		}
		panels := make([]cmat.Panel, len(group))
		for i, r := range group {
			panels[i] = r.panel
		}
		v := runPanels(panels)
		for _, r := range group {
			r.done <- v
		}
	}
}

// runPanels executes one shape group, converting a kernel panic into a
// value instead of unwinding the dispatcher.
func runPanels(panels []cmat.Panel) (v any) {
	defer func() { v = recover() }()
	cmat.MulIntoPanels(panels)
	return nil
}
