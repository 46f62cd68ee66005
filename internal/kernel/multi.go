package kernel

// Multi-query page filtering: under scan sharing one fetched page is
// decoded once and then filtered for every attached query while its
// codes are hot in cache. The batch entry points below run a whole
// page's worth of per-point decisions in one call per (page, query)
// pair, against thresholds captured when the page scan starts.
//
// Decision equivalence: the thresholds a caller passes here are the ones
// in force at page start — at most looser than the live thresholds the
// scalar loop would refresh mid-page. BoundsPruned's contract makes that
// safe and exact: a point pruned against a looser threshold is pruned
// against any tighter one, and a point the scalar loop would have pruned
// but the batch computes exactly yields provable no-ops downstream
// (its lower bound still fails the live candidate test and its upper
// bound cannot move a full k-bound heap). TestBoundsBatchMatchesScalar
// pins the resulting state equivalence.

// PageBounds holds the per-point output of one batch filter call over a
// page: for point i, Pruned[i] means both bounds provably cleared their
// thresholds (Lb[i]/Ub[i] are then meaningless); otherwise Lb[i] and
// Ub[i] are the exact distance bounds. Buffers are reused across calls
// at high-water capacity.
type PageBounds struct {
	Lb, Ub []float64
	Pruned []bool
}

func (pb *PageBounds) grow(n int) {
	if cap(pb.Lb) < n {
		pb.Lb = make([]float64, n)
		pb.Ub = make([]float64, n)
		pb.Pruned = make([]bool, n)
	}
	pb.Lb = pb.Lb[:n]
	pb.Ub = pb.Ub[:n]
	pb.Pruned = pb.Pruned[:n]
}

// BoundsBatch runs BoundsPruned over all count points of a page's
// bulk-decoded codes (dim codes per point) against fixed accumulator-
// domain thresholds, filling pb. Every per-point decision is identical
// to calling BoundsPruned with the same thresholds.
func (t *Tables) BoundsBatch(codes []uint32, dim, count int, lbT, ubT float64, pb *PageBounds) {
	pb.grow(count)
	for i := 0; i < count; i++ {
		lb, ub, pruned := t.BoundsPruned(codes[i*dim:(i+1)*dim], lbT, ubT)
		pb.Pruned[i] = pruned
		pb.Lb[i], pb.Ub[i] = lb, ub
	}
}

// MinDistBatch runs MinDistPruned over all count points against the
// fixed threshold lbT, filling pb.Lb and pb.Pruned. It never writes
// pb.Ub, which is left stale from earlier calls.
func (t *Tables) MinDistBatch(codes []uint32, dim, count int, lbT float64, pb *PageBounds) {
	pb.grow(count)
	for i := 0; i < count; i++ {
		lb, pruned := t.MinDistPruned(codes[i*dim:(i+1)*dim], lbT)
		pb.Pruned[i] = pruned
		pb.Lb[i] = lb
	}
}

// HitsBatch evaluates the window predicate for all count points, filling
// and returning hits (reused when capacity allows). hits[i] matches
// Hits on point i's codes exactly.
func (wt *WindowTable) HitsBatch(codes []uint32, dim, count int, hits []bool) []bool {
	if cap(hits) < count {
		hits = make([]bool, count)
	}
	hits = hits[:count]
	for i := 0; i < count; i++ {
		hits[i] = wt.Hits(codes[i*dim : (i+1)*dim])
	}
	return hits
}
