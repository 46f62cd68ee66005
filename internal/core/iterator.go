package core

import (
	"errors"
	"math"

	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/vec"
)

// ErrStaleIterator is reported by an NNIterator whose pinned snapshot was
// invalidated by a Reoptimize: compaction rewrites the data files in
// place, so the iterator's page positions no longer mean anything.
var ErrStaleIterator = errors.New("core: iterator invalidated by Reoptimize")

// NNIterator enumerates the neighbors of a query point in increasing
// distance order, on demand — the incremental ranking of Hjaltason and
// Samet (the paper's reference [13]), running over the IQ-tree's three
// levels. Unlike KNN it needs no a-priori k: callers pull neighbors until
// satisfied (e.g. distance browsing, joins).
//
// The iterator is the k-NN search with no k bound: nothing is pruned,
// every resolved neighbor is held as confirmed, and Next drives the
// search until the closest confirmed neighbor provably precedes
// everything still in the priority list. Pages are fetched through the
// same driver, batching and degraded reads as KNN.
//
// The iterator pins the directory snapshot current at creation, so it is
// safe to interleave Next calls with concurrent inserts and deletes —
// the iteration keeps enumerating the pinned epoch. Only Reoptimize
// invalidates it (see ErrStaleIterator). The iterator itself is not safe
// for concurrent use from multiple goroutines.
type NNIterator struct {
	t   *Tree
	gen uint64        // reoptGen at creation
	sc  *queryScratch // iterator-owned: Next may interleave with other queries on the session
	cur knnCursor
	err error // first read failure; ends the iteration
}

// NewNNIterator starts an incremental nearest-neighbor ranking for q over
// the tree's current snapshot. All simulated I/O and CPU is charged to s.
func (t *Tree) NewNNIterator(s *store.Session, q vec.Point) *NNIterator {
	it := &NNIterator{t: t, gen: t.reoptGen.Load(), sc: newQueryScratch()}
	st := it.sc.beginSearch(t, t.load(), s, q, math.MaxInt, nil, index.Approx{})
	st.incremental = true
	it.cur = knnCursor{t: t, st: st, pending: -1}
	return it
}

// Err returns the first read failure encountered by the iterator, or nil.
// After Next returns ok=false, callers distinguishing exhaustion from
// failure must check it (the bufio.Scanner protocol).
func (it *NNIterator) Err() error { return it.err }

// Next returns the next neighbor in increasing distance order, or
// ok=false when the database is exhausted or a read failed (see Err).
func (it *NNIterator) Next() (Neighbor, bool) {
	it.t.world.RLock()
	defer it.t.world.RUnlock()
	if it.err != nil {
		return Neighbor{}, false
	}
	if it.t.reoptGen.Load() != it.gen {
		it.err = ErrStaleIterator
		return Neighbor{}, false
	}
	st := it.cur.st
	it.cur.done = false // each Next resumes the search where the last one stopped
	if err := it.t.drive(st.s, st.sn, nil, &it.sc.drv, &it.cur); err != nil {
		it.err = err
		return Neighbor{}, false
	}
	if len(st.confirmed) == 0 {
		return Neighbor{}, false
	}
	nb := st.popConfirmed()
	nb.Point = nb.Point.Clone() // the point may alias the iterator's arena
	return nb, true
}
