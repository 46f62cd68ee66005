package core

import (
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// This file adapts the tree's query state machines to the scan-sharing
// protocol of internal/index: each query suspends at its quantized-page
// fetch boundary, the engine's coordinator merges the wanted pages of
// every in-flight query into one deduplicated read plan per round, and
// each fetched page is decoded once and offered to all attached cursors.
//
// Safety rests on two properties of the tree's concurrency model:
//
//   - Page positions are written out of place: within one reorganization
//     generation the bytes at a quantized-page position never change, so
//     a page fetched for one query's epoch is byte-identical for every
//     other pinned epoch that still owns the position (cursors map
//     positions through their own snapshot and decline stale ones).
//   - Reorganization excludes readers via the world lock and bumps the
//     generation. Cursors and FetchRun take the read lock per call and
//     re-validate the generation, so no cursor holds the lock across a
//     coordinator round (a held read lock would deadlock against a
//     writer once the lock queue forces new readers to wait). A failed
//     validation surfaces index.ErrStaleScan and the coordinator
//     restarts the query on a fresh cursor.
//
// The same cursors serve direct calls through the synchronous driver
// (driver.go), so a query makes the same page decisions alone or shared;
// result equivalence under sharing is argued per cursor below and pinned
// by the shared_test.go equivalence suite.

var _ index.SharedScanner = (*Tree)(nil)
var _ index.ApproxSharedScan = (*sharedScan)(nil)

// NewSharedScan returns a scan-sharing handle over the tree. The handle
// owns the round-scoped decode scratch for shared pages, so it must be
// confined to one coordinator goroutine.
func (t *Tree) NewSharedScan() index.SharedScan {
	ss := &sharedScan{t: t}
	ss.sink.feed = pageFeed{arena: &ss.arena, dim: t.dim}
	return ss
}

type sharedScan struct {
	t     *Tree
	arena kernel.Arena // decode-once buffer for the current shared page
	sink  roundSink
}

func (ss *sharedScan) Layout() index.SharedLayout {
	sn := ss.t.load()
	return index.SharedLayout{
		PageBlocks: ss.t.opt.QPageBlocks,
		NumPages:   len(sn.entryAt),
	}
}

func (ss *sharedScan) Gen() uint64 { return ss.t.reoptGen.Load() }

// KNN begins one resumable k-NN query charged to s.
func (ss *sharedScan) KNN(s *store.Session, q vec.Point, k int) index.Cursor {
	return ss.KNNApprox(s, q, k, index.Approx{})
}

// KNNApprox begins one resumable k-NN query under the given
// approximation knob: the cursor drives the same probability-bounded
// state machine as Tree.KNNApprox, so once the knob's stopping rule
// fires it drains its candidate refinements and stops wanting pages. A
// zero (or MinRecall = 1) knob is bit-identical to KNN.
func (ss *sharedScan) KNNApprox(s *store.Session, q vec.Point, k int, ap index.Approx) index.Cursor {
	t := ss.t
	c := &knnCursor{t: t, pending: -1}
	t.world.RLock()
	c.gen = t.reoptGen.Load()
	sn := t.load()
	t.world.RUnlock()
	if tr := obs.TraceFrom(s.Observer()); tr != nil {
		tr.SetLabel(fmt.Sprintf("knn k=%d", k))
	}
	if k <= 0 || sn.n == 0 {
		c.done = true
		return c
	}
	c.st = scratchFor(s).beginSearch(t, sn, s, q, k, obs.TraceFrom(s.Observer()), ap)
	return c
}

// Range begins one resumable range query charged to s.
func (ss *sharedScan) Range(s *store.Session, q vec.Point, eps float64) index.Cursor {
	sc := scratchFor(s)
	sc.eps = epsFilter{q: q, eps: eps, met: ss.t.opt.Metric}
	if tr := obs.TraceFrom(s.Observer()); tr != nil {
		tr.SetLabel(fmt.Sprintf("range eps=%g", eps))
	}
	return ss.newScan(s, sc, &sc.eps, true)
}

// Window begins one resumable window query charged to s.
func (ss *sharedScan) Window(s *store.Session, w vec.MBR) index.Cursor {
	sc := scratchFor(s)
	sc.win = windowFilter{w: w}
	if tr := obs.TraceFrom(s.Observer()); tr != nil {
		tr.SetLabel("window")
	}
	return ss.newScan(s, sc, &sc.win, false)
}

func (ss *sharedScan) newScan(s *store.Session, sc *queryScratch, f scanFilter, sortByDist bool) *scanCursor {
	t := ss.t
	t.world.RLock()
	defer t.world.RUnlock()
	return &scanCursor{t: t, s: s, sn: t.load(), tr: obs.TraceFrom(s.Observer()), sc: sc, f: f,
		gen: t.reoptGen.Load(), sortByDist: sortByDist}
}

// FetchRun reads quantized pages [first, last] through the leader's
// session, delivering each verified page (decoded at most once) and
// reporting quarantined or corrupt positions. Damage downgrades the run
// to wanted-only page-granular reads (see fetchRun).
func (ss *sharedScan) FetchRun(s *store.Session, gen uint64, first, last int, wanted func(pos int) bool,
	deliver func(pg *index.SharedPage), degraded func(pos int)) error {
	t := ss.t
	t.world.RLock()
	defer t.world.RUnlock()
	if t.reoptGen.Load() != gen {
		return index.ErrStaleScan
	}
	ss.sink.wantedFn, ss.sink.deliverFn, ss.sink.degradedFn = wanted, deliver, degraded
	return t.fetchRun(s, first, last, &ss.sink)
}

// roundSink adapts the coordinator's per-round callbacks to fetchRun.
type roundSink struct {
	feed       pageFeed
	wantedFn   func(pos int) bool
	deliverFn  func(pg *index.SharedPage)
	degradedFn func(pos int)
}

func (r *roundSink) wanted(pos int) bool      { return r.wantedFn(pos) }
func (r *roundSink) page(pos int, buf []byte) { r.deliverFn(r.feed.set(pos, buf)) }
func (r *roundSink) degraded(pos int)         { r.degradedFn(pos) }

// knnCursor drives the nnSearch state machine one page fetch at a time:
// start, then repeatedly advance to the next unpruned pending page,
// report it as the want and suspend. Pages delivered early (fetched for
// another query, or over-read by the pivot's batch) only tighten the
// search's bounds sooner; since processing a page is order-independent
// for the final result set (candidates enter the same priority list,
// prune radii only shrink), the returned neighbors do not depend on how
// the pages were shared.
type knnCursor struct {
	t       *Tree
	st      *nnSearch
	gen     uint64
	pending int32 // entry awaiting its page; -1 = none
	started bool
	done    bool
}

func (c *knnCursor) Step() (bool, error) {
	if !c.done && c.st.err == nil {
		t := c.t
		t.world.RLock()
		defer t.world.RUnlock()
		if t.reoptGen.Load() != c.gen {
			return false, index.ErrStaleScan
		}
	}
	return c.step()
}

func (c *knnCursor) step() (bool, error) {
	if c.done {
		return true, nil
	}
	st := c.st
	if st.err != nil {
		c.done = true
		return true, st.err
	}
	if !c.started {
		c.started = true
		if !st.start() {
			c.done = true
			return true, st.err
		}
	}
	if c.pending >= 0 && !st.processed[c.pending] {
		// Last round's fetch did not reach this page (its leader failed);
		// keep wanting it.
		return false, nil
	}
	entry, ok := st.advance()
	if !ok {
		c.done = true
		return true, st.err
	}
	c.pending = int32(entry)
	return false, nil
}

func (c *knnCursor) Wants(buf []int) []int {
	if c.done || !c.started || c.pending < 0 || c.st.processed[c.pending] {
		return buf
	}
	return append(buf, int(c.st.sn.entries[c.pending].QPos))
}

// AccessProb is the page-access estimate of Sec. 2.2 that steers the
// batch around each pivot. Without OptimizedIO it is 0 everywhere, so
// every plan is the pivot page alone: one random access per page, the
// "standard NN-search" of Fig. 7.
func (c *knnCursor) AccessProb(pos int) float64 {
	if !c.t.opt.OptimizedIO || c.done || !c.started || c.st.err != nil {
		return 0
	}
	return c.st.accessProb(pos)
}

func (c *knnCursor) Deliver(pg *index.SharedPage, shared bool) bool {
	st := c.st
	if c.done || !c.started || st.err != nil {
		return false
	}
	e := st.sn.entryIndex(pg.Pos)
	relevant := e >= 0 && !st.sn.free[e] && !st.processed[e]
	if !shared {
		// The leader accounts the transfer: every page counts as read and
		// consumes the approximate-mode fetch budget; a page this query
		// no longer needs counts as pruned, one it still needed as
		// pending in the batch.
		st.fetched++
		st.tr.AddPages(1)
		if relevant {
			st.tr.AddPending(1)
		} else {
			st.tr.AddPruned(1)
		}
	}
	if !relevant {
		return false
	}
	st.processed[e] = true
	if st.minD[e] >= st.prune() {
		if !shared {
			st.tr.AddPruned(1)
		}
		return false
	}
	if shared {
		// Another query's session paid the transfer; record a zero-cost
		// shared read so trace totals still reconcile with session stats.
		st.s.NoteShared(st.t.qFile, st.t.opt.QPageBlocks)
		st.tr.AddShared(1)
	}
	if pg.Bits == quantize.ExactBits {
		st.processExact(pg.Payload, pg.Count)
		return true
	}
	st.processCodes(e, pg.Count, pg.Codes())
	return true
}

func (c *knnCursor) DeliverDegraded(pos int) bool {
	st := c.st
	if c.done || !c.started || st.err != nil || c.pending < 0 {
		return false
	}
	// Only the actively wanted page may go degraded here: the search
	// never touches the exact shadow of pages it still might prune, and
	// an exact-mode page it would never fetch must not fail the query.
	e := st.sn.entryIndex(pos)
	if e < 0 || int32(e) != c.pending || st.processed[e] {
		return false
	}
	st.degradedExact(e)
	return true
}

// Results pops the search's result heap; call it once, after Step
// reported done.
func (c *knnCursor) Results() ([]vec.Neighbor, error) {
	if c.st == nil {
		return nil, nil
	}
	if c.st.err != nil {
		return nil, c.st.err
	}
	return c.st.results(), nil
}

func (c *knnCursor) Close() {}

// scanCursor drives range and window queries: one directory scan selects
// every candidate page up front (beginScan), all of them are wanted at
// once at access probability 1, and each delivered page appends its
// qualifying points. Deliveries arrive in ascending position order
// within a round — the plan's spans are disjoint and ascending — so a
// clean scan produces results in position order; degraded entries are
// served from their exact shadow at the end, and range results are
// sorted by distance on completion either way.
type scanCursor struct {
	t          *Tree
	s          *store.Session
	sn         *snapshot
	tr         *Trace
	sc         *queryScratch
	f          scanFilter
	gen        uint64
	sortByDist bool

	started   bool
	done      bool
	err       error
	pending   []int // candidate positions, ascending
	delivered map[int]struct{}
	degraded  []int // entries to serve from the exact shadow on finish
	out       []Neighbor
}

func (c *scanCursor) Step() (bool, error) {
	if !c.done && c.err == nil {
		t := c.t
		t.world.RLock()
		defer t.world.RUnlock()
		if t.reoptGen.Load() != c.gen {
			return false, index.ErrStaleScan
		}
	}
	return c.step()
}

func (c *scanCursor) step() (bool, error) {
	if c.done || c.err != nil {
		return true, c.err
	}
	t := c.t
	if !c.started {
		c.started = true
		positions, degraded, err := t.beginScan(c.s, c.sn, c.sc, c.f)
		if err != nil {
			return c.finish(err)
		}
		c.pending = positions
		c.degraded = degraded
		c.delivered = make(map[int]struct{}, len(positions))
	}
	if len(c.delivered) < len(c.pending) {
		return false, nil
	}
	// All candidate pages are in; serve the degraded entries from the
	// exact level and finalize.
	for _, entry := range c.degraded {
		out, err := t.rangeDegraded(c.s, c.sn, c.tr, c.sc, c.f, entry, c.out)
		if err != nil {
			return c.finish(err)
		}
		c.out = out
	}
	if c.sortByDist {
		out := c.out
		sort.Slice(out, func(i, j int) bool { return out[i].Dist < out[j].Dist })
	}
	return c.finish(nil)
}

func (c *scanCursor) finish(err error) (bool, error) {
	c.done = true
	c.err = err
	return true, err
}

func (c *scanCursor) Wants(buf []int) []int {
	if c.done || !c.started {
		return buf
	}
	for _, pos := range c.pending {
		if _, ok := c.delivered[pos]; !ok {
			buf = append(buf, pos)
		}
	}
	return buf
}

func (c *scanCursor) AccessProb(pos int) float64 {
	if c.done || !c.started {
		return 0
	}
	if _, ok := c.sc.posEntry[pos]; !ok {
		return 0
	}
	if _, ok := c.delivered[pos]; ok {
		return 0
	}
	return 1 // known-set scan: every undelivered candidate page is certain
}

func (c *scanCursor) Deliver(pg *index.SharedPage, shared bool) bool {
	if c.done || c.err != nil || !c.started {
		return false
	}
	entry, wanted := c.sc.posEntry[pg.Pos]
	if _, dup := c.delivered[pg.Pos]; dup {
		wanted = false
	}
	if !shared {
		c.tr.AddPages(1)
		if !wanted {
			c.tr.AddPruned(1) // over-read gap page (cheaper than a seek)
			return false
		}
		c.tr.AddPending(1)
	} else if !wanted {
		return false
	}
	c.delivered[pg.Pos] = struct{}{}
	if shared {
		c.s.NoteShared(c.t.qFile, c.t.opt.QPageBlocks)
		c.tr.AddShared(1)
	}
	var out []Neighbor
	var err error
	if pg.Bits == quantize.ExactBits {
		out, err = c.t.rangeExactQPage(c.s, c.sc, c.f, pg.Payload, pg.Count, c.out)
	} else {
		out, err = c.t.rangePageCodes(c.s, c.sn, c.tr, c.sc, c.f, entry, pg.Count, pg.Codes(), c.out)
	}
	if err != nil {
		c.err = err
		return true
	}
	c.out = out
	return true
}

func (c *scanCursor) DeliverDegraded(pos int) bool {
	if c.done || c.err != nil || !c.started {
		return false
	}
	entry, wanted := c.sc.posEntry[pos]
	if !wanted {
		return false
	}
	if _, dup := c.delivered[pos]; dup {
		return false
	}
	c.delivered[pos] = struct{}{}
	c.degraded = append(c.degraded, entry)
	return true
}

func (c *scanCursor) Results() ([]vec.Neighbor, error) {
	if c.err != nil {
		return nil, c.err
	}
	return c.out, nil
}

func (c *scanCursor) Close() {}
