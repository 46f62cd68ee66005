package core

import (
	"sort"

	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/pagesched"
	"repro/internal/quantize"
	"repro/internal/store"
)

// Every IQ-tree query runs as a resumable cursor (shared.go) suspended at
// its quantized-page fetch boundary. Two loops drive cursors: the
// engine's scan-sharing coordinator, which multiplexes many of them per
// round, and the synchronous driver below, which runs one query from a
// direct call. Both plan with pagesched.BatchAll over the cursors'
// access probabilities and fetch through fetchRun, so one query in the
// engine and the same query called directly make the same reads.

// drivable is a cursor the synchronous driver can run: the scan-sharing
// protocol plus step, which is Step without the per-call world lock and
// generation check (the driver holds the lock for the whole query; a
// recursive read lock would deadlock once a writer queues).
type drivable interface {
	index.Cursor
	step() (done bool, err error)
}

// driver is the per-scratch state of the synchronous query driver.
type driver struct {
	c     drivable
	feed  pageFeed
	wants []int // sorted by BatchAll
	spans []pagesched.PageSpan
}

// drive runs cursor c, pinned to snapshot sn, to completion: step to the
// next fetch boundary, gather the wanted pages, plan them with the
// cumulated cost balance of Sec. 2.1 under the cursor's access
// probabilities, fetch each planned run and deliver its pages, repeat.
// A k-NN cursor wants one pivot page per round, so its plan is the
// pivot's batch; a range-style cursor wants every candidate page at
// probability 1 (and every other page at 0), so its plan is the
// known-set schedule of Fig. 1. The caller holds t.world read-locked.
func (t *Tree) drive(s *store.Session, sn *snapshot, tr *Trace, dr *driver, c drivable) error {
	dr.c = c
	dr.feed.dim = t.dim
	_, knn := c.(*knnCursor)
	for {
		done, err := c.step()
		if done || err != nil {
			return err
		}
		dr.wants = c.Wants(dr.wants[:0])
		sched := pagesched.Scheduler{
			Cfg:        t.sto.Config(),
			PageBlocks: t.opt.QPageBlocks,
			NumPages:   len(sn.entryAt),
			Prob:       c.AccessProb,
		}
		dr.spans = sched.BatchAll(dr.spans, dr.wants)
		pivot := -1 // known-set run: no pivot
		if knn {
			pivot = dr.wants[0]
		}
		for _, sp := range dr.spans {
			tr.AddBatch(obs.BatchDecision{Pivot: pivot, First: sp.First, Last: sp.Last})
			if err := t.fetchRun(s, sp.First, sp.Last, dr); err != nil {
				return err
			}
		}
	}
}

func (dr *driver) wanted(pos int) bool {
	i := sort.SearchInts(dr.wants, pos)
	return i < len(dr.wants) && dr.wants[i] == pos
}

func (dr *driver) page(pos int, buf []byte) { dr.c.Deliver(dr.feed.set(pos, buf), false) }

func (dr *driver) degraded(pos int) { dr.c.DeliverDegraded(pos) }

// pageSink receives the pages of one fetched run.
type pageSink interface {
	// wanted selects the positions a degraded, page-granular fetch reads.
	wanted(pos int) bool
	// page offers one verified page's raw bytes.
	page(pos int, buf []byte)
	// degraded reports a quarantined or corrupt page.
	degraded(pos int)
}

// fetchRun reads quantized pages [first, last] through s with one
// contiguous read, offering every page to sink. Known or freshly
// discovered damage downgrades the run to page-granular reads of the
// wanted positions only, so no query pays for pages it does not need.
func (t *Tree) fetchRun(s *store.Session, first, last int, sink pageSink) error {
	if t.anyQuarantinedIn(first, last) {
		return t.fetchPagewise(s, first, last, sink)
	}
	buf, err := s.Read(t.qFile, first*t.opt.QPageBlocks, (last-first+1)*t.opt.QPageBlocks)
	if err != nil {
		if !t.corruptQPage(err) {
			return err
		}
		// Fresh corruption somewhere in the run: localize it by retrying
		// each wanted page individually.
		s.Recover()
		return t.fetchPagewise(s, first, last, sink)
	}
	pageBytes := t.qPageBytes()
	for pos := first; pos <= last; pos++ {
		sink.page(pos, buf[(pos-first)*pageBytes:(pos-first+1)*pageBytes])
	}
	return nil
}

// fetchPagewise is the degraded fetch: only wanted positions are read,
// one random access each. A page that fails verification is quarantined
// (unless it stores exact data, which has no shadow to fall back to) and
// reported degraded.
func (t *Tree) fetchPagewise(s *store.Session, first, last int, sink pageSink) error {
	for pos := first; pos <= last; pos++ {
		if !sink.wanted(pos) {
			continue
		}
		if t.isQuarantined(pos) {
			sink.degraded(pos)
			continue
		}
		buf, err := s.Read(t.qFile, pos*t.opt.QPageBlocks, t.opt.QPageBlocks)
		if err != nil {
			if !t.corruptQPage(err) {
				return err
			}
			s.Recover()
			sn := t.load()
			if e := sn.entryIndex(pos); e >= 0 && int(sn.entries[e].Bits) != quantize.ExactBits {
				t.quarantinePage(pos)
			}
			sink.degraded(pos)
			continue
		}
		sink.page(pos, buf[:t.qPageBytes()])
	}
	return nil
}

// pageFeed wraps fetched pages as index.SharedPages whose Codes
// bulk-decode the cell codes into arena on first use, so a page offered
// to many cursors is decoded once. The page and its decode function are
// reused for every page: no per-page allocation.
type pageFeed struct {
	arena   *kernel.Arena
	dim     int
	pg      index.SharedPage
	codes   []uint32
	decoded bool
	codesFn func() []uint32 // f.decode, bound once
}

// set makes the feed's page the one held in buf and returns it.
func (f *pageFeed) set(pos int, buf []byte) *index.SharedPage {
	qp := page.UnmarshalQPage(buf)
	f.pg = index.SharedPage{Pos: pos, Count: qp.Count, Bits: qp.Bits, Payload: qp.Payload}
	f.decoded = false
	if qp.Bits != quantize.ExactBits {
		if f.codesFn == nil {
			f.codesFn = f.decode
		}
		f.pg.Codes = f.codesFn
	}
	return &f.pg
}

func (f *pageFeed) decode() []uint32 {
	if !f.decoded {
		f.codes = f.arena.Unpack(f.pg.Payload, f.pg.Count*f.dim, f.pg.Bits)
		f.decoded = true
	}
	return f.codes
}
