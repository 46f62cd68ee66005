package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// RangeSearch returns all points within distance eps of q (under the
// tree's metric), ordered by increasing distance. Because the affected
// pages are known in advance from the directory, the second level is
// fetched with the optimal known-set schedule of paper Section 2
// (Fig. 1): the one page-access rule with every candidate page certain.
// When the session's observer is a *Trace, plan events are recorded into
// it (see KNN).
func (t *Tree) RangeSearch(s *store.Session, q vec.Point, eps float64) ([]Neighbor, error) {
	return t.RangeSearchTrace(s, q, eps, obs.TraceFrom(s.Observer()))
}

// RangeSearchTrace is RangeSearch with an optional physical-work trace
// (see KNNTrace for the attachment semantics).
func (t *Tree) RangeSearchTrace(s *store.Session, q vec.Point, eps float64, tr *Trace) ([]Neighbor, error) {
	t.world.RLock()
	defer t.world.RUnlock()
	label := ""
	if tr != nil {
		label = fmt.Sprintf("range eps=%g", eps)
	}
	detach := attachTrace(s, tr, t.sto.Config(), label)
	defer detach()
	sc := scratchFor(s)
	sc.eps = epsFilter{q: q, eps: eps, met: t.opt.Metric}
	return t.scan(s, tr, sc, &sc.eps, true)
}

// WindowQuery returns all points inside the query window w. Dist fields of
// the results are 0.
func (t *Tree) WindowQuery(s *store.Session, w vec.MBR) ([]Neighbor, error) {
	return t.WindowQueryTrace(s, w, obs.TraceFrom(s.Observer()))
}

// WindowQueryTrace is WindowQuery with an optional physical-work trace
// (see KNNTrace for the attachment semantics).
func (t *Tree) WindowQueryTrace(s *store.Session, w vec.MBR, tr *Trace) ([]Neighbor, error) {
	t.world.RLock()
	defer t.world.RUnlock()
	detach := attachTrace(s, tr, t.sto.Config(), "window")
	defer detach()
	sc := scratchFor(s)
	sc.win = windowFilter{w: w}
	return t.scan(s, tr, sc, &sc.win, false)
}

// scan runs one range-style query through the synchronous driver. The
// caller holds t.world read-locked.
func (t *Tree) scan(s *store.Session, tr *Trace, sc *queryScratch, f scanFilter, sortByDist bool) ([]Neighbor, error) {
	sn := t.load()
	c := &scanCursor{t: t, s: s, sn: sn, tr: tr, sc: sc, f: f, sortByDist: sortByDist}
	if err := t.drive(s, sn, tr, &sc.drv, c); err != nil {
		return nil, err
	}
	return c.out, nil
}

// scanFilter is the query-specific part of a range-style scan. The two
// implementations live in the session scratch so a scan allocates no
// filter state.
type scanFilter interface {
	// pageHit selects directory entries whose page may hold results.
	pageHit(mbr vec.MBR) bool
	// preparePage builds the kernel tables for one compressed page.
	preparePage(sc *queryScratch, g quantize.Grid, count int)
	// pageHits classifies a whole prepared page's approximations in one
	// kernel batch call; hits[i] is true when point i needs its exact
	// geometry (for the id, and possibly the decision). The returned
	// slice is scratch, valid until the next call.
	pageHits(sc *queryScratch, codes []uint32, dim, count int) []bool
	// exactHit decides on the exact point, returning the result distance.
	exactHit(p vec.Point) (float64, bool)
}

// epsFilter implements the distance-range predicate via the kernel's
// table lookups with exact early-abandon: a point is discarded only when
// its accumulated lower bound provably exceeds eps (the threshold is the
// next float64 above eps, making prune ⇔ MINDIST > eps bit-exact).
type epsFilter struct {
	q   vec.Point
	eps float64
	met vec.Metric
	tb  *kernel.Tables
	lbT float64
}

func (f *epsFilter) pageHit(mbr vec.MBR) bool { return mbr.MinDist(f.q, f.met) <= f.eps }

func (f *epsFilter) preparePage(sc *queryScratch, g quantize.Grid, count int) {
	f.tb = sc.arena.Tables(g, f.q, f.met, count)
	f.lbT = kernel.SqThreshold(f.met, math.Nextafter(f.eps, math.Inf(1)))
}

func (f *epsFilter) pageHits(sc *queryScratch, codes []uint32, dim, count int) []bool {
	pb := &sc.bounds
	f.tb.MinDistBatch(codes, dim, count, f.lbT, pb)
	hits := growHits(&sc.hits, count)
	for i := 0; i < count; i++ {
		hits[i] = !pb.Pruned[i] && pb.Lb[i] <= f.eps
	}
	return hits
}

func (f *epsFilter) exactHit(p vec.Point) (float64, bool) {
	d := f.met.Dist(f.q, p)
	return d, d <= f.eps
}

// windowFilter implements the window predicate via the kernel's
// per-dimension intersection table.
type windowFilter struct {
	w  vec.MBR
	wt *kernel.WindowTable
}

func (f *windowFilter) pageHit(mbr vec.MBR) bool { return mbr.Intersects(f.w) }

func (f *windowFilter) preparePage(sc *queryScratch, g quantize.Grid, count int) {
	f.wt = sc.arena.Window(g, f.w, count)
}

func (f *windowFilter) pageHits(sc *queryScratch, codes []uint32, dim, count int) []bool {
	sc.hits = f.wt.HitsBatch(codes, dim, count, sc.hits)
	return sc.hits
}

func (f *windowFilter) exactHit(p vec.Point) (float64, bool) { return 0, f.w.Contains(p) }

// growHits resizes the scratch hit buffer, keeping its high-water
// capacity across pages.
func growHits(hits *[]bool, n int) []bool {
	if cap(*hits) < n {
		*hits = make([]bool, n)
	}
	*hits = (*hits)[:n]
	return *hits
}

// beginScan runs the level-1 directory scan of a range-style query
// against the pinned snapshot: it selects the candidate pages via the
// filter's pageHit, returning their sorted quantized-page positions
// (sc.posEntry maps position → entry) and the entries whose page is
// already quarantined and must be served from the exact shadow.
func (t *Tree) beginScan(s *store.Session, sn *snapshot, sc *queryScratch, f scanFilter) (positions, degraded []int, err error) {
	if sn.dirBlocks > 0 {
		if _, err := s.Read(t.dirFile, 0, sn.dirBlocks); err != nil {
			return nil, nil, err
		}
	}
	s.ChargeApproxCPU(t.dirFile, t.dim, len(sn.entries))

	sc.pts.Reset()
	clear(sc.posEntry)
	for i, e := range sn.entries {
		if sn.free[i] {
			continue
		}
		if !f.pageHit(e.MBR) {
			continue
		}
		if t.isQuarantined(int(e.QPos)) {
			degraded = append(degraded, i)
			continue
		}
		positions = append(positions, int(e.QPos))
		sc.posEntry[int(e.QPos)] = i
	}
	sort.Ints(positions)
	return positions, degraded, nil
}

// rangeDegraded answers one page of a range-style query entirely from
// its exact (level-3) shadow — every point of the page is decided on
// exact geometry, so results match a clean run bit for bit; only the
// cost degrades. A quarantined exact-mode page has no shadow and fails
// with ErrUnrecoverable.
func (t *Tree) rangeDegraded(s *store.Session, sn *snapshot, tr *Trace, sc *queryScratch, f scanFilter,
	entry int, out []Neighbor) ([]Neighbor, error) {
	e := sn.entries[entry]
	if int(e.Bits) == quantize.ExactBits {
		return nil, unrecoverablePage(int(e.QPos), entry)
	}
	entrySize := page.ExactEntrySize(t.dim)
	raw, rel, err := s.ReadRange(t.eFile, int(e.EPos)*t.sto.Config().BlockSize, int(e.Count)*entrySize)
	if err != nil {
		return nil, err
	}
	metricDegradedReads.Inc()
	tr.AddDegraded(1)
	tr.AddRefinement(int(e.Count))
	s.ChargeDistCPU(t.eFile, t.dim, int(e.Count))
	pts, ids := sc.pts.DecodeExact(raw[rel:], int(e.Count), t.dim)
	for i, p := range pts {
		if d, ok := f.exactHit(p); ok {
			out = append(out, Neighbor{ID: ids[i], Dist: d, Point: p.Clone()})
		}
	}
	return out, nil
}

// rangeExactQPage decides an exact-mode (32-bit) quantized page: every
// point carries its full coordinates, so the filter's exact predicate
// applies directly.
func (t *Tree) rangeExactQPage(s *store.Session, sc *queryScratch, f scanFilter,
	payload []byte, count int, out []Neighbor) ([]Neighbor, error) {
	pts, ids := sc.pts.DecodeQPage(payload, count, t.dim)
	s.ChargeDistCPU(t.qFile, t.dim, len(pts))
	for i, p := range pts {
		if d, ok := f.exactHit(p); ok {
			out = append(out, Neighbor{ID: ids[i], Dist: d, Point: p.Clone()})
		}
	}
	return out, nil
}

// rangePageCodes filters one compressed page's bulk-unpacked codes and
// refines the surviving candidates against the exact level.
func (t *Tree) rangePageCodes(s *store.Session, sn *snapshot, tr *Trace, sc *queryScratch, f scanFilter,
	entry, count int, codes []uint32, out []Neighbor) ([]Neighbor, error) {
	f.preparePage(sc, sn.grids[entry], count)
	s.ChargeApproxCPU(t.qFile, t.dim, count)
	hits := f.pageHits(sc, codes, t.dim, count)
	need := sc.need[:0]
	for i := 0; i < count; i++ {
		if hits[i] {
			need = append(need, i)
		}
	}
	sc.need = need
	tr.AddCandidates(len(need))
	if len(need) == 0 {
		return out, nil
	}
	// Level 3: candidates of one page are contiguous in the exact file;
	// read the covering range in a single operation and bulk-decode the
	// covered span into the point arena.
	e := sn.entries[entry]
	entrySize := page.ExactEntrySize(t.dim)
	base := int(e.EPos) * t.sto.Config().BlockSize
	lo := base + need[0]*entrySize
	hi := base + (need[len(need)-1]+1)*entrySize
	raw, rel, err := s.ReadRange(t.eFile, lo, hi-lo)
	if err != nil {
		return nil, err
	}
	tr.AddRefinement(len(need))
	s.ChargeDistCPU(t.eFile, t.dim, len(need))
	span := need[len(need)-1] - need[0] + 1
	pts, ids := sc.pts.DecodeExact(raw[rel:], span, t.dim)
	for _, i := range need {
		j := i - need[0]
		if d, ok := f.exactHit(pts[j]); ok {
			out = append(out, Neighbor{ID: ids[j], Dist: d, Point: pts[j].Clone()})
		}
	}
	return out, nil
}
