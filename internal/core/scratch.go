package core

import (
	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/pagesched"
	"repro/internal/store"
	"repro/internal/vec"
)

// queryScratch is the per-session reusable state of the query paths:
// kernel arenas, the k-NN search state and its cursor, the synchronous
// driver, the range/window scan buffers, and the access-probability
// scratch. It rides on the session's scratch slot (surviving
// Session.Reset), so pooled sessions — the engine's workers — reach a
// zero-allocation steady state on the KNN hot path. Like the session
// itself, it is single-goroutine state.
type queryScratch struct {
	arena kernel.Arena      // codes + distance/window tables
	pts   kernel.PointArena // decoded exact points (KNN refinement)
	prob  pagesched.ProbScratch

	search nnSearch
	sorter entrySorter
	cur    knnCursor // the direct k-NN call's cursor over search
	drv    driver

	// Range/window scan state.
	posEntry map[int]int
	need     []int
	eps      epsFilter
	win      windowFilter

	// Batch-kernel buffers of the range/window page classifiers.
	bounds kernel.PageBounds
	hits   []bool
}

// scratchFor returns the session's query scratch, creating and attaching
// it on first use.
func scratchFor(s *store.Session) *queryScratch {
	if sc, ok := s.Scratch().(*queryScratch); ok {
		return sc
	}
	sc := newQueryScratch()
	s.SetScratch(sc)
	return sc
}

func newQueryScratch() *queryScratch {
	sc := &queryScratch{
		posEntry: make(map[int]int),
	}
	sc.search.sc = sc
	sc.search.exactCache = make(map[int32]exactPage)
	sc.search.exactSkip = make(map[int32]bool)
	sc.drv.feed.arena = &sc.arena
	return sc
}

// beginSearch re-initializes the scratch's k-NN state for one query,
// reusing every buffer at its high-water capacity.
func (sc *queryScratch) beginSearch(t *Tree, sn *snapshot, s *store.Session, q vec.Point, k int, tr *Trace, ap index.Approx) *nnSearch {
	st := &sc.search
	st.t, st.sn, st.s, st.q, st.k, st.tr = t, sn, s, q, k, tr
	st.err = nil
	st.ap = ap
	st.incremental = false
	st.confirmed = st.confirmed[:0]
	st.fetched, st.apStopped, st.apStopRefine, st.apSkipped, st.apProb = 0, false, false, 0, 0
	n := len(sn.entries)
	st.minD = growF64(st.minD, n)
	st.processed = growBool(st.processed, n)
	clear(st.processed)
	st.sorted = st.sorted[:0]
	st.heap = st.heap[:0]
	st.res = st.res[:0]
	st.ub = st.ub[:0]
	st.wSum = growF64(st.wSum, n)
	clear(st.wSum)
	st.wCnt = growI32(st.wCnt, n)
	clear(st.wCnt)
	st.regionBuf = st.regionBuf[:0]
	clear(st.exactCache)
	clear(st.exactSkip)
	sc.pts.Reset()
	return st
}

// entrySorter orders directory entry indexes by MINDIST. It is a
// pre-boxed sort.Interface so the hot path can use sort.Sort without the
// closure allocation of sort.Slice; both run the same pdqsort, so the
// resulting permutation (ties included) is identical.
type entrySorter struct {
	minD []float64
	idx  []int32
}

func (s *entrySorter) Len() int           { return len(s.idx) }
func (s *entrySorter) Less(a, b int) bool { return s.minD[s.idx[a]] < s.minD[s.idx[b]] }
func (s *entrySorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
