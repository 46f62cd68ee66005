package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/pagesched"
	"repro/internal/store"
	"repro/internal/vec"
)

// Scan-sharing execution (WithScanSharing): instead of one worker
// driving one monolithic query, a single coordinator multiplexes up to
// shareWindow in-flight queries as resumable cursors. Each round it
//
//  1. steps every cursor to its next page-fetch boundary (finished
//     queries are finalized and their slots refilled from the queue),
//  2. gathers the union of wanted pages and plans one deduplicated read
//     schedule with the cross-query cumulated-cost-balance batcher
//     (pagesched.BatchAll) — no block is fetched twice per round,
//  3. fetches each planned span once through the leader query's session
//     (the first wanting query, which accounts the transfer exactly like
//     its share-nothing batch would) and offers every page to all live
//     cursors; co-attached queries consume it as a zero-cost shared read.
//
// Per-query semantics survive sharing: results are identical to
// share-nothing execution, Query.Ctx cancellation is honored at every
// round boundary and at the leader's fetches, degraded/quarantined pages
// take the same per-query recovery paths, and a panic in one cursor
// fails only that query. A reorganization between rounds invalidates
// cursors typed (index.ErrStaleScan) and the coordinator restarts them
// on fresh cursors, bounded by maxSharedRestarts.

// maxSharedRestarts bounds how many times one query is restarted after
// reorganizations invalidated its cursor before it fails with
// ErrStaleScan — progress insurance against a pathological writer that
// reorganizes faster than queries complete.
const maxSharedRestarts = 8

// sharedQuery is one in-flight query of the scan-sharing coordinator.
type sharedQuery struct {
	job      job
	s        *store.Session
	cur      index.Cursor
	lane     int // busy-ledger lane (round-robin, models one disk per worker)
	start    time.Time
	restarts int
	finished bool
	panicked bool
	wants    []int // per-round scratch
}

// canceled reports whether the query's context is already done. A
// canceled query must not lead a span fetch: its session fails the read
// at the next cancellation check, aborting the whole span for everyone
// attached to it — and the doomed query would still be charged the
// transfer.
func (sq *sharedQuery) canceled() bool {
	return sq.job.q.Ctx != nil && sq.job.q.Ctx.Err() != nil
}

// coordinator is the scan-sharing main loop; it replaces the worker pool.
func (e *Engine) coordinator() {
	defer e.wg.Done()
	var active []*sharedQuery
	open := true
	lane := 0
	for open || len(active) > 0 {
		active = e.admit(active, &open, &lane)
		if len(active) == 0 {
			continue
		}
		active = e.round(active)
		// Yield between rounds for the same reason workers yield between
		// queries: warmed rounds run without preemption points.
		runtime.Gosched()
	}
}

// admit refills the active set from the queue up to the share window,
// blocking only when there is nothing in flight at all.
func (e *Engine) admit(active []*sharedQuery, open *bool, lane *int) []*sharedQuery {
	for *open && len(active) < e.shareWindow {
		var j job
		var ok bool
		if len(active) == 0 {
			j, ok = <-e.queue // idle: block until work or Close
		} else {
			select {
			case j, ok = <-e.queue:
			default:
				return active // don't stall in-flight queries on admission
			}
		}
		if !ok {
			*open = false
			return active
		}
		e.queueDepth.Add(-1)
		if sq := e.startShared(j, *lane%e.workers); sq != nil {
			active = append(active, sq)
		}
		*lane++
	}
	return active
}

// startShared prepares one admitted query: pooled session, optional
// trace, context, cursor. Returns nil when the query already finished
// (cursor construction panicked).
func (e *Engine) startShared(j job, lane int) *sharedQuery {
	s := e.sessions.Get().(*store.Session)
	s.Reset()
	sq := &sharedQuery{job: j, s: s, lane: lane, start: time.Now()}
	q := j.q
	if q.Trace {
		j.res.Trace = obs.NewQueryTrace(q.Kind.String())
		cfg := e.sto.Config()
		j.res.Trace.SetCosts(cfg.Seek, cfg.Xfer)
		s.SetObserver(j.res.Trace)
	}
	if q.Ctx != nil {
		s.SetContext(q.Ctx)
	}
	e.guard(sq, func() { sq.cur = e.newCursor(q, s) })
	if sq.panicked || sq.cur == nil {
		e.finishShared(sq)
		return nil
	}
	return sq
}

// newCursor dispatches on the (already validated) query kind.
func (e *Engine) newCursor(q Query, s *store.Session) index.Cursor {
	switch q.Kind {
	case KNN:
		if ap := q.approx(); ap.Enabled() {
			e.approxQs.Inc()
			if as, ok := e.scan.(index.ApproxSharedScan); ok {
				return as.KNNApprox(s, q.Point, q.K, ap)
			}
			// No approximate cursor support: run exact (same fallback as
			// the share-nothing dispatch).
		}
		return e.scan.KNN(s, q.Point, q.K)
	case Range:
		return e.scan.Range(s, q.Point, q.Eps)
	default:
		return e.scan.Window(s, q.Window)
	}
}

// guard runs one cursor interaction, converting a panic into the query's
// failure so a poisoned query cannot kill the coordinator (which would
// wedge every other in-flight query).
func (e *Engine) guard(sq *sharedQuery, f func()) {
	defer func() {
		if r := recover(); r != nil {
			sq.panicked = true
			sq.job.res.Neighbors = nil
			sq.job.res.Err = fmt.Errorf("%w: %s query: %v", ErrPanicked, sq.job.q.Kind, r)
			e.panics.Inc()
		}
	}()
	f()
}

// finishShared finalizes one query exactly like the share-nothing run
// path: sticky session error check, wall/stats/simulated time, metrics,
// busy-lane accounting, session back to the pool (unless panicked).
func (e *Engine) finishShared(sq *sharedQuery) {
	if sq.finished {
		return
	}
	sq.finished = true
	if sq.cur != nil {
		sq.cur.Close()
	}
	res := sq.job.res
	if res.Err == nil {
		res.Err = sq.s.Err()
	}
	res.Wall = time.Since(sq.start)
	res.Stats = sq.s.Stats
	res.SimTime = sq.s.Time()
	e.account(sq.lane, res)
	if !sq.panicked {
		e.sessions.Put(sq.s)
	}
	sq.job.done.Done()
}

// stepShared advances one query to its next fetch boundary, handling
// cancellation, stale-cursor restarts, and completion. Reports whether
// the query finished.
func (e *Engine) stepShared(sq *sharedQuery) bool {
	q := sq.job.q
	for {
		if q.Ctx != nil {
			if cerr := q.Ctx.Err(); cerr != nil {
				if sq.job.res.Err == nil {
					sq.job.res.Err = fmt.Errorf("%w: %w", ErrCanceled, cerr)
				}
				e.finishShared(sq)
				return true
			}
		}
		var done bool
		var err error
		e.guard(sq, func() { done, err = sq.cur.Step() })
		if sq.panicked {
			e.finishShared(sq)
			return true
		}
		if errors.Is(err, index.ErrStaleScan) {
			sq.restarts++
			if sq.restarts > e.maxRestarts {
				e.sharedExhausted.Inc()
				sq.job.res.Err = fmt.Errorf("%w: %w", ErrTooManyRestarts, err)
				e.finishShared(sq)
				return true
			}
			e.sharedRestarts.Inc()
			sq.cur.Close()
			sq.cur = nil
			e.guard(sq, func() { sq.cur = e.newCursor(q, sq.s) })
			if sq.panicked || sq.cur == nil {
				e.finishShared(sq)
				return true
			}
			continue // drive the fresh cursor to its first fetch boundary
		}
		if done {
			var nbs []vec.Neighbor
			var rerr error
			e.guard(sq, func() { nbs, rerr = sq.cur.Results() })
			if !sq.panicked {
				sq.job.res.Neighbors = nbs
				if sq.job.res.Err == nil {
					if err != nil {
						sq.job.res.Err = err
					} else {
						sq.job.res.Err = rerr
					}
				}
			}
			e.finishShared(sq)
			return true
		}
		if err != nil {
			sq.job.res.Err = err
			e.finishShared(sq)
			return true
		}
		return false
	}
}

// round runs one coordinator round: step, plan, fetch, deliver. Returns
// the still-live queries.
func (e *Engine) round(active []*sharedQuery) []*sharedQuery {
	live := active[:0]
	for _, sq := range active {
		if !e.stepShared(sq) {
			live = append(live, sq)
		}
	}
	active = live
	if len(active) == 0 {
		return active
	}
	e.sharedRounds.Inc()

	// Union of wanted pages; the first wanting query leads a page's fetch.
	owner := make(map[int]*sharedQuery, len(active))
	var wants []int
	for _, sq := range active {
		sq.wants = sq.cur.Wants(sq.wants[:0])
		for _, p := range sq.wants {
			if _, ok := owner[p]; !ok {
				owner[p] = sq
				wants = append(wants, p)
			}
		}
	}
	if len(wants) == 0 {
		return active // defensive: a live cursor always wants pages
	}
	sort.Ints(wants)

	// Cross-query plan: wanted pages are certain (probability 1); between
	// them the combined probability that any in-flight query will need
	// the page decides whether to read through the gap.
	layout := e.scan.Layout()
	gen := e.scan.Gen()
	sched := &pagesched.Scheduler{
		Cfg:        e.sto.Config(),
		PageBlocks: layout.PageBlocks,
		NumPages:   layout.NumPages,
		Prob: func(pos int) float64 {
			if _, ok := owner[pos]; ok {
				return 1
			}
			miss := 1.0
			for _, sq := range active {
				if sq.finished {
					continue
				}
				miss *= 1 - sq.cur.AccessProb(pos)
				if miss < pagesched.ProbFloor {
					return 1
				}
			}
			return 1 - miss
		},
	}
	spans := sched.BatchAll(nil, wants)

	wantedFn := func(pos int) bool { _, ok := owner[pos]; return ok }
	for _, span := range spans {
		leader := spanLeader(span, wants, owner)
		if leader == nil {
			continue // every wanting query in this span already failed
		}
		err := e.scan.FetchRun(leader.s, gen, span.First, span.Last, wantedFn,
			func(pg *index.SharedPage) { e.deliver(active, leader, pg) },
			func(pos int) { e.deliverDegraded(active, pos) },
		)
		if err != nil {
			if errors.Is(err, index.ErrStaleScan) {
				break // plan is stale; next round's Steps restart the cursors
			}
			// The leader's session failed the fetch (hard read error or
			// cancellation); only the leader fails. Other queries re-want
			// their undelivered pages next round under a new leader.
			leader.job.res.Err = err
			e.finishShared(leader)
		}
	}

	live = active[:0]
	for _, sq := range active {
		if !sq.finished {
			live = append(live, sq)
		}
	}
	return live
}

// spanLeader returns the first live, non-canceled query owning a want
// inside the span. Skipping just-canceled owners matters: a canceled
// leader's session fails the fetch at its first cancellation check,
// which would both charge the doomed query for a transfer it never uses
// and abort the span for every co-attached query. The canceled query is
// finalized by the next round's step instead.
func spanLeader(span pagesched.PageSpan, wants []int, owner map[int]*sharedQuery) *sharedQuery {
	for i := sort.SearchInts(wants, span.First); i < len(wants) && wants[i] <= span.Last; i++ {
		if sq := owner[wants[i]]; !sq.finished && !sq.canceled() {
			return sq
		}
	}
	return nil
}

// deliver fans one fetched page out to every live cursor, leader first
// (it accounts the transfer the share-nothing way; co-attached queries
// record a zero-cost shared read).
func (e *Engine) deliver(active []*sharedQuery, leader *sharedQuery, pg *index.SharedPage) {
	e.sharedFetched.Inc()
	if !leader.finished {
		e.deliverOne(leader, pg, false)
	}
	for _, sq := range active {
		if sq == leader || sq.finished {
			continue
		}
		e.deliverOne(sq, pg, true)
	}
}

func (e *Engine) deliverOne(sq *sharedQuery, pg *index.SharedPage, shared bool) {
	used := false
	e.guard(sq, func() { used = sq.cur.Deliver(pg, shared) })
	if sq.panicked {
		e.finishShared(sq)
		return
	}
	if used {
		e.sharedServes.Inc()
	}
}

// deliverDegraded reports one unreadable page to every live cursor; each
// recovers through its own redundant path (or records a typed error).
func (e *Engine) deliverDegraded(active []*sharedQuery, pos int) {
	for _, sq := range active {
		if sq.finished {
			continue
		}
		e.guard(sq, func() { sq.cur.DeliverDegraded(pos) })
		if sq.panicked {
			e.finishShared(sq)
		}
	}
}
