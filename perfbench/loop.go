package main

import (
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// sample is one client operation: a read call (one query, or a batch of
// them) or one acknowledged write.
type sample struct {
	kind  opKind
	at    time.Duration // start, relative to the window start
	wall  time.Duration // submit to return, as the client saw it
	reads int           // read queries the call carried (0 for writes)
}

// client is one closed-loop caller: it sends its next operation only
// after the previous one returned. Everything in it is owned by its
// goroutine while a window runs, so recording needs no locks.
type client struct {
	id  int
	rng *rand.Rand
	t0  time.Time

	ops       []sample
	sims      []float64 // simulated seconds, one per read query
	attempted int
	failed    int      // operations that returned an error or a wrong answer
	wrong     int      // ... of which wrong answers
	err       error    // the first failure of the window
	acc       layerAcc // traced windows only

	spans *spanLog // nil outside traced windows
	root  uint64   // span id of the operation in flight, also its request id
}

// begin starts an operation: it counts the attempt and, when tracing,
// reserves the operation's span so calls made for it can name it.
func (c *client) begin() time.Time {
	c.attempted++
	c.root = c.spans.newID()
	return time.Now()
}

// end records a finished operation and returns its wall time.
func (c *client) end(name string, kind opKind, start time.Time, reads int) time.Duration {
	now := time.Now()
	c.ops = append(c.ops, sample{kind: kind, at: start.Sub(c.t0), wall: now.Sub(start), reads: reads})
	c.spans.add(name, c.root, 0, c.root, start, now)
	return now.Sub(start)
}

// call records a span for one public call made on behalf of the
// operation in flight.
func (c *client) call(name string, start, end time.Time) {
	c.spans.add(name, 0, c.root, c.root, start, end)
}

// fail counts an operation that returned an error.
func (c *client) fail(err error) {
	c.failed++
	if c.err == nil {
		c.err = err
	}
}

// wrongAnswer counts an operation whose answer is wrong.
func (c *client) wrongAnswer(err error) {
	c.wrong++
	c.fail(err)
}

// runWindow runs op back to back on every client until d has elapsed,
// then waits for every client's last operation to return. Each window
// starts the clients' records afresh.
func runWindow(clients []*client, d time.Duration, spans *spanLog, op func(*client)) {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		c.t0, c.ops, c.sims, c.attempted, c.failed, c.wrong, c.err, c.acc = t0, nil, nil, 0, 0, 0, nil, layerAcc{}
		c.spans = spans
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Since(t0) < d {
				op(c)
			}
		}(c)
	}
	wg.Wait()
}

// layerAcc accumulates the per-layer figures of a traced window. The
// *_ms slices hold one sample per query (or per sub-query for the
// engine figures of a sharded workload).
type layerAcc struct {
	queueWaitMs, execMs, overheadMs, knnWallMs []float64
	shardSelfMs, straggler                     []float64
	insertMs, deleteMs                         []float64
	failovers                                  int

	queries                                   int // read queries whose traces were added
	dirBlocks, pagesRead, pagesPruned         int
	candidates, refinements, refinedPoints    int
	batches, batchPages, batchPending         int
	simDir, simQuant, simExact                float64
	approxQueries, approxSkipped, approxStops int
}

// addTrace folds one query trace (or one shard's part of a query) into
// the counters; the caller counts the query itself once.
func (a *layerAcc) addTrace(tr *obs.QueryTrace, approx bool) {
	if tr == nil {
		return
	}
	for _, l := range tr.Levels {
		t := l.Time(tr.SeekCost, tr.XferCost)
		switch {
		case strings.HasPrefix(l.File, core.DirFileName):
			a.dirBlocks += l.Blocks + l.CachedBlocks + l.SharedBlocks
			a.simDir += t
		case strings.HasPrefix(l.File, core.QFileName):
			a.simQuant += t
		case strings.HasPrefix(l.File, core.EFileName):
			a.simExact += t
		}
	}
	for _, b := range tr.Batches {
		a.batches++
		a.batchPages += b.Pages()
		a.batchPending += b.Pending
	}
	a.pagesRead += tr.PagesRead
	a.pagesPruned += tr.PagesPruned
	a.candidates += tr.Candidates
	a.refinements += tr.Refinements
	a.refinedPoints += tr.RefinedPoints
	if approx {
		a.approxSkipped += tr.SkippedPages
		if tr.Terminated {
			a.approxStops++
		}
	}
}

func (a *layerAcc) merge(b *layerAcc) {
	a.queueWaitMs = append(a.queueWaitMs, b.queueWaitMs...)
	a.execMs = append(a.execMs, b.execMs...)
	a.overheadMs = append(a.overheadMs, b.overheadMs...)
	a.knnWallMs = append(a.knnWallMs, b.knnWallMs...)
	a.shardSelfMs = append(a.shardSelfMs, b.shardSelfMs...)
	a.straggler = append(a.straggler, b.straggler...)
	a.insertMs = append(a.insertMs, b.insertMs...)
	a.deleteMs = append(a.deleteMs, b.deleteMs...)
	a.failovers += b.failovers
	a.queries += b.queries
	a.dirBlocks += b.dirBlocks
	a.pagesRead += b.pagesRead
	a.pagesPruned += b.pagesPruned
	a.candidates += b.candidates
	a.refinements += b.refinements
	a.refinedPoints += b.refinedPoints
	a.batches += b.batches
	a.batchPages += b.batchPages
	a.batchPending += b.batchPending
	a.simDir += b.simDir
	a.simQuant += b.simQuant
	a.simExact += b.simExact
	a.approxQueries += b.approxQueries
	a.approxSkipped += b.approxSkipped
	a.approxStops += b.approxStops
}
