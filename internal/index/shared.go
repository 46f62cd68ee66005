package index

import (
	"errors"

	"repro/internal/store"
	"repro/internal/vec"
)

// ErrStaleScan is reported by a shared-scan cursor (or FetchRun) whose
// pinned state was invalidated by an index reorganization that rewrites
// file regions in place. The coordinator recovers by restarting the
// affected queries on a fresh cursor; results stay exact, only the cost
// of the aborted attempt is kept.
var ErrStaleScan = errors.New("index: shared scan invalidated by reorganization")

// SharedLayout describes the physical layout of the level a shared scan
// fetches: fixed-size pages laid out consecutively in one file (page i
// starts at block i·PageBlocks).
type SharedLayout struct {
	PageBlocks int // blocks per page
	NumPages   int // page positions in the file right now (may grow)
}

// SharedPage is one fetched page offered to every cursor attached to a
// scan-sharing round. Codes bulk-decodes the page's cell codes on first
// use and caches them for every later caller in the round, so a page
// shared by many queries is decoded once; it is nil for pages whose
// payload stores exact coordinates (Bits == 32), which each cursor
// decodes into its own point arena from Payload. Neither Payload nor
// the Codes result may be retained past the delivery callback.
type SharedPage struct {
	Pos     int    // page position in the shared file
	Count   int    // points in the page
	Bits    int    // quantization level; 32 = exact payload
	Payload []byte // page payload (header stripped)
	Codes   func() []uint32
}

// Cursor is one query suspended at its page-fetch boundary: a resumable
// state machine the scan-sharing coordinator drives. A cursor belongs to
// one coordinator goroutine; none of its methods are safe for concurrent
// use. The driving protocol per round is: Step every cursor, gather
// Wants, plan, fetch each planned run once, Deliver the pages to every
// live cursor, repeat. Deliver and DeliverDegraded are invoked from
// inside FetchRun's delivery window (the scan holds its consistency lock
// there), so they must not re-enter the scan.
type Cursor interface {
	// Step advances the query until it either needs pages (done=false;
	// report them via Wants) or completed (done=true; Results is valid).
	// A non-nil error ends the query, except ErrStaleScan, which asks
	// the coordinator to restart it on a fresh cursor.
	Step() (done bool, err error)
	// Wants appends the page positions the cursor needs next to buf and
	// returns it. Positions re-appear in later rounds until delivered.
	Wants(buf []int) []int
	// AccessProb estimates the probability that the page at pos will be
	// needed by this query later in its run (0 for pages it has already
	// consumed, pruned, or will never touch). Pure in-memory state; the
	// coordinator calls it while planning, outside any fetch.
	AccessProb(pos int) float64
	// Deliver offers one fetched page. shared marks a page another
	// query's session paid for (this query records it as a zero-cost
	// shared read); the leader of the fetch gets shared=false and
	// accounts the transfer. Returns whether the cursor consumed the
	// page (irrelevant or already-processed pages are declined).
	Deliver(pg *SharedPage, shared bool) bool
	// DeliverDegraded reports that the page at pos is unreadable
	// (quarantined or corrupt). The cursor recovers through whatever
	// redundant path its index has, or records a typed error surfaced by
	// the next Step. Returns whether the cursor acted on the report.
	DeliverDegraded(pos int) bool
	// Results returns the query's final answer; valid only after Step
	// reported done.
	Results() ([]vec.Neighbor, error)
	// Close releases any cursor-held resources. Must be called once the
	// cursor is abandoned or finished.
	Close()
}

// SharedScan is a per-coordinator handle for scan-sharing query
// execution over one index: it creates cursors, reports the fetch
// layout, and performs the deduplicated page fetches of each round. The
// handle owns round-scoped decode scratch, so it must be confined to one
// coordinator goroutine; cursors from different handles over the same
// index are still isolated.
type SharedScan interface {
	// Layout returns the current physical layout of the shared level.
	Layout() SharedLayout
	// Gen returns the index's reorganization generation. FetchRun
	// validates it under the scan's consistency lock, so a plan computed
	// at one generation never reads regions rewritten by the next.
	Gen() uint64
	// KNN, Range and Window begin one resumable query charged to s.
	KNN(s *store.Session, q vec.Point, k int) Cursor
	Range(s *store.Session, q vec.Point, eps float64) Cursor
	Window(s *store.Session, w vec.MBR) Cursor
	// FetchRun reads pages [first, last] of the shared level through s
	// (the leader's session — it is charged for the whole run), invoking
	// page for each verified page and degraded for each quarantined or
	// corrupt one. When known or discovered damage forces page-granular
	// reads, only positions with wanted(pos)==true are fetched, so no
	// session pays for pages no query needs. Returns ErrStaleScan when
	// gen no longer matches.
	FetchRun(s *store.Session, gen uint64, first, last int, wanted func(pos int) bool,
		page func(pg *SharedPage), degraded func(pos int)) error
}

// SharedScanner is implemented by indexes that support scan-sharing
// execution. Indexes without it are served share-nothing by the engine
// regardless of its sharing mode.
type SharedScanner interface {
	Index
	NewSharedScan() SharedScan
}

// ApproxSharedScan is implemented by shared scans whose KNN cursors can
// execute under an Approx knob: the cursor stops wanting pages once the
// knob's termination rule fires, exactly like a direct KNNApprox
// call. Coordinators fall back to the exact KNN cursor for
// scans without it.
type ApproxSharedScan interface {
	SharedScan
	// KNNApprox begins one resumable approximate k-NN query charged to
	// s. A zero (or MinRecall = 1) knob is bit-identical to KNN.
	KNNApprox(s *store.Session, q vec.Point, k int, ap Approx) Cursor
}
