package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// knn-cad16-hot: exact 10-NN over 300k CAD points on one unsharded
// engine whose file store caches the whole index. No device reads, no
// shards, no scan sharing and no WAL: wall time is the level-2
// quantized filter plus level-3 refinement.
const (
	hotN       = 300_000
	hotK       = 10
	hotWorkers = 2
	hotKeep    = 60 // answers per client kept for the oracle
	hotEvery   = 64 // keep every hotEvery-th answer
)

type hot struct {
	data    pointSet
	queries []vec.Point

	sto     *store.Store
	tree    *core.Tree
	eng     *engine.Engine
	sess    [clients]*store.Session // direct core calls of traced runs
	tracing bool
	kept    [clients][]answer
}

// answer is one retained query and what the stack returned for it.
type answer struct {
	q   engine.Query
	got []vec.Neighbor
}

func newHot(seed int64) bench {
	pts := dataset.GenCAD(dataSeed, hotN)
	return &hot{data: sequential(pts), queries: nearQueries(pts, 4096, 0.01, seed)}
}

// nearQueries draws n query points near random data points: each
// coordinate moves by a normal deviate of the given sigma.
func nearQueries(pts []vec.Point, n int, sigma float64, seed int64) []vec.Point {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	qs := make([]vec.Point, n)
	for i := range qs {
		qs[i] = perturb(pts[rng.Intn(len(pts))], sigma, rng)
	}
	return qs
}

func perturb(p vec.Point, sigma float64, rng *rand.Rand) vec.Point {
	q := make(vec.Point, len(p))
	for j := range p {
		q[j] = p[j] + float32(rng.NormFloat64()*sigma)
	}
	return q
}

// openStore opens a file store in dir, timed when dev is non-nil.
func openStore(dir string, dev *devStats) (*store.Store, error) {
	fb, err := store.OpenFileBackend(dir, store.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if dev == nil {
		return store.Wrap(fb), nil
	}
	return store.Wrap(newTimedStore(fb, dev)), nil
}

// storeBytes is the size of every file of the store.
func storeBytes(sto *store.Store) int64 {
	b := sto.Backend()
	var n int64
	for _, name := range b.Names() {
		if f := b.Lookup(name); f != nil {
			n += int64(f.Bytes())
		}
	}
	return n
}

// cacheAll gives sto a buffer pool that holds its whole index, with
// headroom for pages rewritten by writes.
func cacheAll(sto *store.Store) { sto.SetCache(storeBytes(sto)*5/4 + 1<<20) }

func (h *hot) sizes() map[string]any {
	return map[string]any{"dataset": "cad", "n": hotN, "d": 16, "k": hotK,
		"engine_workers": hotWorkers, "clients": clients, "pool": "whole index"}
}

func (h *hot) setup(dir string, dev *devStats) error {
	sto, err := openStore(dir, dev)
	if err != nil {
		return err
	}
	tree, err := core.Build(sto, h.data.pts, core.DefaultOptions())
	if err != nil {
		sto.Close()
		return err
	}
	cacheAll(sto)
	h.sto, h.tree = sto, tree
	h.eng = engine.New(sto, tree, hotWorkers)
	for i := range h.sess {
		h.sess[i] = sto.NewSession()
	}
	return nil
}

func (h *hot) teardown() error {
	if h.eng == nil {
		return nil
	}
	h.eng.Close()
	err := h.sto.Close()
	h.eng, h.sto, h.tree = nil, nil, nil
	return err
}

func (h *hot) trace() { h.tracing = true }

func (h *hot) op(c *client) {
	q := engine.Query{Kind: engine.KNN, Point: h.queries[c.rng.Intn(len(h.queries))], K: hotK, Trace: h.tracing}
	start := c.begin()
	res := h.eng.Submit(q)
	wall := c.end("client.knn", opRead, start, 1)
	c.call("engine.Submit", start, start.Add(wall))
	if !checkRead(c, q, res) {
		return
	}
	if c.attempted%hotEvery == 0 && len(h.kept[c.id]) < hotKeep {
		h.kept[c.id] = append(h.kept[c.id], answer{q: q, got: cloneNeighbors(res.Neighbors)})
	}
	if h.tracing {
		traceEngineRead(c, q, res, wall, h.tree, h.sess[c.id])
	}
}

// checkRead counts a failed or malformed read and records the simulated
// time of a good one. It reports whether the read succeeded.
func checkRead(c *client, q engine.Query, res engine.Result) bool {
	if res.Err != nil {
		c.fail(res.Err)
		return false
	}
	if q.Kind == engine.KNN && !sortedByDist(res.Neighbors, q.K) {
		c.wrongAnswer(fmt.Errorf("knn: %d neighbors out of order or missing, want %d", len(res.Neighbors), q.K))
		return false
	}
	c.sims = append(c.sims, res.SimTime)
	return true
}

// traceEngineRead records the layer figures of one traced engine read:
// queue wait and execution from the engine's Result, the query trace,
// and a direct Tree.KNNTrace of the same query for the engine overhead.
func traceEngineRead(c *client, q engine.Query, res engine.Result, wall time.Duration, tree *core.Tree, s *store.Session) {
	c.acc.queries++
	c.acc.addTrace(res.Trace, false)
	c.acc.queueWaitMs = append(c.acc.queueWaitMs, ms(wall-res.Wall))
	c.acc.execMs = append(c.acc.execMs, ms(res.Wall))
	if c.attempted%directEvery != 0 {
		return
	}
	d := directKNN(c, tree, s, q)
	c.acc.knnWallMs = append(c.acc.knnWallMs, ms(d))
	c.acc.overheadMs = append(c.acc.overheadMs, ms(res.Wall-d))
}

// directEvery samples the direct core calls of traced runs: one query in
// directEvery is repeated on the tree itself, which bounds the extra load
// they add to the traced window.
const directEvery = 4

// directKNN runs q on the tree itself, bypassing the engine, and returns
// its wall time.
func directKNN(c *client, tree *core.Tree, s *store.Session, q engine.Query) time.Duration {
	s.Reset()
	start := time.Now()
	_, err := tree.KNNTrace(s, q.Point, q.K, obs.NewQueryTrace(""))
	end := time.Now()
	c.call("core.Tree.KNNTrace", start, end)
	if err != nil {
		c.fail(fmt.Errorf("direct knn: %w", err))
	}
	return end.Sub(start)
}

func (h *hot) dim() int                  { return 16 }
func (h *hot) liveBytes() float64        { return float64(hotN * 16 * 4) }
func (h *hot) engines() []*engine.Engine { return []*engine.Engine{h.eng} }
func (h *hot) pools() []*store.BufferPool {
	return []*store.BufferPool{h.sto.Pool()}
}

func (h *hot) verify(r *report) (checked, failed int, err error) {
	byID := h.data.byID()
	for _, kept := range h.kept {
		for _, a := range kept {
			checked++
			if err := checkKNN(h.data, byID, a.q.Point, a.q.K, a.got); err != nil {
				failed++
				r.problem(err)
			}
		}
	}
	return checked, failed, nil
}
