package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vec"
)

// batch-clu64-sharded: batches of 32 queries near one base point over
// 100k clustered 64-d points, scatter-gathered across 4 shards whose
// engines share scans and whose buffer pools hold 1/8 of their index.
// Shard merge, the scan-sharing coordinator, pagesched batch planning
// and pool misses do the work; range, window and approximate cursors
// run too.
const (
	batchN         = 100_000
	batchD         = 64
	batchClusters  = 40
	batchSigma     = 0.08
	batchShards    = 4
	batchWorkers   = 8
	batchSize      = 32
	batchK         = 10
	batchMinRecall = 0.9
	batchJitter    = 0.02 // per-coordinate spread of a batch around its base
	batchResults   = 20   // range and window queries are sized for ~this many answers
	batchKeep      = 3    // batches per client kept for the oracle
	batchEvery     = 8    // keep every batchEvery-th batch
)

type batch struct {
	data      pointSet
	eps, half float64 // range radius and window half-side

	coord   *shard.Coordinator
	stores  []*store.Store
	trees   []*core.Tree
	sess    [clients]*store.Session // direct core calls on shard 0
	tracing bool
	kept    [clients][]answer
}

func newBatch(seed int64) bench {
	pts := dataset.GenClustered(dataSeed, batchN, batchD, batchClusters, batchSigma)
	b := &batch{data: sequential(pts)}
	b.eps, b.half = b.calibrate()
	return b
}

// calibrate sizes range and window queries from the data: the median,
// over sample queries, of the batchResults-th smallest Euclidean and
// maximum-metric distance to a data point.
func (b *batch) calibrate() (eps, half float64) {
	var l2s, linfs []float64
	l2 := make([]float64, len(b.data.pts))
	linf := make([]float64, len(b.data.pts))
	for _, q := range nearQueries(b.data.pts, 16, batchJitter, dataSeed) {
		for i, p := range b.data.pts {
			l2[i] = vec.Euclidean.Dist(p, q)
			linf[i] = vec.Maximum.Dist(p, q)
		}
		slices.Sort(l2)
		slices.Sort(linf)
		l2s = append(l2s, l2[batchResults-1])
		linfs = append(linfs, linf[batchResults-1])
	}
	return median(l2s), median(linfs)
}

func (b *batch) sizes() map[string]any {
	return map[string]any{"dataset": "clustered", "n": batchN, "d": batchD, "clusters": batchClusters,
		"sigma": batchSigma, "shards": batchShards, "replicas": 1, "engine_workers": batchWorkers,
		"scan_sharing": true, "batch": batchSize, "k": batchK, "min_recall": batchMinRecall,
		"mix": "50% knn, 20% approx knn, 15% range, 15% window", "range_eps": b.eps,
		"window_half_side": b.half, "clients": clients, "pool": "1/8 of each shard's index"}
}

func (b *batch) setup(dir string, dev *devStats) error {
	b.stores = make([]*store.Store, batchShards)
	b.trees = make([]*core.Tree, batchShards)
	cur := 0
	coord, err := shard.New(shard.Config{
		Shards:     batchShards,
		Replicas:   1,
		Workers:    batchWorkers,
		EngineOpts: []engine.Option{engine.WithScanSharing()},
		NewStore: func(si, _ int) (*store.Store, error) {
			sto, err := openStore(filepath.Join(dir, fmt.Sprintf("shard%d", si)), dev)
			cur, b.stores[si] = si, sto
			return sto, err
		},
		Build: func(sto *store.Store, pts []vec.Point) (index.Index, error) {
			t, err := core.Build(sto, pts, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			sto.SetCache(storeBytes(sto) / 8)
			b.trees[cur] = t
			return t, nil
		},
	}, b.data.pts)
	if err != nil {
		b.closeStores()
		return err
	}
	b.coord = coord
	for i := range b.sess {
		b.sess[i] = b.stores[0].NewSession()
	}
	return nil
}

func (b *batch) closeStores() error {
	var first error
	for _, sto := range b.stores {
		if sto != nil {
			if err := sto.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	b.stores, b.trees = nil, nil
	return first
}

func (b *batch) teardown() error {
	if b.coord == nil {
		return nil
	}
	b.coord.Close()
	b.coord = nil
	return b.closeStores()
}

func (b *batch) trace() { b.tracing = true }

// queries draws one batch: jittered copies of a random base point with
// the workload's mix of query kinds.
func (b *batch) queries(c *client) []engine.Query {
	base := b.data.pts[c.rng.Intn(len(b.data.pts))]
	qs := make([]engine.Query, batchSize)
	for i := range qs {
		p := perturb(base, batchJitter, c.rng)
		q := engine.Query{Kind: engine.KNN, Point: p, K: batchK, Trace: b.tracing}
		switch u := c.rng.Float64(); {
		case u < 0.5:
		case u < 0.7:
			q.MinRecall = batchMinRecall
		case u < 0.85:
			q = engine.Query{Kind: engine.Range, Point: p, Eps: b.eps, Trace: b.tracing}
		default:
			w := vec.NewMBR(batchD)
			for j, v := range p {
				w.Lo[j], w.Hi[j] = v-float32(b.half), v+float32(b.half)
			}
			q = engine.Query{Kind: engine.Window, Window: w, Trace: b.tracing}
		}
		qs[i] = q
	}
	return qs
}

func (b *batch) op(c *client) {
	qs := b.queries(c)
	start := c.begin()
	rs := b.coord.SubmitBatch(qs)
	wall := c.end("client.batch", opRead, start, len(qs))
	c.call("shard.Coordinator.SubmitBatch", start, start.Add(wall))
	ok := true
	for i, res := range rs {
		er := engine.Result{Neighbors: res.Neighbors, Err: res.Err, SimTime: res.SimTime}
		if !checkRead(c, qs[i], er) {
			ok = false
			continue
		}
		if b.tracing {
			b.traceQuery(c, qs[i], res)
		}
	}
	if ok && c.attempted%batchEvery == 0 && len(b.kept[c.id]) < batchKeep*batchSize {
		for i, res := range rs {
			b.kept[c.id] = append(b.kept[c.id], answer{q: qs[i], got: cloneNeighbors(res.Neighbors)})
		}
	}
}

// traceQuery records the shard and engine figures of one coordinated
// query: coordinator self time over the slowest shard, the straggler
// ratio, each shard's queue wait and execution, and for exact KNN a
// direct call on shard 0's tree for the engine overhead.
func (b *batch) traceQuery(c *client, q engine.Query, res shard.Result) {
	approx := q.MinRecall > 0
	c.acc.queries++
	c.acc.failovers += res.Failovers
	if approx {
		c.acc.approxQueries++
	}
	walls := make([]float64, 0, len(res.Shards))
	for _, sr := range res.Shards {
		walls = append(walls, ms(sr.Wall))
		c.acc.queueWaitMs = append(c.acc.queueWaitMs, ms(res.Wall-sr.Wall))
		c.acc.execMs = append(c.acc.execMs, ms(sr.Wall))
		c.acc.addTrace(sr.Trace, approx)
	}
	slowest := slices.Max(walls)
	c.acc.shardSelfMs = append(c.acc.shardSelfMs, ms(res.Wall)-slowest)
	c.acc.straggler = append(c.acc.straggler, ratio(slowest, median(walls)))
	if q.Kind == engine.KNN && !approx && c.acc.queries%directEvery == 0 {
		d := directKNN(c, b.trees[0], b.sess[c.id], q)
		c.acc.knnWallMs = append(c.acc.knnWallMs, ms(d))
		c.acc.overheadMs = append(c.acc.overheadMs, ms(res.Shards[0].Wall-d))
	}
}

func (b *batch) dim() int           { return batchD }
func (b *batch) liveBytes() float64 { return float64(batchN * batchD * 4) }

func (b *batch) engines() []*engine.Engine {
	var es []*engine.Engine
	for si := 0; si < batchShards; si++ {
		es = append(es, b.coord.Engine(si, 0))
	}
	return es
}

func (b *batch) pools() []*store.BufferPool {
	var ps []*store.BufferPool
	for _, sto := range b.stores {
		ps = append(ps, sto.Pool())
	}
	return ps
}

// verify checks the kept exact answers against brute force and scores
// the approximate ones: the mean realized recall must reach the
// requested MinRecall.
func (b *batch) verify(r *report) (checked, failed int, err error) {
	byID := b.data.byID()
	var recalls []float64
	for _, kept := range b.kept {
		for _, a := range kept {
			q := a.q
			var err error
			switch {
			case q.Kind == engine.KNN && q.MinRecall > 0:
				recalls = append(recalls, recall(b.data, q.Point, q.K, a.got))
				err = checkGenuine(byID, q.Point, q.K, a.got)
			case q.Kind == engine.KNN:
				err = checkKNN(b.data, byID, q.Point, q.K, a.got)
			case q.Kind == engine.Range:
				err = checkRange(b.data, q.Point, q.Eps, a.got)
			default:
				err = checkWindow(b.data, q.Window, a.got)
			}
			checked++
			if err != nil {
				failed++
				r.problem(err)
			}
		}
	}
	deficit := 0.0
	if len(recalls) > 0 {
		deficit = math.Max(0, batchMinRecall-mean(recalls))
		r.set("approx_recall", mean(recalls))
	}
	r.set("recall_deficit", deficit)
	checked++
	if deficit > 0 {
		failed++
		r.problem(fmt.Errorf("approximate knn: mean recall %.4f below the requested %.2f over %d queries",
			mean(recalls), batchMinRecall, len(recalls)))
	}
	return checked, failed, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
