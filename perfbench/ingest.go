package main

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/vec"
)

// ingest-cad16-wal: a WAL-mode tree over 100k CAD points on a file store
// that caches the whole index. Each client op is 50% Tree.Insert, 20%
// Tree.Delete of a point the client inserted earlier, and 30% exact KNN
// through engine.Submit. WAL append and fsync, page rewrites,
// checkpoints and incremental reoptimization dominate.
//
// One client drives it, so a read never overlaps a write. Tree.Insert
// rewrites the directory with File.SetContents, which the file backend
// does as truncate-then-append; a concurrent read that misses the pool
// then sees a short iq.dir and fails with EOF. That is a defect of the
// store, not of the workload, and with two clients it made a few reads
// per run fail at random.
const (
	ingestClients  = 1
	ingestN        = 100_000
	ingestPool     = 20_000 // insert candidates per client
	ingestK        = 10
	ingestWorkers  = 2
	ingestCkpt     = 256 // Options.WALCheckpointBlocks
	ingestGarbage  = 0.5 // Options.AutoReoptimize.GarbageRatio
	ingestVerifyQs = 40  // KNN queries checked against brute force after reopening
)

type ingest struct {
	build   []vec.Point
	cand    [ingestClients][]vec.Point // insert candidates; client i inserts ids ingestN+i*ingestPool+j
	queries []vec.Point

	dir     string
	sto     *store.Store
	tree    *core.Tree
	eng     *engine.Engine
	sess    [ingestClients]*store.Session
	tracing bool

	// Per-client write state, owned by the client's goroutine: the next
	// candidate to insert, the acknowledged inserts not yet deleted, and
	// the points whose write returned an error, which may or may not have
	// taken effect.
	next  [ingestClients]int
	live  [ingestClients][]inserted
	maybe [ingestClients][]inserted
}

type inserted struct {
	id uint32
	p  vec.Point
}

func newIngest(seed int64) bench {
	pts := dataset.GenCAD(dataSeed, ingestN+ingestClients*ingestPool)
	w := &ingest{build: pts[:ingestN], queries: nearQueries(pts[:ingestN], 4096, 0.01, seed)}
	for i := range w.cand {
		w.cand[i] = pts[ingestN+i*ingestPool : ingestN+(i+1)*ingestPool]
	}
	return w
}

func (w *ingest) sizes() map[string]any {
	return map[string]any{"dataset": "cad", "n": ingestN, "d": 16, "k": ingestK,
		"engine_workers": ingestWorkers, "clients": ingestClients, "pool": "whole index",
		"mix": "50% insert, 20% delete, 30% knn", "wal_checkpoint_blocks": ingestCkpt,
		"reopt_garbage_ratio": ingestGarbage}
}

func (w *ingest) setup(dir string, dev *devStats) error {
	sto, err := openStore(dir, dev)
	if err != nil {
		return err
	}
	opt := core.DefaultOptions()
	opt.WAL = true
	opt.WALCheckpointBlocks = ingestCkpt
	opt.AutoReoptimize = core.AutoReoptPolicy{GarbageRatio: ingestGarbage}
	tree, err := core.Build(sto, w.build, opt)
	if err != nil {
		sto.Close()
		return err
	}
	cacheAll(sto)
	w.dir, w.sto, w.tree = dir, sto, tree
	w.eng = engine.New(sto, tree, ingestWorkers)
	for i := range w.sess {
		w.sess[i] = sto.NewSession()
		w.next[i], w.live[i], w.maybe[i] = 0, nil, nil
	}
	return nil
}

func (w *ingest) teardown() error {
	if w.eng == nil {
		return nil
	}
	w.eng.Close()
	err := w.sto.Close()
	w.eng, w.sto, w.tree = nil, nil, nil
	return err
}

func (w *ingest) trace() { w.tracing = true }

func (w *ingest) op(c *client) {
	live := w.live[c.id]
	switch u := c.rng.Float64(); {
	case u >= 0.7:
		w.read(c)
	case u >= 0.5 && len(live) > 0:
		w.delete(c)
	case w.next[c.id] < ingestPool:
		w.insert(c)
	default:
		w.read(c) // candidates used up
	}
}

func (w *ingest) insert(c *client) {
	j := w.next[c.id]
	w.next[c.id]++
	p := w.cand[c.id][j]
	id := uint32(ingestN + c.id*ingestPool + j)
	s := w.sess[c.id]
	s.Reset()
	start := c.begin()
	err := w.tree.Insert(s, p, id)
	wall := c.end("client.insert", opWrite, start, 0)
	c.call("core.Tree.Insert", start, start.Add(wall))
	if err != nil {
		c.fail(fmt.Errorf("insert %d: %w", id, err))
		w.maybe[c.id] = append(w.maybe[c.id], inserted{id: id, p: p})
		return
	}
	w.live[c.id] = append(w.live[c.id], inserted{id: id, p: p})
	if w.tracing {
		c.acc.insertMs = append(c.acc.insertMs, ms(wall))
	}
}

func (w *ingest) delete(c *client) {
	live := w.live[c.id]
	j := c.rng.Intn(len(live))
	victim := live[j]
	s := w.sess[c.id]
	s.Reset()
	start := c.begin()
	found, err := w.tree.Delete(s, victim.p, victim.id)
	wall := c.end("client.delete", opWrite, start, 0)
	c.call("core.Tree.Delete", start, start.Add(wall))
	live[j] = live[len(live)-1]
	w.live[c.id] = live[:len(live)-1]
	if err != nil {
		c.fail(fmt.Errorf("delete %d: %w", victim.id, err))
		w.maybe[c.id] = append(w.maybe[c.id], victim)
		return
	}
	if !found {
		c.wrongAnswer(fmt.Errorf("delete %d: acknowledged insert not found", victim.id))
		return
	}
	if w.tracing {
		c.acc.deleteMs = append(c.acc.deleteMs, ms(wall))
	}
}

func (w *ingest) read(c *client) {
	q := engine.Query{Kind: engine.KNN, Point: w.queries[c.rng.Intn(len(w.queries))], K: ingestK, Trace: w.tracing}
	start := c.begin()
	res := w.eng.Submit(q)
	wall := c.end("client.knn", opRead, start, 1)
	c.call("engine.Submit", start, start.Add(wall))
	if checkRead(c, q, res) && w.tracing {
		traceEngineRead(c, q, res, wall, w.tree, w.sess[c.id])
	}
}

func (w *ingest) dim() int { return 16 }

func (w *ingest) liveBytes() float64 { return float64(w.tree.Len() * 16 * 4) }

func (w *ingest) engines() []*engine.Engine { return []*engine.Engine{w.eng} }

func (w *ingest) pools() []*store.BufferPool { return []*store.BufferPool{w.sto.Pool()} }

// verify closes the stack, reopens the store with core.Open (replaying
// the WAL), and checks that the recovered tree holds exactly the build
// points plus every acknowledged insert not acknowledged as deleted
// (points whose write failed may be present or not), then checks KNN
// answers of the recovered tree against brute force.
func (w *ingest) verify(r *report) (checked, failed int, err error) {
	if err := w.teardown(); err != nil {
		return 0, 0, err
	}
	want := sequential(w.build).byID()
	maybe := map[uint32]vec.Point{}
	for i := range w.live {
		for _, in := range w.live[i] {
			want[in.id] = in.p
		}
		for _, in := range w.maybe[i] {
			maybe[in.id] = in.p
		}
	}
	sto, err := openStore(w.dir, nil)
	if err != nil {
		return 0, 0, err
	}
	defer sto.Close()
	tree, err := core.Open(sto)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	checked++
	have, err := checkContents(tree, want, maybe)
	if err != nil {
		failed++
		r.problem(err)
		return checked, failed, nil
	}
	byID := have.byID()
	s := sto.NewSession()
	for _, q := range w.queries[:ingestVerifyQs] {
		s.Reset()
		got, err := tree.KNN(s, q, ingestK)
		if err == nil {
			err = checkKNN(have, byID, q, ingestK, got)
		}
		checked++
		if err != nil {
			failed++
			r.problem(fmt.Errorf("after reopen: %w", err))
		}
	}
	return checked, failed, nil
}

// checkContents compares every live (point, id) of tree with want; ids
// in maybe may be present or absent. It returns the tree's contents.
func checkContents(tree *core.Tree, want, maybe map[uint32]vec.Point) (pointSet, error) {
	pts, ids, err := tree.AllPoints()
	if err != nil {
		return pointSet{}, fmt.Errorf("after reopen: %w", err)
	}
	var errs []error
	seen := make(map[uint32]bool, len(ids))
	found := 0
	for i, id := range ids {
		p, ok := want[id]
		if ok {
			found++
		} else {
			p, ok = maybe[id]
		}
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("id %d present but never acknowledged or acknowledged deleted", id))
		case seen[id]:
			errs = append(errs, fmt.Errorf("id %d present twice", id))
		case !p.Equal(pts[i]):
			errs = append(errs, fmt.Errorf("id %d has other coordinates", id))
		}
		seen[id] = true
		if len(errs) > 3 {
			break
		}
	}
	if len(errs) == 0 && found != len(want) {
		errs = append(errs, fmt.Errorf("%d of %d acknowledged points missing", len(want)-found, len(want)))
	}
	if len(errs) > 0 {
		return pointSet{}, fmt.Errorf("after reopen: %w", errors.Join(errs...))
	}
	return pointSet{pts: pts, ids: ids}, nil
}
