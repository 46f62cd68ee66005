// Command perfbench is the repository's reference benchmark. It drives
// the IQ-tree stack only through its public entry points (shard.New and
// Coordinator.SubmitBatch, engine.New and Submit, core.Build, Open,
// Tree.Insert, Delete and KNNTrace, store.OpenFileBackend and
// store.Wrap) on three fixed workloads, checks the answers against brute
// force, and prints every metric by name with its unit. The last line
// of its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics of an untraced run (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). See README.md.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload knn-cad16-hot --seed 1 --seconds 20 --trace 0
//	perfbench --steady 10 --workload batch-clu64-sharded --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

const (
	clients   = 2 // closed-loop callers (the reference host has 2 cores)
	setupReps = 3 // set-ups per run; setup_s is their median
	outDir    = ".bench_build/perfbench"

	// dataSeed generates every workload's points: the data set is part
	// of the workload's definition, so runs differ only in the request
	// stream (queries, batches, write mix), which --seed drives.
	dataSeed = 1
)

// bench is one workload's serving stack and operation mix.
type bench interface {
	// sizes describes the workload's inputs for the report.
	sizes() map[string]any
	// setup builds the serving stack in dir from the generated points;
	// dev is non-nil when the file backends are to be timed.
	setup(dir string, dev *devStats) error
	// teardown stops and closes the stack; once closed, it does nothing.
	teardown() error
	// op runs one client operation, recording it on c.
	op(c *client)
	// trace switches the layer instrumentation of later ops on.
	trace()
	// dim is the dimensionality of the points.
	dim() int
	// liveBytes is live points x d x 4, the space_amp denominator.
	liveBytes() float64
	// engines and pools expose the stack's counters for the layer
	// metrics.
	engines() []*engine.Engine
	pools() []*store.BufferPool
	// verify checks the answers retained during the run against brute
	// force (and, where the workload writes, the state after reopening),
	// returning the checks made and the wrong answers found.
	verify(r *report) (checked, failed int, err error)
}

var workloads = []struct {
	name    string
	make    func(seed int64) bench
	clients int
}{
	{"knn-cad16-hot", newHot, clients},
	{"batch-clu64-sharded", newBatch, clients},
	{"ingest-cad16-wal", newIngest, ingestClients},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and report the spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, nclients := lookupWorkload(*name)
	if mk == nil || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 2, --trace 0|1\n", workloadNames())
		return 2
	}
	if *steady > 0 {
		return runSteady(*name, *seed, *seconds, *steady, stdout, stderr)
	}
	r, err := runOnce(*name, mk, nclients, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.print(stdout)
	if err := r.save(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if r.Wrong > 0 {
		return 1
	}
	return 0
}

func lookupWorkload(name string) (mk func(int64) bench, nclients int) {
	for _, w := range workloads {
		if w.name == name {
			return w.make, w.clients
		}
	}
	return nil, 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runOnce generates the inputs, sets the stack up setupReps times, warms
// it with nclients closed-loop clients, measures it for d and verifies
// the answers. A traced run measures
// d/2 untraced and then d/2 traced, so it reports its own overhead.
func runOnce(name string, mk func(int64) bench, nclients int, seed int64, d time.Duration, traced bool) (*report, error) {
	r := newReport(name, seed, d, traced)
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := mk(seed)
	r.Sizes = b.sizes()
	var dev *devStats
	var spans *spanLog
	if traced {
		spans = newSpanLog()
		dev = &devStats{spans: spans}
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := b.setup(dir, dev); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := b.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	defer b.teardown() // a no-op once the stack is closed
	r.set("setup_s", median(setups))
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("heap_mb", float64(m.HeapAlloc)/(1<<20))

	cs := make([]*client, nclients)
	for i := range cs {
		cs[i] = &client{id: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
	}
	runWindow(cs, warmup(d), nil, b.op)
	r.count(cs)

	if !traced {
		stop := sampleSpace(dir, b.liveBytes, r)
		runWindow(cs, d, nil, b.op)
		stop()
		r.endToEnd(cs, d)
	} else {
		half := d / 2
		runWindow(cs, half, nil, b.op)
		base := opsPerSecond(cs, half)
		r.count(cs)
		b.trace()
		dev.recording.Store(true)
		before := takeCounters(b, dev)
		runWindow(cs, half, spans, b.op)
		dev.recording.Store(false)
		r.layers(cs, half, b, dev, before)
		r.set("trace.overhead_frac", 1-opsPerSecond(cs, half)/base)
		r.count(cs)
	}

	checked, failed, err := b.verify(r)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	r.Attempted += checked
	r.Failed += failed
	r.Wrong += failed
	r.set("failed_frac", ratio(float64(r.Failed), float64(r.Attempted)))
	if err := b.teardown(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if spans != nil {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		r.SpanFile = filepath.Join(outDir, r.stem()+".spans.jsonl")
		if err := spans.write(r.SpanFile); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// warmup is the untimed lead-in before the measured window: long enough
// to fill the buffer pools and settle the GC pacer.
func warmup(d time.Duration) time.Duration { return min(d/4, 3*time.Second) }

// sampleSpace samples the store size every 100 ms until the returned
// stop function is called, then records the median space amplification.
func sampleSpace(dir string, live func() float64, r *report) (stop func()) {
	var amps []float64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			amps = append(amps, ratio(float64(dirBytes(dir)), live()))
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		r.set("space_amp", median(amps))
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return nil // a file removed mid-walk (WAL reset, reoptimize) just drops out
		}
		if e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// elapsed is the time from the start of a window of length d to the
// last completion of a call started in it: the denominator of rates.
func elapsed(cs []*client, d time.Duration) time.Duration {
	for _, c := range cs {
		for _, s := range c.ops {
			d = max(d, s.at+s.wall)
		}
	}
	return d
}

// opsPerSecond is the rate of client calls in a window of length d.
func opsPerSecond(cs []*client, d time.Duration) float64 {
	n := 0
	for _, c := range cs {
		n += len(c.ops)
	}
	return float64(n) / elapsed(cs, d).Seconds()
}

// counters is the cumulative state the layer metrics difference across
// the traced window.
type counters struct {
	dev                               devSnapshot
	pool                              store.PoolStats
	rounds, fetched, serves, rejected int64
	walAppends, walFsyncs             int64
	reoptSteps, reoptCycles           int64
	gcCycles                          uint32
	gcPauseNs                         uint64
}

func takeCounters(b bench, dev *devStats) counters {
	c := counters{dev: dev.snapshot()}
	for _, p := range b.pools() {
		ps := p.Stats()
		c.pool.Hits += ps.Hits
		c.pool.Misses += ps.Misses
		c.pool.Evictions += ps.Evictions
	}
	for _, e := range b.engines() {
		reg := e.Registry()
		c.rounds += reg.Counter("engine.shared.rounds").Value()
		c.fetched += reg.Counter("engine.shared.pages_fetched").Value()
		c.serves += reg.Counter("engine.shared.page_serves").Value()
		h := e.Health()
		c.rejected += h.Sheds + h.Cancels + h.Panics
	}
	reg := obs.Default()
	c.walAppends = reg.Counter("wal.appends").Value()
	c.walFsyncs = reg.Counter("wal.fsyncs").Value()
	c.reoptSteps = reg.Counter("reopt.steps").Value()
	c.reoptCycles = reg.Counter("reopt.auto_triggers").Value()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.gcCycles, c.gcPauseNs = m.NumGC, m.PauseTotalNs
	return c
}

// report is everything one run measured, saved as JSON under outDir.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      map[string]any     `json:"host"`
	Sizes     map[string]any     `json:"sizes"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"` // errors and wrong answers
	Wrong     int                `json:"wrong"`  // wrong answers
	Problems  []string           `json:"problems,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
}

func newReport(name string, seed int64, d time.Duration, traced bool) *report {
	return &report{Workload: name, Seed: seed, Seconds: d.Seconds(), Traced: traced,
		Host: hostFacts(), Metrics: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

// problem notes a failed check; the first few are kept for the report.
func (r *report) problem(err error) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, err.Error())
	}
}

func (r *report) stem() string {
	t := 0
	if r.Traced {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, t)
}

// count adds the clients' operations of the last window to the totals.
func (r *report) count(cs []*client) {
	for _, c := range cs {
		r.Attempted += c.attempted
		r.Failed += c.failed
		r.Wrong += c.wrong
		if c.err != nil {
			r.problem(c.err)
		}
	}
}

// endToEnd derives the end-to-end metrics from an untraced window of
// length d: rates over the time from the window start to the last
// completion, latencies as percentiles over every call of the window.
func (r *report) endToEnd(cs []*client, d time.Duration) {
	r.count(cs)
	var reads, writes int
	var readMs, opMs, writeMs, sims []float64
	for _, c := range cs {
		sims = append(sims, c.sims...)
		for _, s := range c.ops {
			opMs = append(opMs, ms(s.wall))
			if s.kind == opRead {
				reads += s.reads
				readMs = append(readMs, ms(s.wall))
			} else {
				writes++
				writeMs = append(writeMs, ms(s.wall))
			}
		}
	}
	window := elapsed(cs, d).Seconds()
	perSec := func(n int) float64 { return float64(n) / window }
	r.set("qps", perSec(reads))
	r.set("query_p50_ms", percentile(readMs, 50))
	r.set("query_p95_ms", percentile(readMs, 95))
	r.set("sim_p50_ms", 1e3*percentile(sims, 50))
	r.set("sim_p99_ms", 1e3*percentile(sims, 99))
	r.set("ops_per_s", perSec(len(opMs)))
	r.set("op_p50_ms", percentile(opMs, 50))
	r.set("op_p95_ms", percentile(opMs, 95))
	r.set("writes_per_s", perSec(writes))
	r.set("write_p50_ms", percentile(writeMs, 50))
	r.set("write_p95_ms", percentile(writeMs, 95))
}

// layers derives the per-layer metrics from a traced window.
func (r *report) layers(cs []*client, d time.Duration, b bench, dev *devStats, before counters) {
	after := takeCounters(b, dev)
	var a layerAcc
	writes := 0
	for _, c := range cs {
		a.merge(&c.acc)
		for _, s := range c.ops {
			if s.kind == opWrite {
				writes++
			}
		}
	}
	q := float64(a.queries)
	dv := after.dev.sub(before.dev)
	hits := float64(after.pool.Hits - before.pool.Hits)
	misses := float64(after.pool.Misses - before.pool.Misses)
	fsyncs := float64(after.walFsyncs - before.walFsyncs)
	straggler := 1.0
	if len(a.straggler) > 0 {
		straggler = percentile(a.straggler, 95)
	}
	readDur, syncDur := dev.durations()
	userBytes := float64(writes * b.dim() * 4)

	r.set("shard.straggler_ratio_p95", straggler)
	r.set("shard.failovers", float64(a.failovers))
	r.set("shard.self_ms_p50", percentile(a.shardSelfMs, 50))
	r.set("engine.queue_wait_ms_p50", percentile(a.queueWaitMs, 50))
	r.set("engine.queue_wait_ms_p95", percentile(a.queueWaitMs, 95))
	r.set("engine.exec_ms_p50", percentile(a.execMs, 50))
	r.set("engine.overhead_ms_p50", percentile(a.overheadMs, 50))
	r.set("engine.share.serves_per_fetch", ratio(float64(after.serves-before.serves), float64(after.fetched-before.fetched)))
	r.set("engine.share.rounds_per_query", ratio(float64(after.rounds-before.rounds), q))
	r.set("engine.rejected", float64(after.rejected-before.rejected))
	r.set("core.knn_wall_ms_p50", percentile(a.knnWallMs, 50))
	r.set("core.dir.blocks_per_query", ratio(float64(a.dirBlocks), q))
	r.set("core.q.pages_read_per_query", ratio(float64(a.pagesRead), q))
	r.set("core.q.pruned_frac", ratio(float64(a.pagesPruned), float64(a.pagesRead)))
	r.set("core.candidates_per_query", ratio(float64(a.candidates), q))
	r.set("core.refinements_per_query", ratio(float64(a.refinements), q))
	r.set("core.refined_points_per_refinement", ratio(float64(a.refinedPoints), float64(a.refinements)))
	r.set("core.sim.dir_ms", 1e3*ratio(a.simDir, q))
	r.set("core.sim.quant_ms", 1e3*ratio(a.simQuant, q))
	r.set("core.sim.exact_ms", 1e3*ratio(a.simExact, q))
	r.set("core.approx.skipped_pages_per_query", ratio(float64(a.approxSkipped), float64(a.approxQueries)))
	r.set("core.approx.terminated_frac", ratio(float64(a.approxStops), float64(a.approxQueries)))
	r.set("core.write.insert_ms_p50", percentile(a.insertMs, 50))
	r.set("core.write.insert_ms_p95", percentile(a.insertMs, 95))
	r.set("core.write.delete_ms_p50", percentile(a.deleteMs, 50))
	r.set("core.checkpoints", float64(dv.checkpoints))
	r.set("core.reopt.steps", float64(after.reoptSteps-before.reoptSteps))
	r.set("core.reopt.cycles", float64(after.reoptCycles-before.reoptCycles))
	r.set("pagesched.batches_per_query", ratio(float64(a.batches), q))
	r.set("pagesched.pages_per_batch", ratio(float64(a.batchPages), float64(a.batches)))
	r.set("pagesched.overread_frac", ratio(float64(a.batchPages-a.batchPending), float64(a.batchPages)))
	r.set("store.pool.hit_rate", ratio(hits, hits+misses))
	r.set("store.pool.evictions_per_query", ratio(float64(after.pool.Evictions-before.pool.Evictions), q))
	r.set("store.dev.reads_per_query", ratio(float64(dv.reads), q))
	r.set("store.dev.read_kb_per_query", ratio(float64(dv.readBytes)/1024, q))
	r.set("store.dev.read_ms_p50", percentile(msAll(readDur), 50))
	r.set("store.dev.write_bytes_per_user_byte", ratio(float64(dv.writeBytes), userBytes))
	r.set("store.wal.fsyncs_per_write", ratio(fsyncs, float64(writes)))
	r.set("store.wal.appends_per_fsync", ratio(float64(after.walAppends-before.walAppends), fsyncs))
	r.set("store.wal.fsync_ms_p50", percentile(msAll(syncDur), 50))
	r.set("store.wal.fsync_ms_p95", percentile(msAll(syncDur), 95))
	r.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles))
	r.set("runtime.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

func (r *report) result() result {
	out := result{Correct: r.Wrong == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	for _, m := range r.defs() {
		out.Metrics[m.name] = metricValue{Value: r.Metrics[m.name], Unit: m.unit}
	}
	return out
}

// print writes the human-readable table: host, sizes, then every metric
// this run measured with its unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "host %s\n", compact(r.Host))
	fmt.Fprintf(w, "sizes %s\n", compact(r.Sizes))
	for _, m := range slices.Concat(r.defs(), reportOnly) {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d (wrong answers %d)\n", r.Attempted, r.Failed, r.Wrong)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "spans %s\n", r.SpanFile)
	}
}

func compact(m map[string]any) string {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Sprint(m)
	}
	return string(b)
}

// save writes the report as indented JSON under outDir.
func (r *report) save() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, r.stem()+".json"), b, 0o644)
}
