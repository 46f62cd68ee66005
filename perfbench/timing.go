package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// timedStore is a pass-through store.BlockStore decorator that times the
// backend calls the per-layer metrics need: block reads (store.dev.*),
// bytes written, and Sync, which is the fsync behind every WAL group
// commit and checkpoint (store.wal.fsync_*). It changes no bytes and no
// errors; timing_test.go checks that against the bare backend.
type timedStore struct {
	store.BlockStore
	dev *devStats
}

// devStats accumulates what every timedStore sharing it observed.
// Durations are sampled only while recording is on.
type devStats struct {
	reads       atomic.Int64
	readBytes   atomic.Int64
	writeBytes  atomic.Int64
	syncs       atomic.Int64
	checkpoints atomic.Int64

	recording atomic.Bool
	spans     *spanLog // nil: no spans

	mu      sync.Mutex
	readDur []time.Duration
	syncDur []time.Duration
}

// devSnapshot is a point-in-time copy of the counters of a devStats.
type devSnapshot struct {
	reads, readBytes, writeBytes, syncs, checkpoints int64
}

func (d *devStats) snapshot() devSnapshot {
	return devSnapshot{
		reads:       d.reads.Load(),
		readBytes:   d.readBytes.Load(),
		writeBytes:  d.writeBytes.Load(),
		syncs:       d.syncs.Load(),
		checkpoints: d.checkpoints.Load(),
	}
}

func (a devSnapshot) sub(b devSnapshot) devSnapshot {
	return devSnapshot{
		reads:       a.reads - b.reads,
		readBytes:   a.readBytes - b.readBytes,
		writeBytes:  a.writeBytes - b.writeBytes,
		syncs:       a.syncs - b.syncs,
		checkpoints: a.checkpoints - b.checkpoints,
	}
}

// durations returns copies of the sampled read and sync durations.
func (d *devStats) durations() (reads, syncs []time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Duration(nil), d.readDur...), append([]time.Duration(nil), d.syncDur...)
}

func (d *devStats) observe(dst *[]time.Duration, name string, start time.Time) {
	if !d.recording.Load() {
		return
	}
	end := time.Now()
	d.mu.Lock()
	*dst = append(*dst, end.Sub(start))
	d.mu.Unlock()
	d.spans.add(name, 0, 0, 0, start, end)
}

func newTimedStore(b store.BlockStore, dev *devStats) *timedStore {
	return &timedStore{BlockStore: b, dev: dev}
}

func (s *timedStore) wrap(f store.BlockFile) store.BlockFile {
	// The checkpoint log of every generation is named after
	// core.CkptBaseName; one append to it is one checkpoint record.
	ckpt := strings.HasPrefix(f.Name(), core.CkptBaseName)
	return &timedFile{BlockFile: f, dev: s.dev, ckpt: ckpt}
}

func (s *timedStore) Create(name string) (store.BlockFile, error) {
	f, err := s.BlockStore.Create(name)
	if err != nil {
		return nil, err
	}
	return s.wrap(f), nil
}

func (s *timedStore) Lookup(name string) store.BlockFile {
	f := s.BlockStore.Lookup(name)
	if f == nil {
		return nil
	}
	return s.wrap(f)
}

func (s *timedStore) Sync() error {
	start := time.Now()
	err := s.BlockStore.Sync()
	s.dev.syncs.Add(1)
	s.dev.observe(&s.dev.syncDur, "store.dev.sync", start)
	return err
}

// timedFile is the per-file half of timedStore.
type timedFile struct {
	store.BlockFile
	dev  *devStats
	ckpt bool
}

func (f *timedFile) ReadBlocks(pos, nblocks int) ([]byte, error) {
	start := time.Now()
	b, err := f.BlockFile.ReadBlocks(pos, nblocks)
	f.dev.reads.Add(1)
	f.dev.readBytes.Add(int64(len(b)))
	f.dev.observe(&f.dev.readDur, "store.dev.read", start)
	return b, err
}

func (f *timedFile) Append(p []byte) (int, int, error) {
	pos, n, err := f.BlockFile.Append(p)
	if err == nil {
		f.dev.writeBytes.Add(int64(len(p)))
		if f.ckpt {
			f.dev.checkpoints.Add(1)
		}
	}
	return pos, n, err
}

func (f *timedFile) WriteBlocks(pos int, data []byte) error {
	err := f.BlockFile.WriteBlocks(pos, data)
	if err == nil {
		f.dev.writeBytes.Add(int64(len(data)))
	}
	return err
}

func (f *timedFile) SetContents(p []byte) error {
	err := f.BlockFile.SetContents(p)
	if err == nil {
		f.dev.writeBytes.Add(int64(len(p)))
	}
	return err
}
