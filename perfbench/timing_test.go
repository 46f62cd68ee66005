package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/store"
)

// twin applies the same calls to a bare backend and to the same kind of
// backend behind timedStore, and fails on any difference in returned
// bytes, positions, errors or names.
type twin struct {
	t          *testing.T
	bare, wrap store.BlockStore
	// scrub removes what legitimately differs between the two (their
	// directories) from error text.
	scrub func(string) string
}

func (w *twin) same(what string, a, b any, ea, eb error) {
	w.t.Helper()
	if !slices.Equal(fmt.Append(nil, a), fmt.Append(nil, b)) {
		w.t.Errorf("%s: bare returned %v, timed %v", what, a, b)
	}
	if (ea == nil) != (eb == nil) || (ea != nil && w.scrub(ea.Error()) != w.scrub(eb.Error())) {
		w.t.Errorf("%s: bare error %v, timed error %v", what, ea, eb)
	}
}

func (w *twin) file(name string) (store.BlockFile, store.BlockFile) {
	return w.bare.Lookup(name), w.wrap.Lookup(name)
}

func (w *twin) run() {
	cfg := w.bare.Config()
	bs := cfg.BlockSize
	for _, name := range []string{"a", "b", "../escape", ""} {
		_, ea := w.bare.Create(name)
		_, eb := w.wrap.Create(name)
		w.same("create "+name, nil, nil, ea, eb)
	}
	if w.wrap.Lookup("missing") != nil {
		w.t.Errorf("lookup of a missing file must return a nil interface")
	}
	payloads := [][]byte{{}, []byte("hello"), bytes.Repeat([]byte{7}, bs), bytes.Repeat([]byte{9}, 2*bs+3)}
	for i, p := range payloads {
		fa, fb := w.file("a")
		pa, na, ea := fa.Append(p)
		pb, nb, eb := fb.Append(p)
		w.same(fmt.Sprint("append ", i), []int{pa, na}, []int{pb, nb}, ea, eb)
	}
	fa, fb := w.file("a")
	w.same("blocks", []int{fa.Blocks(), fa.Bytes()}, []int{fb.Blocks(), fb.Bytes()}, nil, nil)
	w.same("write aligned", nil, nil, fa.WriteBlocks(1, bytes.Repeat([]byte{3}, bs)), fb.WriteBlocks(1, bytes.Repeat([]byte{3}, bs)))
	w.same("write misaligned", nil, nil, fa.WriteBlocks(0, []byte("x")), fb.WriteBlocks(0, []byte("x")))
	w.same("write past end", nil, nil, fa.WriteBlocks(100, make([]byte, bs)), fb.WriteBlocks(100, make([]byte, bs)))
	for _, r := range [][2]int{{0, 1}, {0, 5}, {2, 2}, {4, 3}, {-1, 1}, {0, 0}} {
		ba, ea := fa.ReadBlocks(r[0], r[1])
		bb, eb := fb.ReadBlocks(r[0], r[1])
		w.same(fmt.Sprint("read ", r), ba, bb, ea, eb)
	}
	w.same("truncate", nil, nil, fa.Truncate(3), fb.Truncate(3))
	w.same("truncate negative", nil, nil, fa.Truncate(-1), fb.Truncate(-1))
	w.same("set contents", nil, nil, fa.SetContents([]byte("replaced")), fb.SetContents([]byte("replaced")))
	ba, ea := fa.ReadBlocks(0, 1)
	bb, eb := fb.ReadBlocks(0, 1)
	w.same("read after set contents", ba, bb, ea, eb)
	w.same("names", w.bare.Names(), w.wrap.Names(), nil, nil)
	w.same("remove", nil, nil, w.bare.Remove("b"), w.wrap.Remove("b"))
	w.same("remove missing", nil, nil, w.bare.Remove("b"), w.wrap.Remove("b"))
	w.same("names after remove", w.bare.Names(), w.wrap.Names(), nil, nil)
	w.same("sync", nil, nil, w.bare.Sync(), w.wrap.Sync())
	w.same("config", w.bare.Config(), w.wrap.Config(), nil, nil)
	w.same("close", nil, nil, w.bare.Close(), w.wrap.Close())
}

func TestTimedStorePassThroughSim(t *testing.T) {
	dev := &devStats{}
	w := &twin{t: t, bare: store.NewSimStore(store.DefaultConfig()),
		wrap: newTimedStore(store.NewSimStore(store.DefaultConfig()), dev), scrub: func(s string) string { return s }}
	w.run()
	if dev.reads.Load() == 0 || dev.writeBytes.Load() == 0 || dev.syncs.Load() != 1 {
		t.Errorf("counters missed calls: %+v", dev.snapshot())
	}
}

func TestTimedStorePassThroughFile(t *testing.T) {
	da, db := t.TempDir(), t.TempDir()
	bare, err := store.OpenFileBackend(da, store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := store.OpenFileBackend(db, store.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := &devStats{}
	dev.recording.Store(true)
	w := &twin{t: t, bare: bare, wrap: newTimedStore(fb, dev),
		scrub: func(s string) string { return strings.ReplaceAll(strings.ReplaceAll(s, da, "DIR"), db, "DIR") }}
	w.run()
	reads, syncs := dev.durations()
	if len(reads) != int(dev.reads.Load()) || len(syncs) != 1 {
		t.Errorf("recorded %d read and %d sync durations for %d reads and 1 sync", len(reads), len(syncs), dev.reads.Load())
	}
}

// TestTimedStoreUnderTree builds and queries a tree through timedStore:
// the store layer above sees the same files and answers as without it.
func TestTimedStoreUnderTree(t *testing.T) {
	pts := dataset.GenUniform(1, 2000, 8)
	bare := store.Wrap(store.NewSimStore(store.DefaultConfig()))
	timed := store.Wrap(newTimedStore(store.NewSimStore(store.DefaultConfig()), &devStats{}))
	var answers [2][]string
	for i, sto := range []*store.Store{bare, timed} {
		tree, err := core.Build(sto, pts, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		s := sto.NewSession()
		for _, q := range pts[:20] {
			got, err := tree.KNN(s, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = append(answers[i], fmt.Sprint(got))
		}
		answers[i] = append(answers[i], fmt.Sprint(sto.Backend().Names(), s.Stats))
	}
	if !slices.Equal(answers[0], answers[1]) {
		t.Errorf("answers or charges differ with timedStore underneath")
	}
}
