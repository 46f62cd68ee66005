package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// fillWAL creates (or extends) a log with sequential payloads and
// commits the batch, returning the LSNs.
func fillWAL(t *testing.T, w *WAL, n int, tag string) []uint64 {
	t.Helper()
	var lsns []uint64
	for i := 0; i < n; i++ {
		lsns = append(lsns, w.Append(1, []byte(fmt.Sprintf("%s-%d", tag, i))))
	}
	if err := w.Commit(lsns[len(lsns)-1]); err != nil {
		t.Fatal(err)
	}
	return lsns
}

func TestWALReaderStreamAndWatermark(t *testing.T) {
	backend := NewSimStore(testConfig())
	w, err := CreateWAL(backend, "t.wal")
	if err != nil {
		t.Fatal(err)
	}
	lsns := fillWAL(t, w, 10, "rec")

	r := NewWALReader(backend, "t.wal", 0)
	for i := 0; i < 10; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.LSN != lsns[i] || string(rec.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last record: %v", err)
	}
	if r.Torn() {
		t.Fatal("clean log reported torn")
	}
	if r.LastLSN() != lsns[9] {
		t.Fatalf("LastLSN %d, want %d", r.LastLSN(), lsns[9])
	}

	// The watermark filters strictly: from = lsns[4] yields records 5..9.
	r = NewWALReader(backend, "t.wal", lsns[4])
	var got int
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.LSN <= lsns[4] {
			t.Fatalf("watermark leaked LSN %d", rec.LSN)
		}
		got++
	}
	if got != 5 {
		t.Fatalf("watermark stream yielded %d records, want 5", got)
	}

	// A missing log is an empty, untorn stream.
	r = NewWALReader(backend, "missing.wal", 0)
	if _, err := r.Next(); err != io.EOF || r.Torn() {
		t.Fatalf("missing log: err=%v torn=%v", err, r.Torn())
	}
}

// TestShipAllTornTail: the source mutation log ends in a damaged frame
// (a tear at rest). The ship must carry exactly the valid prefix, flag
// the tear, and leave the destination log clean — the same contract
// recovery has (torn frames are truncated, never replayed).
func TestShipAllTornTail(t *testing.T) {
	src := NewSimStore(testConfig())
	w, err := CreateWAL(src, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	fillWAL(t, w, 2, "keep")
	lsn := w.Append(1, bytes.Repeat([]byte{5}, 200))
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	bf := src.Lookup("iq.wal")
	raw, err := bf.ReadBlocks(bf.Blocks()-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dmg := append([]byte(nil), raw...)
	dmg[10] ^= 0x40
	if err := bf.WriteBlocks(bf.Blocks()-1, dmg); err != nil {
		t.Fatal(err)
	}
	// A raw data file rides along.
	df, err := src.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 3*testConfig().BlockSize)
	if _, _, err := df.Append(payload); err != nil {
		t.Fatal(err)
	}

	dst := NewSimStore(testConfig())
	sh := &Shipper{Src: src, Dst: dst, TailWAL: "iq.wal"}
	rep, err := sh.ShipAll()
	if err != nil {
		t.Fatalf("ShipAll: %v", err)
	}
	if !rep.SrcTorn {
		t.Fatal("torn source tail not reported")
	}
	if rep.Records != 2 {
		t.Fatalf("shipped %d records, want the 2 before the tear", rep.Records)
	}
	if rep.Attempts != 1 {
		t.Fatalf("quiet source took %d attempts", rep.Attempts)
	}

	_, recs, info, err := OpenWAL(dst, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatal("destination log torn: the tear must not ship")
	}
	if len(recs) != 2 || string(recs[0].Payload) != "keep-0" || string(recs[1].Payload) != "keep-1" {
		t.Fatalf("destination records: %d", len(recs))
	}
	got, err := dst.Lookup("data").ReadBlocks(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("raw file bytes differ after ship")
	}
}

// TestShipAllEmptyWAL: a source whose mutation log holds no records (a
// freshly checkpointed tree) ships checkpoint-only — zero records, a
// valid empty destination log, LastLSN 0.
func TestShipAllEmptyWAL(t *testing.T) {
	src := NewSimStore(testConfig())
	if _, err := CreateWAL(src, "iq.wal"); err != nil {
		t.Fatal(err)
	}
	df, err := src.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := df.Append([]byte("checkpointed state")); err != nil {
		t.Fatal(err)
	}

	dst := NewSimStore(testConfig())
	sh := &Shipper{Src: src, Dst: dst, TailWAL: "iq.wal"}
	rep, err := sh.ShipAll()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || rep.LastLSN != 0 {
		t.Fatalf("empty log shipped records=%d lastLSN=%d", rep.Records, rep.LastLSN)
	}
	if _, recs, info, err := OpenWAL(dst, "iq.wal"); err != nil || len(recs) != 0 || info.Torn {
		t.Fatalf("destination log: err=%v records=%d torn=%v", err, len(recs), info.Torn)
	}
	// Tail shipping from the empty watermark is a clean no-op.
	if rep, err := sh.ShipTail("iq.wal", 0); err != nil || rep.Records != 0 {
		t.Fatalf("tail after checkpoint-only ship: %v (%d records)", err, rep.Records)
	}
}

func TestShipTailResumeAndIdempotent(t *testing.T) {
	src := NewSimStore(testConfig())
	w, err := CreateWAL(src, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	lsns := fillWAL(t, w, 10, "rec")

	// The destination already holds the first four records from an
	// earlier ship whose watermark the caller lost.
	dst := NewSimStore(testConfig())
	dw, err := CreateWAL(dst, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	reader := NewWALReader(src, "iq.wal", 0)
	for i := 0; i < 4; i++ {
		rec, err := reader.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := dw.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Commit(lsns[3]); err != nil {
		t.Fatal(err)
	}

	sh := &Shipper{Src: src, Dst: dst, TailWAL: "iq.wal"}
	rep, err := sh.ShipTail("iq.wal", 0) // stale watermark: resume must use the dst log's
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 6 || rep.LastLSN != lsns[9] {
		t.Fatalf("resume shipped %d records to LSN %d, want 6 to %d", rep.Records, rep.LastLSN, lsns[9])
	}
	// Idempotent: nothing newer, nothing shipped, no error.
	rep, err = sh.ShipTail("iq.wal", lsns[9])
	if err != nil || rep.Records != 0 {
		t.Fatalf("re-ship: %v (%d records)", err, rep.Records)
	}

	_, recs, _, err := OpenWAL(dst, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("destination has %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LSN != lsns[i] || string(r.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("destination record %d: %+v", i, r)
		}
	}
}

// TestShipTailGapTyped: the source checkpointed (log reset) past the
// destination's watermark, so the needed records no longer exist. The
// tail ship must fail typed with ErrShipGap, not silently skip ahead.
func TestShipTailGapTyped(t *testing.T) {
	src := NewSimStore(testConfig())
	w, err := CreateWAL(src, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	lsns := fillWAL(t, w, 5, "old")
	if err := w.Reset(); err != nil { // the checkpoint consumed LSNs 1..5
		t.Fatal(err)
	}
	fillWAL(t, w, 3, "new") // LSNs 6..8

	dst := NewSimStore(testConfig())
	dw, err := CreateWAL(dst, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.AppendRecord(WALRecord{LSN: lsns[0], Kind: 1, Payload: []byte("old-0")}); err != nil {
		t.Fatal(err)
	}
	if err := dw.AppendRecord(WALRecord{LSN: lsns[1], Kind: 1, Payload: []byte("old-1")}); err != nil {
		t.Fatal(err)
	}
	if err := dw.Commit(lsns[1]); err != nil {
		t.Fatal(err)
	}

	sh := &Shipper{Src: src, Dst: dst, TailWAL: "iq.wal"}
	if _, err := sh.ShipTail("iq.wal", lsns[1]); !errors.Is(err, ErrShipGap) {
		t.Fatalf("gap not typed: %v", err)
	}
}

// hookStore lets a test fire a callback on the first read of one file,
// simulating source activity landing mid-copy.
type hookStore struct {
	BlockStore
	target string
	hook   func()
	fired  bool
}

func (h *hookStore) Lookup(name string) BlockFile {
	bf := h.BlockStore.Lookup(name)
	if bf == nil || name != h.target {
		return bf
	}
	return &hookFile{BlockFile: bf, owner: h}
}

type hookFile struct {
	BlockFile
	owner *hookStore
}

func (f *hookFile) ReadBlocks(pos, nblocks int) ([]byte, error) {
	if !f.owner.fired {
		f.owner.fired = true
		f.owner.hook()
	}
	return f.BlockFile.ReadBlocks(pos, nblocks)
}

// TestShipAllRestartsOnMidCopyCheckpoint: a checkpoint landing while the
// data files are being copied changes a non-tail log, which the
// fingerprint comparison must catch; the copy restarts and the second
// pass succeeds against the now-quiet source.
func TestShipAllRestartsOnMidCopyCheckpoint(t *testing.T) {
	inner := NewSimStore(testConfig())
	w, err := CreateWAL(inner, "iq.wal")
	if err != nil {
		t.Fatal(err)
	}
	fillWAL(t, w, 4, "mut")
	ck, err := CreateWAL(inner, "iq.ckpt.wal")
	if err != nil {
		t.Fatal(err)
	}
	fillWAL(t, ck, 1, "ckpt")
	df, err := inner.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := df.Append(bytes.Repeat([]byte{1}, 2*testConfig().BlockSize)); err != nil {
		t.Fatal(err)
	}

	// Mid-copy of the data file, a "checkpoint" appends to the ckpt log
	// and resets the mutation log — exactly the activity that would leave
	// a naïve copy with an old checkpoint and a too-new (reset) WAL.
	src := &hookStore{BlockStore: inner, target: "data", hook: func() {
		fillWAL(t, ck, 1, "ckpt2")
		if err := w.Reset(); err != nil {
			t.Fatal(err)
		}
	}}
	dst := NewSimStore(testConfig())
	sh := &Shipper{Src: src, Dst: dst, TailWAL: "iq.wal"}
	rep, err := sh.ShipAll()
	if err != nil {
		t.Fatalf("ShipAll: %v", err)
	}
	if rep.Attempts < 2 {
		t.Fatalf("mid-copy checkpoint went unnoticed: %d attempts", rep.Attempts)
	}
	// The surviving copy reflects the post-checkpoint source: both ckpt
	// records present, mutation log empty.
	if _, recs, _, err := OpenWAL(dst, "iq.ckpt.wal"); err != nil || len(recs) != 2 {
		t.Fatalf("ckpt log after restart: err=%v records=%d", err, len(recs))
	}
	if _, recs, _, err := OpenWAL(dst, "iq.wal"); err != nil || len(recs) != 0 {
		t.Fatalf("mutation log after restart: err=%v records=%d", err, len(recs))
	}
}

// TestWALReaderShortBlockTail: the streaming reader skips padding too
// short to hold a length field exactly like recovery does.
func TestWALReaderShortBlockTail(t *testing.T) {
	for tail := 1; tail <= 3; tail++ {
		t.Run(fmt.Sprintf("tail=%d", tail), func(t *testing.T) {
			backend := NewSimStore(testConfig()) // 64-byte blocks
			want := shortTailLog(t, backend, tail)
			r := NewWALReader(backend, "t.wal", 0)
			for i := range want {
				rec, err := r.Next()
				if err != nil {
					t.Fatalf("record %d: %v (torn=%v)", i, err, r.Torn())
				}
				if rec.LSN != uint64(i+1) || !bytes.Equal(rec.Payload, want[i]) {
					t.Fatalf("record %d: LSN %d, %d payload bytes", i, rec.LSN, len(rec.Payload))
				}
			}
			if _, err := r.Next(); err != io.EOF || r.Torn() {
				t.Fatalf("after last record: err=%v torn=%v", err, r.Torn())
			}
		})
	}
}
