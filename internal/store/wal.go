package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Write-ahead log. A WAL is an append-only block file of checksummed,
// length-prefixed records with group commit: any number of writers
// buffer records concurrently, and one fsync makes durable every record
// that arrived while the previous fsync was in flight. Recovery scans
// the log from the front, stops at the first frame that fails its CRC
// (or breaks LSN monotonicity), and truncates that torn tail — torn
// records are never replayed.
//
// Frame layout (little-endian), packed back to back within blocks:
//
//	[0:4)  total frame length (header + payload); 0 = block padding
//	[4:8)  CRC32C over bytes [8:length)
//	[8:16) LSN (strictly increasing from 1)
//	[16]   record kind (opaque to the store layer)
//	[17:)  payload
//
// Frames may span block boundaries within one commit batch, but every
// flushed batch is zero-padded to a whole block, so durable blocks are
// never rewritten by later appends: a torn append can only damage
// frames of the final (uncommitted) batch, which is exactly the tail
// recovery is allowed to discard. A length field of zero marks padding;
// the scanner skips to the next block boundary. Padding shorter than a
// length field (a batch ending 1–3 bytes before a boundary) is
// recognized as zero bytes where no valid frame starts (walShortPad).
const (
	// WALSuffix names write-ahead-log files. WAL records carry their own
	// CRC32C, so checksum sidecars skip these files (see EnableChecksums).
	WALSuffix = ".wal"

	walHeaderSize = 17
)

// IsWALFile reports whether name is a write-ahead log.
func IsWALFile(name string) bool { return strings.HasSuffix(name, WALSuffix) }

// Process-wide WAL metrics on obs.Default(), so a metrics dump shows
// ingest durability health next to serving metrics.
var (
	metricWALAppends   = obs.Default().Counter("wal.appends")
	metricWALFsyncs    = obs.Default().Counter("wal.fsyncs")
	metricWALGroupSize = obs.Default().Counter("wal.group_size")
	metricWALReplays   = obs.Default().Counter("wal.replays")
	histWALGroupCommit = obs.Default().Histogram("wal.group_commit_batch")
)

// WALRecord is one recovered log record.
type WALRecord struct {
	LSN     uint64
	Kind    uint8
	Payload []byte
}

// WALInfo summarizes a scan of the log.
type WALInfo struct {
	Records  int    `json:"records"`
	FirstLSN uint64 `json:"first_lsn,omitempty"`
	LastLSN  uint64 `json:"last_lsn,omitempty"`
	Blocks   int    `json:"blocks"`
	// Torn reports that the scan stopped at a damaged frame before the
	// end of the file; TornBlocks is the extent of the discarded tail.
	Torn       bool `json:"torn,omitempty"`
	TornBlocks int  `json:"torn_blocks,omitempty"`
}

// WAL is a group-commit write-ahead log over one backend block file.
type WAL struct {
	bf      BlockFile
	bs      int
	backend BlockStore // fsynced on commit

	// syncMu is the group-commit leader lock: the first committer to
	// take it flushes and fsyncs every record buffered so far; commits
	// that queued behind it find their LSN already durable and return
	// without a second fsync.
	syncMu sync.Mutex

	mu       sync.Mutex
	nextLSN  uint64
	appended uint64 // highest LSN buffered (or flushed)
	pending  []byte // frames not yet written to the backend
	pendRecs int    // records currently in pending
	err      error  // sticky: a failed flush loses buffered records

	durable atomic.Uint64 // highest LSN known to be on stable storage
}

// walScan parses the raw log bytes. It returns the valid records, the
// byte offset one past the last valid frame, and whether the remainder
// is a torn tail (any non-padding bytes after that offset).
func walScan(raw []byte, bs int) (recs []WALRecord, goodEnd int, torn bool) {
	le := binary.LittleEndian
	off := 0
	var lastLSN uint64
	for off < len(raw) {
		if len(raw)-off < 4 {
			// Tail shorter than a length field: must be padding.
			for ; off < len(raw); off++ {
				if raw[off] != 0 {
					return recs, goodEnd, true
				}
			}
			goodEnd = off
			break
		}
		length := int(le.Uint32(raw[off:]))
		if length == 0 { // padding: skip to the next block boundary
			pad := bs - off%bs
			for i := 0; i < pad; i++ {
				if raw[off+i] != 0 {
					return recs, goodEnd, true
				}
			}
			off += pad
			goodEnd = off
			continue
		}
		if !walFrameValid(raw[off:], length, lastLSN) {
			if n := walShortPad(raw[off:], bs-off%bs); n > 0 {
				off += n
				goodEnd = off
				continue
			}
			return recs, goodEnd, true
		}
		frame := raw[off : off+length]
		lsn := le.Uint64(frame[8:])
		lastLSN = lsn
		recs = append(recs, WALRecord{
			LSN:     lsn,
			Kind:    frame[16],
			Payload: append([]byte(nil), frame[walHeaderSize:length]...),
		})
		off += length
		goodEnd = off
	}
	return recs, goodEnd, false
}

// walFrameValid reports whether b begins with an intact frame of the
// given length whose LSN follows after.
func walFrameValid(b []byte, length int, after uint64) bool {
	if length < walHeaderSize || length > len(b) {
		return false
	}
	le := binary.LittleEndian
	return crc32.Checksum(b[8:length], castagnoli) == le.Uint32(b[4:]) && le.Uint64(b[8:]) > after
}

// walShortPad returns n, the number of bytes left in the current block,
// when n is too few to hold a length field and all n are zero: the
// padding of a commit batch that ended 1–3 bytes before a block
// boundary. The length read there spans into the next batch's first
// frame, so scanners fall back to it once no valid frame starts at the
// offset (a frame may also legitimately start there and span the
// boundary). It returns 0 otherwise.
func walShortPad(b []byte, n int) int {
	if n >= 4 || n > len(b) {
		return 0
	}
	for _, c := range b[:n] {
		if c != 0 {
			return 0
		}
	}
	return n
}

// walInfoOf summarizes a scan result.
func walInfoOf(recs []WALRecord, blocks int, torn bool, goodBlocks int) WALInfo {
	info := WALInfo{Records: len(recs), Blocks: blocks, Torn: torn}
	if len(recs) > 0 {
		info.FirstLSN = recs[0].LSN
		info.LastLSN = recs[len(recs)-1].LSN
	}
	if torn {
		info.TornBlocks = blocks - goodBlocks
	}
	return info
}

// InspectWAL scans the named log read-only: no truncation, no replay
// bookkeeping. Missing file means an empty, healthy log.
func InspectWAL(backend BlockStore, name string) (WALInfo, []WALRecord, error) {
	bs := backend.Config().BlockSize
	bf := backend.Lookup(name)
	if bf == nil || bf.Blocks() == 0 {
		return WALInfo{}, nil, nil
	}
	raw, err := bf.ReadBlocks(0, bf.Blocks())
	if err != nil {
		return WALInfo{}, nil, fmt.Errorf("store: read WAL %s: %w", name, err)
	}
	recs, goodEnd, torn := walScan(raw, bs)
	goodBlocks := (goodEnd + bs - 1) / bs
	return walInfoOf(recs, bf.Blocks(), torn, goodBlocks), recs, nil
}

// CreateWAL creates (or truncates) the named log.
func CreateWAL(backend BlockStore, name string) (*WAL, error) {
	bf, err := backend.Create(name)
	if err != nil {
		return nil, fmt.Errorf("store: create WAL %s: %w", name, err)
	}
	return &WAL{bf: bf, bs: backend.Config().BlockSize, backend: backend, nextLSN: 1}, nil
}

// OpenWAL opens the named log (creating it if absent), truncates any
// torn tail, and returns the surviving records for the caller to replay.
// The returned WAL resumes LSN assignment after the last valid record.
func OpenWAL(backend BlockStore, name string) (*WAL, []WALRecord, WALInfo, error) {
	bs := backend.Config().BlockSize
	bf := backend.Lookup(name)
	if bf == nil {
		w, err := CreateWAL(backend, name)
		return w, nil, WALInfo{}, err
	}
	var raw []byte
	if bf.Blocks() > 0 {
		var err error
		if raw, err = bf.ReadBlocks(0, bf.Blocks()); err != nil {
			return nil, nil, WALInfo{}, fmt.Errorf("store: read WAL %s: %w", name, err)
		}
	}
	recs, goodEnd, torn := walScan(raw, bs)
	goodBlocks := (goodEnd + bs - 1) / bs
	info := walInfoOf(recs, bf.Blocks(), torn, goodBlocks)
	if torn {
		if err := bf.Truncate(goodBlocks); err != nil {
			return nil, nil, WALInfo{}, fmt.Errorf("store: truncate torn WAL %s: %w", name, err)
		}
		if tail := goodEnd % bs; tail != 0 {
			// The last kept block carries both the final valid frames and
			// the head of the torn one. Zero everything past the last valid
			// frame so later scans read it as padding instead of stopping
			// there and orphaning records appended after this recovery.
			clean := make([]byte, bs)
			copy(clean, raw[(goodBlocks-1)*bs:(goodBlocks-1)*bs+tail])
			if err := bf.WriteBlocks(goodBlocks-1, clean); err != nil {
				return nil, nil, WALInfo{}, fmt.Errorf("store: scrub torn WAL tail %s: %w", name, err)
			}
		}
	}
	var last uint64
	if len(recs) > 0 {
		last = recs[len(recs)-1].LSN
	}
	w := &WAL{bf: bf, bs: bs, backend: backend, nextLSN: last + 1, appended: last}
	w.durable.Store(last)
	metricWALReplays.Add(int64(len(recs)))
	return w, recs, info, nil
}

// encodeWALFrame serializes one record into its on-disk frame.
func encodeWALFrame(lsn uint64, kind uint8, payload []byte) []byte {
	length := walHeaderSize + len(payload)
	frame := make([]byte, length)
	le := binary.LittleEndian
	le.PutUint32(frame[0:], uint32(length))
	le.PutUint64(frame[8:], lsn)
	frame[16] = kind
	copy(frame[walHeaderSize:], payload)
	le.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	return frame
}

// Append buffers one record and returns its LSN. The record is NOT
// durable until a Commit covering the LSN returns; callers must not
// acknowledge the mutation before then. Appends never block on I/O.
func (w *WAL) Append(kind uint8, payload []byte) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn := w.nextLSN
	w.nextLSN++
	w.pending = append(w.pending, encodeWALFrame(lsn, kind, payload)...)
	w.pendRecs++
	w.appended = lsn
	metricWALAppends.Inc()
	return lsn
}

// AppendRecord buffers a record that already carries its LSN — the
// shipping path, which transplants frames from a source log while
// preserving the source's LSN sequence so checkpoint watermarks keep
// lining up on the destination. The LSN must advance past everything
// appended so far; LSN assignment resumes after it. Like Append, the
// record is not durable until a covering Commit returns.
func (w *WAL) AppendRecord(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if rec.LSN <= w.appended {
		return fmt.Errorf("store: shipped LSN %d not after appended %d", rec.LSN, w.appended)
	}
	w.pending = append(w.pending, encodeWALFrame(rec.LSN, rec.Kind, rec.Payload)...)
	w.pendRecs++
	w.appended = rec.LSN
	w.nextLSN = rec.LSN + 1
	metricWALAppends.Inc()
	return nil
}

// ReadFrom returns a streaming reader over the log's flushed extent that
// yields records with LSN strictly greater than lsn. Records still
// buffered (appended but not yet flushed by a Commit) are not visible.
func (w *WAL) ReadFrom(lsn uint64) *WALReader {
	return &WALReader{bf: w.bf, bs: w.bs, end: w.bf.Blocks(), from: lsn}
}

// Commit makes every record up to and including lsn durable, group-wise:
// if the LSN is already durable (a concurrent committer's fsync covered
// it) Commit returns immediately; otherwise the caller becomes the
// leader, flushing and fsyncing everything buffered so far — including
// records appended by writers now queued behind it.
func (w *WAL) Commit(lsn uint64) error {
	if w.durable.Load() >= lsn {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.durable.Load() >= lsn {
		return nil
	}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	batch := w.pending
	w.pending = nil
	target := w.appended
	n := w.pendRecs
	w.pendRecs = 0
	w.mu.Unlock()
	if len(batch) > 0 {
		// Zero-pad to a whole block so durable blocks are never rewritten:
		// the next batch starts on a fresh block boundary.
		if rem := len(batch) % w.bs; rem != 0 {
			batch = append(batch, make([]byte, w.bs-rem)...)
		}
		if _, _, err := w.bf.Append(batch); err != nil {
			return w.fail(fmt.Errorf("store: WAL append: %w", err))
		}
	}
	if err := w.backend.Sync(); err != nil {
		return w.fail(fmt.Errorf("store: WAL fsync: %w", err))
	}
	metricWALFsyncs.Inc()
	if n > 0 {
		metricWALGroupSize.Add(int64(n))
		histWALGroupCommit.Observe(float64(n))
	}
	w.durable.Store(target)
	return nil
}

// fail poisons the WAL: a failed flush may have lost buffered records,
// so no later commit can be trusted to cover earlier LSNs.
func (w *WAL) fail(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Reset truncates the log after a checkpoint: every buffered or logged
// record is considered durable via the checkpoint, so the file restarts
// empty while LSN assignment keeps counting up (recovery relies on
// monotonic LSNs to pair a checkpoint with the records that follow it).
// Callers must have made all state covered by LSNs ≤ the current append
// watermark durable before calling.
func (w *WAL) Reset() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	w.pending = nil
	w.pendRecs = 0
	target := w.appended
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if serr := w.bf.SetContents(nil); serr != nil {
		return w.fail(fmt.Errorf("store: WAL reset: %w", serr))
	}
	w.durable.Store(target)
	return nil
}

// DurableLSN returns the highest LSN known durable.
func (w *WAL) DurableLSN() uint64 { return w.durable.Load() }

// AppendedLSN returns the highest LSN assigned so far.
func (w *WAL) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Blocks returns the current on-disk extent of the log (buffered records
// not yet flushed are excluded) — the signal auto-checkpoint thresholds
// watch.
func (w *WAL) Blocks() int { return w.bf.Blocks() }

// Name returns the log's file name.
func (w *WAL) Name() string { return w.bf.Name() }
