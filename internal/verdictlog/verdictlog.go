// Package verdictlog is an append-only, CRC-framed, segmented disk store
// of duality verdicts keyed by canonical fingerprints. dualserved appends
// every computed verdict and replays the log into the in-memory cache on
// startup, so a restarted replica (or a new one seeded with a copied log
// directory) answers its working set from disk instead of recomputing it.
// The format favors crash-tolerance over compactness: fixed-size frames
// with per-record CRCs, replay that truncates at the first corrupt frame,
// and last-record-wins semantics that make compaction a plain rewrite.
// docs/CLUSTER.md documents the on-disk format with a worked example;
// DESIGN.md §13 covers the design rationale.
package verdictlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dualspace/internal/core"
	"dualspace/internal/hypergraph"
)

// On-disk constants. A segment is the 8-byte magic followed by frames of
// [u32 payload length][payload][u32 CRC32-Castagnoli of the payload], all
// little-endian. Payload layout (version 1):
//
//	u8  version (1)
//	u8  flags (bit 0 dual, bit 1 swapped)
//	u8  reason
//	u8  len(engine) + engine bytes
//	32B fg, 32B fh
//	u32 n (vertex universe)
//	i32 gEdge, i32 hEdge, i32 redundantVertex (-1 sentinels)
//	u32 count + u32 elems ×count   (witness)
//	u32 count + u32 elems ×count   (co-witness)
//	u32 count + u32 elems ×count   (fail path)
const (
	magicLen      = 8
	recordVersion = 1

	flagDual    = 1 << 0
	flagSwapped = 1 << 1
)

var segmentMagic = [magicLen]byte{'D', 'U', 'A', 'L', 'V', 'L', 'G', recordVersion}

// castagnoli is the CRC polynomial used by every frame: hardware-assisted
// on amd64/arm64 and with better error-detection spread than IEEE.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxPayload bounds one record; larger length prefixes are treated as
// corruption (they would otherwise drive a huge allocation during replay).
const maxPayload = 16 << 20

// DefaultSegmentBytes rolls segments at 4 MiB: big enough that a steady
// workload produces few files, small enough that compaction rewrites and
// corruption truncation lose little.
const DefaultSegmentBytes = 4 << 20

// Options tunes Open.
type Options struct {
	// SegmentBytes rolls the active segment when it exceeds this size
	// (<= 0: DefaultSegmentBytes).
	SegmentBytes int64
	// MaxRecords, when > 0, bounds the live (deduplicated) record count:
	// Compact keeps the most recently appended MaxRecords records.
	MaxRecords int
	// Sync fsyncs after every append. Off by default: the log is a cache,
	// losing the tail on power failure costs recompute time, not
	// correctness.
	Sync bool
}

// Record is one logged verdict.
type Record struct {
	Engine string
	FG, FH hypergraph.Fingerprint
	N      int
	Res    *core.Result
}

// Key is the dedup identity of a record: same shape as batch.Key.
type Key struct {
	Engine string
	FG, FH hypergraph.Fingerprint
}

func (r *Record) key() Key { return Key{Engine: r.Engine, FG: r.FG, FH: r.FH} }

// Stats is the log's observable state.
type Stats struct {
	Segments       int   `json:"segments"`
	Bytes          int64 `json:"bytes"`
	LiveRecords    int   `json:"live_records"`
	Replayed       int   `json:"replayed"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	Appended       int64 `json:"appended"`
	SkippedDup     int64 `json:"skipped_dup"`
	AppendErrors   int64 `json:"append_errors"`
	Compactions    int64 `json:"compactions"`
}

// Log is the open store. All methods are safe for concurrent use; Append
// holds the mutex across one buffered write (no fsync unless Options.Sync),
// so contention is bounded by memory-copy speed.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	active    *os.File
	activeIdx int
	activeLen int64
	seen      map[Key]struct{}
	replayed  []Record // drained by ReplayedRecords
	stats     Stats
	closed    bool
}

// Open opens (creating if needed) the log directory, replays every
// segment in index order — truncating each at its first corrupt frame —
// and leaves the log ready to append. Replayed records are deduplicated
// last-wins and held until ReplayedRecords hands them to the cache.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("verdictlog: %w", err)
	}
	l := &Log{dir: dir, opts: opts, seen: make(map[Key]struct{})}

	idxs, err := l.segmentIndexes()
	if err != nil {
		return nil, err
	}
	byKey := make(map[Key]int) // key -> position in order
	var order []Record
	for _, idx := range idxs {
		recs, size, truncated, err := replaySegment(l.segmentPath(idx))
		if err != nil {
			return nil, err
		}
		l.stats.Bytes += size
		l.stats.TruncatedBytes += truncated
		for _, rec := range recs {
			l.stats.Replayed++
			if at, dup := byKey[rec.key()]; dup {
				order[at] = rec // last record for a key wins
				continue
			}
			byKey[rec.key()] = len(order)
			order = append(order, rec)
		}
	}
	for k := range byKey {
		l.seen[k] = struct{}{}
	}
	l.replayed = order
	l.stats.Segments = len(idxs)
	l.stats.LiveRecords = len(order)

	next := 0
	if n := len(idxs); n > 0 {
		next = idxs[n-1] + 1
	}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	l.stats.Segments++
	return l, nil
}

// ReplayedRecords returns the deduplicated records recovered at Open, in
// replay order, and releases the log's reference to them. Callers feed
// them into the verdict cache exactly once at startup.
func (l *Log) ReplayedRecords() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.replayed
	l.replayed = nil
	return recs
}

// Append logs rec unless its key is already present (verdicts are
// immutable per key, so duplicates carry no information). Errors are
// counted and returned but leave the log usable: a failed append only
// costs warmth.
func (l *Log) Append(rec Record) error {
	if rec.Res == nil {
		return fmt.Errorf("verdictlog: nil result")
	}
	payload, err := encodeRecord(&rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("verdictlog: closed")
	}
	if _, dup := l.seen[rec.key()]; dup {
		l.stats.SkippedDup++
		return nil
	}
	if err := l.writeFrameLocked(payload); err != nil {
		l.stats.AppendErrors++
		return err
	}
	l.seen[rec.key()] = struct{}{}
	l.stats.Appended++
	l.stats.LiveRecords++
	return nil
}

// writeFrameLocked writes one frame to the active segment, rolling it
// first when past the size bound. Caller holds l.mu.
func (l *Log) writeFrameLocked(payload []byte) error {
	if l.activeLen >= l.opts.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			return err
		}
	}
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	n, err := l.active.Write(frame)
	l.activeLen += int64(n)
	l.stats.Bytes += int64(n)
	if err != nil {
		return fmt.Errorf("verdictlog: append: %w", err)
	}
	if l.opts.Sync {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("verdictlog: sync: %w", err)
		}
	}
	return nil
}

func (l *Log) rollLocked() error {
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("verdictlog: closing segment: %w", err)
	}
	if err := l.openSegment(l.activeIdx + 1); err != nil {
		return err
	}
	l.stats.Segments++
	return nil
}

// openSegment creates segment idx and writes its magic. Caller holds l.mu
// (or is Open, before the log is shared).
func (l *Log) openSegment(idx int) error {
	path := l.segmentPath(idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("verdictlog: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("verdictlog: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.Write(segmentMagic[:]); err != nil {
			_ = f.Close()
			return fmt.Errorf("verdictlog: writing magic: %w", err)
		}
		l.stats.Bytes += magicLen
	}
	l.active = f
	l.activeIdx = idx
	l.activeLen = st.Size()
	if st.Size() == 0 {
		l.activeLen = magicLen
	}
	return nil
}

func (l *Log) segmentPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d.vlog", idx))
}

// segmentIndexes lists existing segment indexes in ascending order.
func (l *Log) segmentIndexes() ([]int, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("verdictlog: %w", err)
	}
	var idxs []int
	for _, e := range ents {
		var idx int
		if n, _ := fmt.Sscanf(e.Name(), "%08d.vlog", &idx); n == 1 &&
			e.Name() == fmt.Sprintf("%08d.vlog", idx) {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// Compact rewrites the live (last-wins, optionally MaxRecords-bounded)
// record set into fresh segments and deletes the old ones. The new
// segments are written to a temp file and renamed into place at an index
// *above* every old segment before any old file is removed, so a crash at
// any point leaves a directory that replays to the same live set (replay
// is last-wins, and the rewrite is by construction the newest copy).
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("verdictlog: closed")
	}

	// Gather the live set by replaying from disk: the log does not keep
	// records in memory (only keys), and replay is exactly the dedup we
	// want. The mutex is held throughout — compaction is a maintenance
	// pause, expected off the request path (a ticker in dualserved).
	//
	// The active segment stays open and writable the whole way: replay
	// reads segments through separate handles (writes are unbuffered
	// syscalls, so they are visible), and every fallible step below leaves
	// l.active untouched — a transient error (e.g. ENOSPC) aborts this
	// compaction but appends keep working and the next tick retries.
	idxs, err := l.segmentIndexes()
	if err != nil {
		return err
	}
	byKey := make(map[Key]int)
	var order []Record
	for _, idx := range idxs {
		recs, _, _, err := replaySegment(l.segmentPath(idx))
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if at, dup := byKey[rec.key()]; dup {
				order[at] = rec
				continue
			}
			byKey[rec.key()] = len(order)
			order = append(order, rec)
		}
	}
	if l.opts.MaxRecords > 0 && len(order) > l.opts.MaxRecords {
		order = order[len(order)-l.opts.MaxRecords:]
	}

	newIdx := 0
	if n := len(idxs); n > 0 {
		newIdx = idxs[n-1] + 1
	}
	tmp := filepath.Join(l.dir, "compact.tmp")
	if err := writeSegmentFile(tmp, order); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, l.segmentPath(newIdx)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("verdictlog: %w", err)
	}
	st, err := os.Stat(l.segmentPath(newIdx))
	if err != nil {
		return fmt.Errorf("verdictlog: %w", err)
	}

	// The compacted copy is durably in place at the highest index. Only
	// now swap the active segment: openSegment leaves l.active untouched
	// on failure, in which case appends keep landing in the old active
	// segment — only keys absent from l.seen, hence absent from the
	// compacted copy, so last-wins replay stays correct — and the next
	// compaction tick retries over the union.
	oldActive := l.active
	if err := l.openSegment(newIdx + 1); err != nil {
		return err
	}
	_ = oldActive.Close() // retired; its records live in the compacted copy
	for _, idx := range idxs {
		// A leftover old segment replays to the same live set (the
		// compacted segment is newer and last-wins), so a failed remove
		// costs disk space, not correctness — keep removing the rest.
		_ = os.Remove(l.segmentPath(idx))
	}

	// Rebuild in-memory state over the compacted set.
	l.seen = make(map[Key]struct{}, len(order))
	for _, rec := range order {
		l.seen[rec.key()] = struct{}{}
	}
	l.stats.Compactions++
	l.stats.LiveRecords = len(order)
	l.stats.Segments = 2 // compacted segment + the fresh active
	l.stats.Bytes = st.Size() + magicLen
	l.stats.TruncatedBytes = 0
	return nil
}

// writeSegmentFile writes a complete segment (magic + frames) to path and
// syncs it before returning.
func writeSegmentFile(path string, recs []Record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("verdictlog: %w", err)
	}
	defer f.Close()
	buf := append([]byte(nil), segmentMagic[:]...)
	for i := range recs {
		payload, err := encodeRecord(&recs[i])
		if err != nil {
			return err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = append(buf, payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	}
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("verdictlog: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("verdictlog: %w", err)
	}
	return f.Close()
}

// Stats snapshots the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close flushes and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.active.Sync(); err != nil {
		_ = l.active.Close()
		return fmt.Errorf("verdictlog: %w", err)
	}
	return l.active.Close()
}

// encodeRecord serializes rec into a frame payload: its verdict flattened
// over rec.N, in the version-1 layout above.
func encodeRecord(rec *Record) ([]byte, error) {
	if len(rec.Engine) > 255 {
		return nil, fmt.Errorf("verdictlog: engine name %q too long", rec.Engine)
	}
	if rec.N < 0 || rec.N > core.MaxUniverse {
		return nil, fmt.Errorf("verdictlog: universe %d out of range", rec.N)
	}
	v := core.Flatten(rec.Res, rec.N)
	var flags byte
	if v.Dual {
		flags |= flagDual
	}
	if v.Swapped {
		flags |= flagSwapped
	}
	buf := make([]byte, 0, 128)
	buf = append(buf, recordVersion, flags, byte(v.Reason), byte(len(rec.Engine)))
	buf = append(buf, rec.Engine...)
	buf = append(buf, rec.FG[:]...)
	buf = append(buf, rec.FH[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.N))
	buf = appendInt32(buf, v.GEdge)
	buf = appendInt32(buf, v.HEdge)
	buf = appendInt32(buf, v.RedundantVertex)
	buf = appendElems(buf, v.Witness)
	buf = appendElems(buf, v.CoWitness)
	buf = appendElems(buf, v.FailPath)
	return buf, nil
}

func appendInt32(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(int32(v)))
}

func appendElems(buf []byte, elems []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(elems)))
	for _, e := range elems {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(e)))
	}
	return buf
}

// decodeRecord parses a frame payload and decodes its verdict. Any
// structural violation is an error — the caller treats it like a CRC
// failure and truncates. Whether the verdict fits its instance is checked
// where it is served, not here.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	var v core.Verdict
	d := decoder{buf: payload}
	version := d.u8()
	flags := d.u8()
	v.Reason = int(d.u8())
	eng := d.bytes(int(d.u8()))
	if version != recordVersion {
		return rec, fmt.Errorf("verdictlog: record version %d", version)
	}
	if flags&^(flagDual|flagSwapped) != 0 {
		return rec, fmt.Errorf("verdictlog: unknown flags %#x", flags)
	}
	v.Dual, v.Swapped = flags&flagDual != 0, flags&flagSwapped != 0
	copy(rec.FG[:], d.bytes(len(rec.FG)))
	copy(rec.FH[:], d.bytes(len(rec.FH)))
	v.N = int(d.u32())
	v.GEdge, v.HEdge, v.RedundantVertex = d.i32(), d.i32(), d.i32()
	v.Witness, v.CoWitness, v.FailPath = d.elems(), d.elems(), d.elems()
	if d.err != nil {
		return rec, d.err
	}
	if len(d.buf) != d.off {
		return rec, fmt.Errorf("verdictlog: %d trailing payload bytes", len(d.buf)-d.off)
	}
	res, err := v.Result()
	if err != nil {
		return rec, fmt.Errorf("verdictlog: %w", err)
	}
	rec.Engine, rec.N, rec.Res = string(eng), v.N, res
	return rec, nil
}

// decoder is a bounds-checked little-endian payload reader: a read past
// the end records errTruncated and yields zero values from then on.
type decoder struct {
	buf []byte
	off int
	err error
}

var errTruncated = errors.New("verdictlog: truncated payload")

// bytes takes the next n bytes (nil once the payload has run short).
func (d *decoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf)-d.off {
		d.err = errTruncated
		return nil
	}
	d.off += n
	return d.buf[d.off-n : d.off]
}

func (d *decoder) u8() byte {
	if b := d.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) i32() int { return int(int32(d.u32())) }

// elems reads a u32 count and that many i32 elements (nil for none).
func (d *decoder) elems() []int {
	count := int(d.u32())
	raw := d.bytes(4 * count)
	if len(raw) == 0 {
		return nil
	}
	out := make([]int, count)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}

// replaySegment reads one segment, returning the records up to the first
// corrupt frame, the byte size that survives, and how many trailing bytes
// were dropped as corrupt. It repairs nothing on disk — dropped bytes are
// simply never replayed again after the next compaction rewrites the set.
func replaySegment(path string) (recs []Record, size, truncated int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("verdictlog: %w", err)
	}
	total := int64(len(data))
	if len(data) < magicLen || [magicLen]byte(data[:magicLen]) != segmentMagic {
		// Wrong or missing magic: the whole file is noise.
		return nil, 0, total, nil
	}
	off := int64(magicLen)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, total - off, nil
		}
		if len(rest) < 4 {
			return recs, off, total - off, nil
		}
		plen := int64(binary.LittleEndian.Uint32(rest))
		if plen > maxPayload || int64(len(rest)) < 4+plen+4 {
			return recs, off, total - off, nil
		}
		payload := rest[4 : 4+plen]
		want := binary.LittleEndian.Uint32(rest[4+plen:])
		if crc32.Checksum(payload, castagnoli) != want {
			return recs, off, total - off, nil
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return recs, off, total - off, nil
		}
		recs = append(recs, rec)
		off += 4 + plen + 4
	}
}
