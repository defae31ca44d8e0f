package verdictlog

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/hypergraph"
)

// mkRecord builds a deterministic record from a seed: fingerprints from
// the seed bytes, a verdict whose shape depends on the seed's parity.
func mkRecord(seed int) Record {
	fg := hypergraph.Fingerprint(sha256.Sum256([]byte(fmt.Sprintf("g%d", seed))))
	fh := hypergraph.Fingerprint(sha256.Sum256([]byte(fmt.Sprintf("h%d", seed))))
	n := 4 + seed%13
	res := &core.Result{GEdge: -1, HEdge: -1, RedundantVertex: -1}
	switch seed % 3 {
	case 0:
		res.Dual = true
	case 1:
		res.Reason = core.ReasonNewTransversal
		res.Witness = bitset.FromSlice(n, []int{seed % n})
		res.CoWitness = bitset.FromSlice(n, []int{(seed + 1) % n})
		res.FailPath = []int{1, seed%4 + 1}
		res.Swapped = seed%2 == 0
	default:
		res.Reason = core.ReasonNotCrossIntersecting
		res.GEdge = seed % 7
		res.HEdge = (seed + 3) % 7
	}
	return Record{Engine: "core", FG: fg, FH: fh, N: n, Res: res}
}

func sameRecord(t *testing.T, got, want Record) {
	t.Helper()
	if got.Engine != want.Engine || got.FG != want.FG || got.FH != want.FH || got.N != want.N {
		t.Fatalf("record identity drifted: got %v/%v want %v/%v", got.Engine, got.N, want.Engine, want.N)
	}
	g, w := got.Res, want.Res
	if g.Dual != w.Dual || g.Reason != w.Reason || g.GEdge != w.GEdge ||
		g.HEdge != w.HEdge || g.RedundantVertex != w.RedundantVertex || g.Swapped != w.Swapped {
		t.Fatalf("verdict drifted: %+v vs %+v", g, w)
	}
	if !g.Witness.Equal(w.Witness) || !g.CoWitness.Equal(w.CoWitness) {
		t.Fatal("witness drifted")
	}
	if len(g.FailPath) != len(w.FailPath) {
		t.Fatalf("fail path drifted: %v vs %v", g.FailPath, w.FailPath)
	}
	for i := range g.FailPath {
		if g.FailPath[i] != w.FailPath[i] {
			t.Fatalf("fail path drifted: %v vs %v", g.FailPath, w.FailPath)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Duplicate keys are skipped.
	if err := l.Append(mkRecord(0)); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appended != n || st.SkippedDup != 1 || st.LiveRecords != n {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := l2.ReplayedRecords()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		sameRecord(t, rec, mkRecord(i))
	}
	if got := l2.ReplayedRecords(); got != nil {
		t.Fatal("ReplayedRecords is not one-shot")
	}
	if st := l2.Stats(); st.Replayed != n || st.LiveRecords != n {
		t.Fatalf("reopen stats = %+v", st)
	}
}

func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("tiny segment bound produced only %d segments", st.Segments)
	}
	_ = l.Close()

	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := l2.ReplayedRecords(); len(recs) != 40 {
		t.Fatalf("replayed %d across rolled segments, want 40", len(recs))
	}
}

// TestCrashTruncationProperty is the log's central contract: after
// appending K records and truncating the directory's byte stream at an
// arbitrary point ("crash"), replay yields exactly the longest prefix of
// appends whose frames fully survive — never a corrupt record, never a
// reordering, never a loss of an earlier intact record.
func TestCrashTruncationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 30; trial++ {
		dir := t.TempDir()
		// Small segments so crashes land in every segment position.
		l, err := Open(dir, Options{SegmentBytes: 300})
		if err != nil {
			t.Fatal(err)
		}
		count := 5 + rng.Intn(40)
		for i := 0; i < count; i++ {
			if err := l.Append(mkRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Crash: chop bytes off the tail of the final non-empty segment
		// (and sometimes scribble garbage over the cut).
		idxs := segments(t, dir)
		last := idxs[len(idxs)-1]
		for len(idxs) > 1 {
			if fileSize(t, dir, last) > int64(magicLen) {
				break
			}
			idxs = idxs[:len(idxs)-1]
			last = idxs[len(idxs)-1]
		}
		path := filepath.Join(dir, fmt.Sprintf("%08d.vlog", last))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) <= int64(magicLen) {
			continue
		}
		cut := magicLen + rng.Intn(len(data)-magicLen)
		mangled := data[:cut]
		if rng.Intn(2) == 0 && cut > magicLen {
			mangled = append(append([]byte{}, mangled...), 0xde, 0xad, 0xbe, 0xef)
		}
		if err := os.WriteFile(path, mangled, 0o644); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(dir, Options{SegmentBytes: 300})
		if err != nil {
			t.Fatalf("trial %d: reopen after crash: %v", trial, err)
		}
		recs := l2.ReplayedRecords()
		_ = l2.Close()
		if len(recs) > count {
			t.Fatalf("trial %d: replay invented records: %d > %d", trial, len(recs), count)
		}
		// Replay must be exactly a prefix of the appended sequence.
		for i, rec := range recs {
			sameRecord(t, rec, mkRecord(i))
		}
	}
}

func segments(t *testing.T, dir string) []int {
	t.Helper()
	l := &Log{dir: dir}
	idxs, err := l.segmentIndexes()
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) == 0 {
		t.Fatal("no segments on disk")
	}
	return idxs
}

func fileSize(t *testing.T, dir string, idx int) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("%08d.vlog", idx)))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestCorruptMagicDropsSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = l.Close()
	path := filepath.Join(dir, "00000000.vlog")
	data, _ := os.ReadFile(path)
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := l2.ReplayedRecords(); len(recs) != 0 {
		t.Fatalf("bad-magic segment replayed %d records", len(recs))
	}
	if st := l2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("bad magic not accounted as truncated bytes")
	}
}

func TestFlippedBitTruncatesAtCRC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = l.Close()
	path := filepath.Join(dir, "00000000.vlog")
	data, _ := os.ReadFile(path)
	// Flip one bit two-thirds of the way in: every record from the frame
	// containing that byte onward must vanish, everything before survives.
	data[magicLen+(len(data)-magicLen)*2/3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := l2.ReplayedRecords()
	if len(recs) == 0 || len(recs) >= 10 {
		t.Fatalf("bit flip replayed %d of 10 records; want a proper prefix", len(recs))
	}
	for i, rec := range recs {
		sameRecord(t, rec, mkRecord(i))
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := l.Stats()
	if after.Compactions != 1 || after.LiveRecords != 30 {
		t.Fatalf("post-compact stats = %+v", after)
	}
	if after.Segments >= before.Segments {
		t.Fatalf("compaction did not shrink segments: %d -> %d", before.Segments, after.Segments)
	}
	// The log must remain appendable after compaction.
	if err := l.Append(mkRecord(100)); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	if err := l.Append(mkRecord(0)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SkippedDup != 1 {
		t.Fatalf("dedup state lost across compaction: %+v", st)
	}
	_ = l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := l2.ReplayedRecords(); len(recs) != 31 {
		t.Fatalf("replayed %d after compaction, want 31", len(recs))
	}
}

func TestCompactMaxRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.LiveRecords != 10 {
		t.Fatalf("retention kept %d records, want 10", st.LiveRecords)
	}
	_ = l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := l2.ReplayedRecords()
	if len(recs) != 10 {
		t.Fatalf("replayed %d, want 10", len(recs))
	}
	// The newest 10 survive.
	for i, rec := range recs {
		sameRecord(t, rec, mkRecord(20+i))
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	if err := l.Append(mkRecord(1)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
