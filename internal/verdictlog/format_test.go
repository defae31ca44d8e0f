package verdictlog

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/v1.vlog")

// goldenSegment is a segment written by an earlier build's encoder from
// goldenRecords: every mkRecord shape, fail paths and swaps included.
const goldenSegment = "testdata/v1.vlog"

func goldenRecords() []Record {
	recs := make([]Record, 9)
	for i := range recs {
		recs[i] = mkRecord(i)
	}
	return recs
}

// TestSegmentGolden: the checked-in segment replays to the records it was
// written from, and writing those records again reproduces it byte for
// byte — the on-disk layout has not moved.
func TestSegmentGolden(t *testing.T) {
	want := goldenRecords()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenSegment), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeSegmentFile(goldenSegment, want); err != nil {
			t.Fatal(err)
		}
		return
	}
	recs, _, truncated, err := replaySegment(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 || len(recs) != len(want) {
		t.Fatalf("replayed %d records (%d bytes truncated), want %d", len(recs), truncated, len(want))
	}
	for i := range recs {
		sameRecord(t, recs[i], want[i])
	}
	again := filepath.Join(t.TempDir(), "again.vlog")
	if err := writeSegmentFile(again, recs); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(again)
	old, _ := os.ReadFile(goldenSegment)
	if !bytes.Equal(got, old) {
		t.Error("re-encoding the replayed records does not reproduce the segment")
	}
}

// FuzzDecodeRecord: a payload either fails to decode or decodes to a record
// that encodes back to the same bytes, and decoding never panics.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range goldenRecords() {
		payload, err := encodeRecord(&rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		again, err := encodeRecord(&rec)
		if err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("decoded record re-encodes differently:\n got  %x\n want %x", again, payload)
		}
	})
}
