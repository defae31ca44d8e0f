package hgio_test

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"dualspace/internal/hgio"
)

// TestQuickParseEdgesNeverPanics: arbitrary input must parse or error,
// never panic.
func TestQuickParseEdgesNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _, _ = hgio.ParseHypergraphs(hgio.Limits{}, nil, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickCSVNeverPanics: arbitrary CSV-ish input must never panic.
func TestQuickCSVNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = hgio.ReadRelationCSV(strings.NewReader(s))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickHypergraphRoundTrip: any parsed edge list survives a
// write/parse cycle with the same family.
func TestQuickHypergraphRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		// Decode raw bytes into a well-formed edge file over letters a..f.
		var b strings.Builder
		for i, x := range raw {
			b.WriteByte('a' + x%6)
			if i%3 == 2 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
		hs, sy, err := hgio.ReadHypergraphs(strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		var out strings.Builder
		if err := hgio.WriteHypergraph(&out, hs[0], sy); err != nil {
			return false
		}
		hs2, _, err := hgio.ReadHypergraphs(strings.NewReader(out.String()))
		if err != nil {
			return false
		}
		// The universes can shrink if a vertex never survives (it cannot:
		// write emits every vertex present), so families must match when
		// padded to the same universe — equality of edge count and of each
		// canonical rendering suffices here.
		return hs2[0].M() == hs[0].M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHugeLine ensures the scanner accepts long edge lines (far beyond
// bufio's default buffer) under the default line bound.
func TestHugeLine(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100000; i++ {
		b.WriteString("v")
		b.WriteString(strconv.Itoa(i))
		b.WriteString(" ")
	}
	hs, _, err := hgio.ParseHypergraphs(hgio.Limits{}, nil, b.String())
	if err != nil {
		t.Fatal(err)
	}
	if h := hs[0]; h.M() != 1 || h.Edge(0).Len() != 100000 {
		t.Fatalf("huge line parsed into %d edges", h.M())
	}
}
