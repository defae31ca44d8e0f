package hgio_test

import (
	"bytes"
	"strings"
	"testing"

	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
)

func TestParseEdges(t *testing.T) {
	hs, _, err := hgio.ParseHypergraphs(hgio.Limits{}, nil, "a b\nc d\n\n# comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if h := hs[0]; h.M() != 2 || h.Edge(0).Len() != 2 {
		t.Fatalf("edges: %v", h)
	}
}

func TestEmptyEdgeToken(t *testing.T) {
	hs, _, err := hgio.ParseHypergraphs(hgio.Limits{}, nil, "-\n")
	if err != nil {
		t.Fatal(err)
	}
	if h := hs[0]; h.M() != 1 || !h.Edge(0).IsEmpty() {
		t.Fatalf("edges: %v", h)
	}
	if _, _, err := hgio.ParseHypergraphs(hgio.Limits{}, nil, "a - b\n"); err == nil {
		t.Error("inline '-' accepted")
	}
}

func TestSharedUniverse(t *testing.T) {
	hs, sy, err := hgio.ReadHypergraphs(
		strings.NewReader("a b\nc d\n"),
		strings.NewReader("a c\na d\nb c\nb d\n"),
	)
	if err != nil {
		t.Fatal(err)
	}
	g, h := hs[0], hs[1]
	if g.N() != 4 || h.N() != 4 {
		t.Fatalf("universes: %d, %d", g.N(), h.N())
	}
	if sy.Len() != 4 || sy.Name(0) != "a" {
		t.Fatalf("symbols: %v", sy.Names())
	}
	if g.M() != 2 || h.M() != 4 {
		t.Fatal("edge counts wrong")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	hs, sy, err := hgio.ReadHypergraphs(strings.NewReader("a b\nc\n-\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hgio.WriteHypergraph(&buf, hs[0], sy); err != nil {
		t.Fatal(err)
	}
	hs2, sy2, err := hgio.ReadHypergraphs(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if sy2.Len() != sy.Len() || !hs2[0].EqualAsFamily(hs[0]) {
		t.Fatalf("round trip changed hypergraph: %q", buf.String())
	}
	// Numeric fallback.
	var buf2 bytes.Buffer
	if err := hgio.WriteHypergraph(&buf2, hypergraph.MustFromEdges(2, [][]int{{0, 1}}), nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf2.String()) != "0 1" {
		t.Errorf("numeric write: %q", buf2.String())
	}
}

func TestReadDataset(t *testing.T) {
	d, sy, err := hgio.ReadDataset(strings.NewReader("milk bread\nmilk eggs\nbread\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 3 || d.NumItems() != 3 {
		t.Fatalf("dataset shape: %d rows, %d items", d.NumRows(), d.NumItems())
	}
	if sy.Name(0) != "milk" || d.ItemName(1) != "bread" {
		t.Error("item names wrong")
	}
}

func TestReadRelationCSV(t *testing.T) {
	rel, err := hgio.ReadRelationCSV(strings.NewReader("name,dept\nann,sales\nbob,eng\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumAttrs() != 2 || rel.NumRows() != 2 {
		t.Fatalf("relation shape: %d attrs, %d rows", rel.NumAttrs(), rel.NumRows())
	}
	if _, err := hgio.ReadRelationCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := hgio.ReadRelationCSV(strings.NewReader("a,a\n1,2\n")); err == nil {
		t.Error("duplicate header accepted")
	}
}
