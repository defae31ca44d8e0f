package hgio

import (
	"errors"
	"strings"
	"testing"
)

func TestParseEdgesLimitedAcceptsWithinLimits(t *testing.T) {
	lim := Limits{MaxEdges: 4, MaxEdgeVerts: 3, MaxUniverse: 6, MaxLineBytes: 64}
	hs, _, err := ParseHypergraphs(lim, nil, "a b\nc d\n# comment\n-\n")
	if err != nil {
		t.Fatal(err)
	}
	if hs[0].M() != 3 {
		t.Fatalf("edges = %d, want 3", hs[0].M())
	}
	// The zero Limits bounds nothing but the default line length.
	hs2, _, err := ParseHypergraphs(Limits{}, nil, "a b c d e f g h\n")
	if err != nil || hs2[0].M() != 1 {
		t.Fatalf("zero limits rejected valid input: %v", err)
	}
}

func TestParseEdgesLimitedRejections(t *testing.T) {
	cases := []struct {
		name     string
		input    string
		lim      Limits
		quantity string
	}{
		{"edges", "a\nb\nc\n", Limits{MaxEdges: 2}, "edges"},
		{"edge vertices", "a b c d\n", Limits{MaxEdgeVerts: 3}, "edge vertices"},
		{"universe", "a b\nc d\ne f\n", Limits{MaxUniverse: 4}, "universe"},
		{"line bytes", strings.Repeat("x", 100) + "\n", Limits{MaxLineBytes: 32}, "line bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ParseHypergraphs(c.lim, nil, c.input)
			if err == nil {
				t.Fatal("oversized input accepted")
			}
			if !errors.Is(err, ErrLimitExceeded) {
				t.Fatalf("err = %v; want ErrLimitExceeded match", err)
			}
			var le *LimitError
			if !errors.As(err, &le) || le.Quantity != c.quantity {
				t.Fatalf("err = %v; want LimitError on %q", err, c.quantity)
			}
		})
	}
}

func TestParseEdgesLimitedKeepsSyntaxErrors(t *testing.T) {
	_, _, err := ParseHypergraphs(Limits{MaxEdges: 10}, nil, "a - b\n")
	if err == nil || errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("syntax error misclassified: %v", err)
	}
}

func TestReadHypergraphsLimitedSharedUniverse(t *testing.T) {
	lim := Limits{MaxUniverse: 3}
	// Each list alone has ≤ 3 names; the shared table has 4.
	_, _, err := ReadHypergraphsLimited(lim,
		strings.NewReader("a b\nb c\n"),
		strings.NewReader("c d\n"))
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("combined universe overflow not caught: %v", err)
	}
	hs, sy, err := ReadHypergraphsLimited(Limits{MaxUniverse: 4},
		strings.NewReader("a b\nb c\n"),
		strings.NewReader("c d\n"))
	if err != nil || len(hs) != 2 || sy.Len() != 4 {
		t.Fatalf("valid input rejected: %v", err)
	}
	if hs[0].N() != hs[1].N() {
		t.Fatal("universes differ")
	}
}

func TestReadDatasetLimited(t *testing.T) {
	_, _, err := ReadDatasetLimited(strings.NewReader("milk bread\nbeer\n"), Limits{MaxEdges: 1})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("row limit not enforced: %v", err)
	}
	d, _, err := ReadDatasetLimited(strings.NewReader("milk bread\nbeer\n"), Limits{MaxEdges: 2})
	if err != nil || d.NumRows() != 2 || d.NumItems() != 3 {
		t.Fatalf("valid dataset rejected: %v", err)
	}
}

func TestReadRelationCSVLimited(t *testing.T) {
	csv := "name,dept\nann,sales\nbob,eng\n"
	if _, err := ReadRelationCSVLimited(strings.NewReader(csv), Limits{MaxEdges: 1}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("tuple limit not enforced: %v", err)
	}
	if _, err := ReadRelationCSVLimited(strings.NewReader(csv), Limits{MaxEdgeVerts: 1}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("column limit not enforced: %v", err)
	}
	rel, err := ReadRelationCSVLimited(strings.NewReader(csv), Limits{MaxEdges: 2, MaxEdgeVerts: 2, MaxUniverse: 2})
	if err != nil || rel.NumRows() != 2 {
		t.Fatalf("valid relation rejected: %v", err)
	}
}
