package hgio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"dualspace/internal/hypergraph"
)

// refParseEdges is the bufio + strings.Fields parser the scanner replaced,
// kept as the reference the differential fuzz target checks it against.
func refParseEdges(r io.Reader, lim Limits) ([][]string, error) {
	var out [][]string
	sc := bufio.NewScanner(r)
	maxLine := 16 * 1024 * 1024
	if lim.MaxLineBytes > 0 {
		maxLine = lim.MaxLineBytes
	}
	sc.Buffer(make([]byte, 0, min(64*1024, maxLine)), maxLine)
	var distinct map[string]struct{}
	if lim.MaxUniverse > 0 {
		distinct = make(map[string]struct{})
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lim.MaxEdges > 0 && len(out) >= lim.MaxEdges {
			return nil, &LimitError{Quantity: "edges", Got: -1, Max: lim.MaxEdges}
		}
		if line == "-" {
			out = append(out, []string{})
			continue
		}
		fields := strings.Fields(line)
		if lim.MaxEdgeVerts > 0 && len(fields) > lim.MaxEdgeVerts {
			return nil, &LimitError{Quantity: "edge vertices", Got: len(fields), Max: lim.MaxEdgeVerts}
		}
		for _, f := range fields {
			if f == "-" {
				return nil, fmt.Errorf("hgio: line %d: '-' must stand alone", lineNo)
			}
			if distinct != nil {
				distinct[f] = struct{}{}
				if len(distinct) > lim.MaxUniverse {
					return nil, &LimitError{Quantity: "universe", Got: -1, Max: lim.MaxUniverse}
				}
			}
		}
		out = append(out, fields)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &LimitError{Quantity: "line bytes", Got: -1, Max: maxLine}
		}
		return nil, fmt.Errorf("hgio: %w", err)
	}
	return out, nil
}

// refReadHypergraphs is the reference ReadHypergraphsLimited: parse each
// text whole, then intern it and check the combined universe; build every
// hypergraph once the universe is final.
func refReadHypergraphs(lim Limits, texts ...string) ([]*hypergraph.Hypergraph, *Symbols, error) {
	sy := NewSymbols()
	lists := make([][][]string, 0, len(texts))
	for _, text := range texts {
		el, err := refParseEdges(strings.NewReader(text), lim)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range el {
			for _, name := range e {
				sy.Intern(name)
			}
		}
		if err := lim.CheckUniverse(sy.Len()); err != nil {
			return nil, nil, err
		}
		lists = append(lists, el)
	}
	out := make([]*hypergraph.Hypergraph, len(lists))
	for i, el := range lists {
		out[i] = hypergraph.New(sy.Len())
		for _, e := range el {
			idx := make([]int, len(e))
			for k, name := range e {
				idx[k] = sy.Intern(name)
			}
			out[i].AddEdgeElems(idx...)
		}
	}
	return out, sy, nil
}

// diffLimits is small enough that random input reaches every limit,
// MaxLineBytes included.
var diffLimits = Limits{MaxEdges: 8, MaxEdgeVerts: 6, MaxUniverse: 10, MaxLineBytes: 24}

// parsePairSeeds cover the scanner's exact semantics: the line-byte
// boundary at MaxLineBytes-1, MaxLineBytes and MaxLineBytes+1 with and
// without '\n' and with "\r\n", the Unicode spaces U+0085 and U+00A0,
// invalid UTF-8, comments after leading whitespace, and '-' alone and
// among other fields.
func parsePairSeeds() [][2]string {
	seeds := [][2]string{
		{"a b\nc d\n", "a c\na d\nb c\nb d\n"},
		{"", ""},
		{"x\u0085y z\n", " x\u0085\n"},
		{"\xff\xfe a\n\xc3\n", "a \xff\xfe\n"},
		{"  # comment\n\t#x y\na b\n", "# only\n\n   \n"},
		{"-\n", "a b\n-\n"},
		{"a - b\n", "a\n"},
		{"a\n\n# c\n-x -\n", "- \n"},
		{"a b c d e f g\n", "a\n"},
		{"a b c d e f\ng h i j k\n", "l\n"},
		{"a b c d e\n", "f g h i j k\n"},
		{strings.Repeat("e\n", 9), "a\n"},
		{"a\r\nb\r\n\r\n", "a\rb\n"},
	}
	for _, n := range []int{diffLimits.MaxLineBytes - 1, diffLimits.MaxLineBytes, diffLimits.MaxLineBytes + 1} {
		line := strings.Repeat("v", n)
		seeds = append(seeds,
			[2]string{line, "a\n"},
			[2]string{line + "\n", "a\n"},
			[2]string{"a\n", line + "\r\n"},
			[2]string{"a\n", line[:n-1] + "\r\n"},
			[2]string{"a\n" + line, line + "\nb\n"})
	}
	return seeds
}

// FuzzParseHypergraphs asserts that ParseHypergraphs and the reference
// parser agree on arbitrary pairs of texts, under small limits and under
// none: the same error text (so the same LimitError quantity, Got and Max,
// or the same syntax-error line), and on success the same hypergraphs and
// the same symbol order. The seed corpus is checked in under
// testdata/fuzz/FuzzParseHypergraphs.
func FuzzParseHypergraphs(f *testing.F) {
	for _, s := range parsePairSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, g, h string) {
		for _, lim := range []Limits{diffLimits, {}} {
			got, gotSy, gotErr := ParseHypergraphs(lim, nil, g, h)
			want, wantSy, wantErr := refReadHypergraphs(lim, g, h)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("limits %+v: error %v, reference %v", lim, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !slices.Equal(gotSy.Names(), wantSy.Names()) {
				t.Fatalf("limits %+v: symbols %q, reference %q", lim, gotSy.Names(), wantSy.Names())
			}
			for i := range want {
				if !sameEdges(got[i], want[i]) {
					t.Fatalf("limits %+v: hypergraph %d is %v, reference %v", lim, i, got[i], want[i])
				}
			}
		}
	})
}

// sameEdges reports whether a and b have the same universe and the same
// edges in the same order.
func sameEdges(a, b *hypergraph.Hypergraph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for i := range a.Edges() {
		if !a.Edge(i).Equal(b.Edge(i)) {
			return false
		}
	}
	return true
}
