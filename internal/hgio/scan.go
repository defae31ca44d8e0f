package hgio

// The one parser of the line-oriented edge format: every text reader of
// the package goes through scanner, the io.Reader ones by reading their
// input into a string first.

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
)

// defaultMaxLineBytes bounds a line when Limits.MaxLineBytes is zero.
const defaultMaxLineBytes = 16 * 1024 * 1024

// scanner parses texts already in memory, one pass per text: lines split
// at '\n', fields split under strings.Fields' rules and interned as
// substrings of the text (no per-name copy), vertex ids appended to one
// flat slice. Edge k of the texts scanned so far is ids[bounds[k]:bounds[k+1]].
type scanner struct {
	lim         Limits
	sy          *Symbols
	ids, bounds []int32
	fields      []string // scratch: the current line's fields
}

func newScanner(lim Limits, sy *Symbols) *scanner {
	if sy == nil {
		sy = NewSymbols()
	}
	return &scanner{lim, sy, make([]int32, 0, 64), make([]int32, 1, 32), make([]string, 0, 16)}
}

// scan appends the edges of text. The limits apply to text alone: its
// edges, the vertices of each edge, its line bytes and the distinct names
// it uses. A "-" standing alone is the empty edge.
func (s *scanner) scan(text string) error {
	maxLine := s.lim.MaxLineBytes
	if maxLine <= 0 {
		maxLine = defaultMaxLineBytes
	}
	// Every name interned from base on is new to this text; older names are
	// counted once each through used.
	base, old, used := s.sy.Len(), 0, bitset.New(s.sy.Len())
	edges := 0
	for lineNo := 1; text != ""; lineNo++ {
		line, rest, _ := strings.Cut(text, "\n")
		text = rest
		if len(line) >= maxLine {
			return &LimitError{Quantity: "line bytes", Got: -1, Max: maxLine}
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		if s.lim.MaxEdges > 0 && edges >= s.lim.MaxEdges {
			return &LimitError{Quantity: "edges", Got: -1, Max: s.lim.MaxEdges}
		}
		edges++
		if line != "-" {
			s.fields = appendFields(s.fields[:0], line)
			if s.lim.MaxEdgeVerts > 0 && len(s.fields) > s.lim.MaxEdgeVerts {
				return &LimitError{Quantity: "edge vertices", Got: len(s.fields), Max: s.lim.MaxEdgeVerts}
			}
			for _, f := range s.fields {
				if f == "-" {
					return fmt.Errorf("hgio: line %d: '-' must stand alone", lineNo)
				}
				id := s.sy.Intern(f)
				s.ids = append(s.ids, int32(id))
				if id < base && !used.Contains(id) {
					used.Add(id)
					old++
				}
				if s.lim.MaxUniverse > 0 && s.sy.Len()-base+old > s.lim.MaxUniverse {
					return &LimitError{Quantity: "universe", Got: -1, Max: s.lim.MaxUniverse}
				}
			}
		}
		s.bounds = append(s.bounds, int32(len(s.ids)))
	}
	return nil
}

// appendFields appends the fields of s to dst, split exactly as
// strings.Fields splits them: at runs of unicode.IsSpace runes, with
// invalid UTF-8 bytes kept inside fields.
func appendFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, s[start:i])
			start = -1
		}
		i += w
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// ParseHypergraphs parses several edge texts into hypergraphs over one
// shared universe: names are interned into sy in place (a fresh table when
// nil), in first-appearance order, g's before h's. Each text is bounded by
// lim alone, and the combined table by lim.MaxUniverse after each text.
func ParseHypergraphs(lim Limits, sy *Symbols, texts ...string) ([]*hypergraph.Hypergraph, *Symbols, error) {
	s := newScanner(lim, sy)
	ends := make([]int, 1, len(texts)+1) // text i's edges are [ends[i], ends[i+1])
	for _, text := range texts {
		if err := s.scan(text); err != nil {
			return nil, nil, err
		}
		if err := lim.CheckUniverse(s.sy.Len()); err != nil {
			return nil, nil, err
		}
		ends = append(ends, len(s.bounds)-1)
	}
	out := make([]*hypergraph.Hypergraph, len(texts))
	for i := range out {
		out[i] = hypergraph.FromFlat(s.sy.Len(), s.ids, s.bounds[ends[i]:ends[i+1]+1])
	}
	return out, s.sy, nil
}

// ParseDataset parses a transaction database, one transaction per line,
// bounded by lim; item names are interned in first-appearance order.
func ParseDataset(lim Limits, text string) (*itemsets.Dataset, *Symbols, error) {
	s := newScanner(lim, nil)
	if err := s.scan(text); err != nil {
		return nil, nil, err
	}
	d := itemsets.NewDataset(s.sy.Len())
	if err := d.SetItemNames(s.sy.names); err != nil {
		return nil, nil, err
	}
	for _, row := range hypergraph.FromFlat(s.sy.Len(), s.ids, s.bounds).Edges() {
		d.AddRowSet(row)
	}
	return d, s.sy, nil
}
