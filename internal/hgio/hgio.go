// Package hgio reads and writes the text formats used by the dualspace
// command-line tools: hypergraphs / transaction databases as one edge (row)
// of whitespace-separated vertex (item) names per line, and relational
// instances as CSV with a header row.
//
// Hypergraph format:
//
//	# duality instance
//	a b
//	c d
//
// Lines starting with '#' (after optional whitespace) and blank lines are
// skipped. Vertex names are interned in first-appearance order into a
// Symbols table; several files can share one table so the resulting
// hypergraphs live in a common universe, which the DUAL machinery requires.
package hgio

import (
	"fmt"
	"io"
	"strings"

	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
	"dualspace/internal/keys"
)

// Symbols interns vertex names to dense indices.
type Symbols struct {
	names []string
	index map[string]int
}

// NewSymbols returns a table holding names, in order.
func NewSymbols(names ...string) *Symbols {
	s := &Symbols{index: map[string]int{}}
	for _, name := range names {
		s.Intern(name)
	}
	return s
}

// Intern returns the index of name, assigning the next free index on first
// sight.
func (s *Symbols) Intern(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := len(s.names)
	s.index[name] = i
	s.names = append(s.names, name)
	return i
}

// Len returns the number of interned names.
func (s *Symbols) Len() int { return len(s.names) }

// Name returns the name at index i.
func (s *Symbols) Name(i int) string { return s.names[i] }

// Names returns a copy of all names in index order.
func (s *Symbols) Names() []string { return append([]string(nil), s.names...) }

// ReadHypergraphs reads several edge files into hypergraphs over a shared
// universe, without input bounds (see ReadHypergraphsLimited).
func ReadHypergraphs(readers ...io.Reader) ([]*hypergraph.Hypergraph, *Symbols, error) {
	return ReadHypergraphsLimited(Limits{}, readers...)
}

// WriteHypergraph writes h in the line-oriented format using sy for names
// (nil sy writes numeric vertex ids).
func WriteHypergraph(w io.Writer, h *hypergraph.Hypergraph, sy *Symbols) error {
	for _, e := range h.Edges() {
		if e.IsEmpty() {
			if _, err := fmt.Fprintln(w, "-"); err != nil {
				return err
			}
			continue
		}
		var parts []string
		e.ForEach(func(v int) bool {
			if sy != nil {
				parts = append(parts, sy.Name(v))
			} else {
				parts = append(parts, fmt.Sprint(v))
			}
			return true
		})
		if _, err := fmt.Fprintln(w, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// ReadDataset reads a transaction database in the same line format: one
// transaction per line, items separated by whitespace, without input
// bounds (see ReadDatasetLimited).
func ReadDataset(r io.Reader) (*itemsets.Dataset, *Symbols, error) {
	return ReadDatasetLimited(r, Limits{})
}

// ReadRelationCSV reads a relational instance from CSV: the first record is
// the attribute header, the rest are tuples. It is ReadRelationCSVLimited
// without bounds.
func ReadRelationCSV(r io.Reader) (*keys.Relation, error) {
	return ReadRelationCSVLimited(r, Limits{})
}
