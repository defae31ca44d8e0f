package hgio

// Input limits for untrusted sources. The CLI readers in hgio.go accept
// whatever the file contains; network-facing consumers (internal/service)
// pass Limits to the scanner (scan.go) or to the *Limited readers below,
// which reject oversized input with typed errors before any hypergraph is
// materialized.

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"

	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
	"dualspace/internal/keys"
)

// ErrLimitExceeded is the sentinel every LimitError matches via errors.Is.
var ErrLimitExceeded = errors.New("hgio: input exceeds limit")

// LimitError reports which input limit was exceeded and by how much.
// Got < 0 means "more than the limit" without an exact count (e.g. an
// over-long line that was never fully read).
type LimitError struct {
	// Quantity names the bounded dimension: "edges", "edge vertices",
	// "universe", "line bytes", "rows", "columns", "attributes".
	Quantity string
	Got, Max int
}

// Error renders the violation.
func (e *LimitError) Error() string {
	if e.Got < 0 {
		return fmt.Sprintf("hgio: input exceeds limit: more than %d %s", e.Max, e.Quantity)
	}
	return fmt.Sprintf("hgio: input exceeds limit: %d %s > %d", e.Got, e.Quantity, e.Max)
}

// Is makes errors.Is(err, ErrLimitExceeded) true for every LimitError.
func (e *LimitError) Is(target error) bool { return target == ErrLimitExceeded }

// Limits bounds the accepted size of untrusted input. A zero field means
// "unlimited" for that dimension, so the zero Limits value accepts
// everything the unlimited readers do.
type Limits struct {
	// MaxEdges bounds the number of edges (hypergraphs), transactions
	// (datasets) or tuples (relations).
	MaxEdges int
	// MaxEdgeVerts bounds the vertices per edge (and columns per CSV row).
	MaxEdgeVerts int
	// MaxUniverse bounds the number of distinct vertex/item/attribute
	// names. For multi-part inputs over a shared universe, use
	// CheckUniverse on the combined symbol table as well.
	MaxUniverse int
	// MaxLineBytes bounds a single input line: a line whose bytes before
	// its '\n' (a '\r' included) number MaxLineBytes or more is rejected.
	// Zero means 16 MiB.
	MaxLineBytes int
}

// CheckUniverse validates a combined universe size (e.g. after scanning
// several texts into one Symbols table) against MaxUniverse.
func (l Limits) CheckUniverse(n int) error {
	if l.MaxUniverse > 0 && n > l.MaxUniverse {
		return &LimitError{Quantity: "universe", Got: n, Max: l.MaxUniverse}
	}
	return nil
}

// ReadHypergraphsLimited is ParseHypergraphs over whole readers, with a
// fresh symbol table.
func ReadHypergraphsLimited(lim Limits, readers ...io.Reader) ([]*hypergraph.Hypergraph, *Symbols, error) {
	texts, err := readTexts(readers...)
	if err != nil {
		return nil, nil, err
	}
	return ParseHypergraphs(lim, nil, texts...)
}

// ReadDatasetLimited is ParseDataset over a whole reader.
func ReadDatasetLimited(r io.Reader, lim Limits) (*itemsets.Dataset, *Symbols, error) {
	texts, err := readTexts(r)
	if err != nil {
		return nil, nil, err
	}
	return ParseDataset(lim, texts[0])
}

// readTexts reads each reader whole into a string, the scanner's input.
func readTexts(readers ...io.Reader) ([]string, error) {
	texts := make([]string, len(readers))
	for i, r := range readers {
		var b strings.Builder
		if _, err := io.Copy(&b, r); err != nil {
			return nil, fmt.Errorf("hgio: %w", err)
		}
		texts[i] = b.String()
	}
	return texts, nil
}

// ReadRelationCSVLimited is ReadRelationCSV with MaxEdges bounding the
// tuple count and MaxEdgeVerts / MaxUniverse the attribute count.
// MaxLineBytes is NOT enforced here (encoding/csv has no per-field bound);
// callers reading untrusted sources must cap the reader itself, as the
// service does with http.MaxBytesReader.
func ReadRelationCSVLimited(r io.Reader, lim Limits) (*keys.Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("hgio: reading CSV header: %w", err)
	}
	if lim.MaxEdgeVerts > 0 && len(header) > lim.MaxEdgeVerts {
		return nil, &LimitError{Quantity: "columns", Got: len(header), Max: lim.MaxEdgeVerts}
	}
	if lim.MaxUniverse > 0 && len(header) > lim.MaxUniverse {
		return nil, &LimitError{Quantity: "attributes", Got: len(header), Max: lim.MaxUniverse}
	}
	rel, err := keys.NewRelation(header)
	if err != nil {
		return nil, err
	}
	rows := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, fmt.Errorf("hgio: reading CSV row: %w", err)
		}
		rows++
		if lim.MaxEdges > 0 && rows > lim.MaxEdges {
			return nil, &LimitError{Quantity: "rows", Got: -1, Max: lim.MaxEdges}
		}
		if err := rel.AddRow(rec...); err != nil {
			return nil, err
		}
	}
}
