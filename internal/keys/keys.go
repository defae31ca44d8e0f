// Package keys implements the additional-key-for-instance problem
// (Gottlob, PODS 2013, Proposition 1.2): given an explicit relational
// instance R and a set K of minimal keys, decide whether R has a minimal
// key outside K — a problem logspace-equivalent to DUAL.
//
// The classical reduction: K ⊆ A is a key of R iff no two distinct tuples
// agree on all attributes of K, i.e. K meets every difference set
// D(t,t') = {attributes where t and t' differ}. Hence the minimal keys of R
// are exactly the minimal transversals of the minimized difference-set
// family, and the additional-key question is the question tr(D) ⊆ K — the
// tree stage of the duality engine, which also produces a concrete new
// minimal key on a negative answer.
package keys

import (
	"context"
	"errors"
	"fmt"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hypergraph"
	"dualspace/internal/transversal"
)

// Relation is an explicit relational instance over named attributes.
type Relation struct {
	attrs []string
	rows  [][]string
}

// NewRelation returns an empty relation with the given attribute names
// (distinct, non-empty).
func NewRelation(attrs []string) (*Relation, error) {
	if len(attrs) == 0 {
		return nil, errors.New("keys: relation needs at least one attribute")
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if a == "" {
			return nil, errors.New("keys: empty attribute name")
		}
		if seen[a] {
			return nil, fmt.Errorf("keys: duplicate attribute %q", a)
		}
		seen[a] = true
	}
	return &Relation{attrs: append([]string(nil), attrs...)}, nil
}

// MustNewRelation panics on error; for tests and literals.
func MustNewRelation(attrs []string) *Relation {
	r, err := NewRelation(attrs)
	if err != nil {
		panic(err)
	}
	return r
}

// AddRow appends a tuple; the arity must match the attribute list.
func (r *Relation) AddRow(vals ...string) error {
	if len(vals) != len(r.attrs) {
		return fmt.Errorf("keys: row arity %d, want %d", len(vals), len(r.attrs))
	}
	r.rows = append(r.rows, append([]string(nil), vals...))
	return nil
}

// NumAttrs returns the number of attributes.
func (r *Relation) NumAttrs() int { return len(r.attrs) }

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int { return len(r.rows) }

// Attrs returns a copy of the attribute names, in index order.
func (r *Relation) Attrs() []string { return append([]string(nil), r.attrs...) }

// AttrName returns the name of attribute i.
func (r *Relation) AttrName(i int) string { return r.attrs[i] }

// AttrIndex returns the index of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// DifferenceSets returns the minimized family of difference sets
// {attributes where t and t' differ} over all tuple pairs. Duplicate
// tuples contribute the empty difference set, which (correctly) minimizes
// the family to {∅}: such relations have no keys.
func (r *Relation) DifferenceSets() *hypergraph.Hypergraph {
	n := len(r.attrs)
	raw := hypergraph.New(n)
	for i := 0; i < len(r.rows); i++ {
		for j := i + 1; j < len(r.rows); j++ {
			d := bitset.New(n)
			for a := 0; a < n; a++ {
				if r.rows[i][a] != r.rows[j][a] {
					d.Add(a)
				}
			}
			raw.AddEdge(d)
		}
	}
	return raw.Minimize()
}

// AgreeSets returns the family of maximal agree sets (complements of the
// minimized difference sets) — the "antikeys" view.
func (r *Relation) AgreeSets() *hypergraph.Hypergraph {
	return r.DifferenceSets().ComplementEdges()
}

// IsKey reports whether k is a key: no two distinct tuples agree on every
// attribute of k. (Checked directly from the instance, independently of
// the difference-set reduction; tests assert the equivalence.)
func (r *Relation) IsKey(k bitset.Set) bool {
	for i := 0; i < len(r.rows); i++ {
	next:
		for j := i + 1; j < len(r.rows); j++ {
			cont := k.ForEach(func(a int) bool {
				return r.rows[i][a] == r.rows[j][a]
			})
			if !cont {
				continue next // some attribute distinguishes the pair
			}
			return false // the pair agrees on all of k
		}
	}
	return true
}

// IsMinimalKey reports whether k is a key with no proper subset being one.
func (r *Relation) IsMinimalKey(k bitset.Set) bool {
	if !r.IsKey(k) {
		return false
	}
	redundant := false
	k.ForEach(func(a int) bool {
		if r.IsKey(k.WithoutElem(a)) {
			redundant = true
			return false
		}
		return true
	})
	return !redundant
}

// MinimalKeys enumerates all minimal keys of r as a canonical hypergraph
// over the attribute universe, via transversal enumeration of the
// difference sets (Proposition 1.2's reduction).
func (r *Relation) MinimalKeys() *hypergraph.Hypergraph {
	return transversal.AsHypergraph(r.DifferenceSets())
}

// MinimalKeysBrute enumerates minimal keys by exhaustive subset scan (test
// oracle; panics beyond 20 attributes).
func (r *Relation) MinimalKeysBrute() *hypergraph.Hypergraph {
	n := len(r.attrs)
	if n > 20 {
		panic("keys: brute-force attribute universe too large")
	}
	out := hypergraph.New(n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		k := bitset.New(n)
		for a := 0; a < n; a++ {
			if mask&(1<<uint(a)) != 0 {
				k.Add(a)
			}
		}
		if r.IsMinimalKey(k) {
			out.AddEdge(k)
		}
	}
	return out.Canonical()
}

// AdditionalKeyResult is the outcome of the additional-key decision.
type AdditionalKeyResult struct {
	// Complete reports that known = the set of all minimal keys.
	Complete bool
	// NewKey is a minimal key outside the known family (present iff
	// Complete is false).
	NewKey   bitset.Set
	FoundNew bool
	// DualityStats carries the decomposition statistics of the underlying
	// tree search (zero for degenerate instances decided directly).
	DualityStats core.Stats
}

// AdditionalKey decides the additional-key-for-instance problem: does R
// have a minimal key not in known? Every member of known must be a minimal
// key of r (otherwise an error is returned: the problem, as defined in the
// paper, presumes K contains minimal keys). The decision runs the
// Boros–Makino tree on the pair (difference sets, known keys), and on
// incompleteness returns a concrete new minimal key extracted from the fail
// leaf's witness.
func (r *Relation) AdditionalKey(known *hypergraph.Hypergraph) (*AdditionalKeyResult, error) {
	return r.AdditionalKeyContext(context.Background(), known)
}

// AdditionalKeyContext is AdditionalKey with cancellation: the underlying
// tree search polls ctx at every node (see core.TrSubsetContext). The
// decision runs on a one-shot memo-less session; AdditionalKeyWith takes a
// long-lived one.
func (r *Relation) AdditionalKeyContext(ctx context.Context, known *hypergraph.Hypergraph) (*AdditionalKeyResult, error) {
	return r.AdditionalKeyWith(ctx, known, engine.NewSessionMemo(nil, -1))
}

// AdditionalKeyWith is AdditionalKeyContext on a caller-held session. The
// question tr(D) ⊆ K is the raw tree stage (Session.TrSubset), which every
// engine would answer alike; the session pins scratch across the
// incremental calls of EnumerateKeysIncrementallyWith.
func (r *Relation) AdditionalKeyWith(ctx context.Context, known *hypergraph.Hypergraph, sess *engine.Session) (*AdditionalKeyResult, error) {
	n := len(r.attrs)
	if known.N() != n {
		return nil, errors.New("keys: known-keys universe differs from attribute count")
	}
	for i := 0; i < known.M(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !r.IsMinimalKey(known.Edge(i)) {
			return nil, fmt.Errorf("keys: claimed key %v is not a minimal key", known.Edge(i))
		}
	}
	d := r.DifferenceSets()

	// Degenerate instances, decided directly.
	if d.M() == 0 {
		// At most one distinct tuple: the empty key is the unique minimal
		// key.
		if known.M() == 1 && known.Edge(0).IsEmpty() {
			return &AdditionalKeyResult{Complete: true}, nil
		}
		return &AdditionalKeyResult{NewKey: bitset.New(n), FoundNew: true}, nil
	}
	if d.HasEmptyEdge() {
		// Duplicate tuples: no keys at all; known is necessarily empty
		// (members were verified as keys above).
		return &AdditionalKeyResult{Complete: true}, nil
	}
	if known.M() == 0 {
		// No claims: any minimal key answers the question.
		k := d.MinimalizeTransversal(bitset.Full(n))
		return &AdditionalKeyResult{NewKey: k, FoundNew: true}, nil
	}

	res, err := sess.TrSubset(ctx, d, known)
	if err != nil {
		return nil, err
	}
	if res.Dual {
		return &AdditionalKeyResult{Complete: true, DualityStats: res.Stats}, nil
	}
	k := d.MinimalizeTransversal(res.Witness)
	return &AdditionalKeyResult{NewKey: k, FoundNew: true, DualityStats: res.Stats}, nil
}

// EnumerateKeysIncrementally enumerates all minimal keys through repeated
// AdditionalKey calls — the paper's incremental pattern specialized to key
// discovery. It returns the keys in discovery order.
func (r *Relation) EnumerateKeysIncrementally() (*hypergraph.Hypergraph, int, error) {
	return r.EnumerateKeysIncrementallyContext(context.Background())
}

// EnumerateKeysIncrementallyContext is EnumerateKeysIncrementally with
// cancellation between and within the additional-key calls. Each run pins a
// fresh engine session, so the |keys| + 1 decisions share scratch.
func (r *Relation) EnumerateKeysIncrementallyContext(ctx context.Context) (*hypergraph.Hypergraph, int, error) {
	return r.EnumerateKeysIncrementallyWith(ctx, engine.NewSession(nil))
}

// EnumerateKeysIncrementallyWith is EnumerateKeysIncrementallyContext on a
// caller-held (typically long-lived) session.
func (r *Relation) EnumerateKeysIncrementallyWith(ctx context.Context, sess *engine.Session) (*hypergraph.Hypergraph, int, error) {
	known := hypergraph.New(len(r.attrs))
	calls := 0
	for {
		calls++
		res, err := r.AdditionalKeyWith(ctx, known, sess)
		if err != nil {
			return nil, calls, err
		}
		if res.Complete {
			return known, calls, nil
		}
		known.AddEdge(res.NewKey)
	}
}
