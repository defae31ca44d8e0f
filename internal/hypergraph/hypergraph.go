// Package hypergraph implements simple (Sperner) hypergraphs over a dense
// vertex universe [0, n), the shared object of every component of dualspace.
//
// A hypergraph is a finite family of finite vertex sets (hyperedges). It is
// "simple" (equivalently, an antichain or Sperner family) when no hyperedge
// contains another; simple hypergraphs correspond exactly to irredundant
// monotone DNFs (one disjunct per edge), which is the input format of the
// DUAL problem studied by Gottlob (PODS 2013).
//
// Conventions used throughout dualspace (documented in DESIGN.md §4):
//
//   - tr(∅)   = {∅}: with no edges, every set is vacuously a transversal and
//     the empty set is the unique minimal one.
//   - tr({∅}) = ∅: no set can meet the empty edge, so there are no
//     transversals at all.
//
// These mirror the DNF constants: the empty DNF is ⊥ whose dual is ⊤, and ⊤
// as an irredundant monotone DNF is the single empty disjunct.
package hypergraph

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"dualspace/internal/bitset"
)

// Hypergraph is a finite family of hyperedges over the universe [0, n).
// The zero value is an empty hypergraph over an empty universe. Edge order
// is preserved: several algorithms (notably the Boros–Makino decomposition
// in internal/core) break ties by original edge index, so order is part of
// the value.
type Hypergraph struct {
	n     int
	edges []bitset.Set
	// idx, when attached via EnsureIndex, is the incidence index (index.go),
	// maintained through AddEdge/AddEdgeElems/RestrictInto/InducedSubInto.
	idx *Index
}

// New returns an empty hypergraph over the universe [0, n).
func New(n int) *Hypergraph {
	if n < 0 {
		panic("hypergraph: negative universe size")
	}
	return &Hypergraph{n: n}
}

// FromEdges builds a hypergraph over [0, n) from explicit vertex lists.
// It returns an error if any vertex is outside [0, n).
func FromEdges(n int, edges [][]int) (*Hypergraph, error) {
	h := New(n)
	for i, e := range edges {
		for _, v := range e {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("hypergraph: edge %d: vertex %d outside universe [0,%d)", i, v, n)
			}
		}
		h.edges = append(h.edges, bitset.FromSlice(n, e))
	}
	return h, nil
}

// MustFromEdges is FromEdges that panics on error; intended for tests and
// package-internal literals.
func MustFromEdges(n int, edges [][]int) *Hypergraph {
	h, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return h
}

// FromFlat builds a hypergraph over [0, n) whose edge i holds the vertices
// ids[bounds[i]:bounds[i+1]] (bounds has one entry more than there are
// edges), with the words of every edge in one slab. It panics if a vertex
// is outside [0, n).
func FromFlat(n int, ids, bounds []int32) *Hypergraph {
	h := &Hypergraph{n: n, edges: bitset.NewBatch(n, len(bounds)-1)}
	for i, e := range h.edges {
		for _, v := range ids[bounds[i]:bounds[i+1]] {
			e.Add(int(v))
		}
	}
	return h
}

// FromSets builds a hypergraph from already-constructed edge sets. Each set
// must be over the universe [0, n); FromSets panics otherwise (universe
// mixing is a programming error). The sets are cloned.
func FromSets(n int, sets []bitset.Set) *Hypergraph {
	h := New(n)
	for _, s := range sets {
		h.AddEdge(s)
	}
	return h
}

// N returns the universe size.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of hyperedges.
func (h *Hypergraph) M() int { return len(h.edges) }

// Edge returns the i-th hyperedge. The returned set is shared with the
// hypergraph and must not be mutated by callers.
func (h *Hypergraph) Edge(i int) bitset.Set { return h.edges[i] }

// Edges returns the edge slice. The slice and its sets are shared with the
// hypergraph and must not be mutated by callers.
func (h *Hypergraph) Edges() []bitset.Set { return h.edges }

// AddEdge appends a copy of e as a new hyperedge. It panics if e is over a
// different universe.
func (h *Hypergraph) AddEdge(e bitset.Set) {
	if e.Universe() != h.n {
		panic(fmt.Sprintf("hypergraph: edge universe %d != %d", e.Universe(), h.n))
	}
	h.edges = append(h.edges, e.Clone())
	h.indexAddedEdge()
}

// AddEdgeElems appends a new hyperedge containing exactly the given vertices.
func (h *Hypergraph) AddEdgeElems(vs ...int) {
	h.edges = append(h.edges, bitset.FromSlice(h.n, vs))
	h.indexAddedEdge()
}

// indexAddedEdge extends an attached, previously in-sync index by the edge
// just appended; an out-of-sync index is left for EnsureIndex to rebuild.
func (h *Hypergraph) indexAddedEdge() {
	if h.idx != nil && h.idx.n == h.n && h.idx.m == len(h.edges)-1 {
		h.idx.addEdge(h.edges[len(h.edges)-1])
	}
}

// Clone returns a deep copy of h.
func (h *Hypergraph) Clone() *Hypergraph {
	c := New(h.n)
	c.edges = make([]bitset.Set, len(h.edges))
	for i, e := range h.edges {
		c.edges[i] = e.Clone()
	}
	return c
}

// HasEmptyEdge reports whether some hyperedge is the empty set.
func (h *Hypergraph) HasEmptyEdge() bool {
	for _, e := range h.edges {
		if e.IsEmpty() {
			return true
		}
	}
	return false
}

// IsSimple reports whether no hyperedge is contained in another (which also
// excludes duplicate edges). The empty family and the single-edge family are
// simple.
func (h *Hypergraph) IsSimple() bool {
	return h.simpleViolation() == nil
}

// simpleViolation returns indices (i, j) with edge i ⊆ edge j and i ≠ j, or
// nil if the hypergraph is simple.
func (h *Hypergraph) simpleViolation() []int {
	for i, ei := range h.edges {
		for j, ej := range h.edges {
			if i == j {
				continue
			}
			if ei.SubsetOf(ej) {
				return []int{i, j}
			}
		}
	}
	return nil
}

// ErrNotSimple is returned by ValidateSimple for hypergraphs containing a
// pair of comparable edges.
var ErrNotSimple = errors.New("hypergraph is not simple")

// ValidateSimple returns a descriptive error if h is not simple.
func (h *Hypergraph) ValidateSimple() error {
	if v := h.simpleViolation(); v != nil {
		return fmt.Errorf("%w: edge %d %v ⊆ edge %d %v",
			ErrNotSimple, v[0], h.edges[v[0]], v[1], h.edges[v[1]])
	}
	return nil
}

// Minimize returns the family of inclusion-minimal edges of h, with
// duplicates removed, preserving first-occurrence order. The result is
// always simple.
func (h *Hypergraph) Minimize() *Hypergraph {
	out := New(h.n)
	for i, ei := range h.edges {
		minimal := true
		for j, ej := range h.edges {
			if i == j {
				continue
			}
			if ej.ProperSubsetOf(ei) {
				minimal = false
				break
			}
			// Duplicate: keep only the first occurrence.
			if ej.Equal(ei) && j < i {
				minimal = false
				break
			}
		}
		if minimal {
			out.edges = append(out.edges, ei.Clone())
		}
	}
	return out
}

// ContainsEdge reports whether some hyperedge equals e.
func (h *Hypergraph) ContainsEdge(e bitset.Set) bool {
	for _, f := range h.edges {
		if f.Equal(e) {
			return true
		}
	}
	return false
}

// ContainsEdgeSubsetOf reports whether some hyperedge is a subset of s.
// Callers probing a large indexed family repeatedly should use
// Index.FirstEdgeSubsetOf with a pinned scratch instead (see
// internal/coterie's domination checks).
func (h *Hypergraph) ContainsEdgeSubsetOf(s bitset.Set) bool {
	for _, f := range h.edges {
		if f.SubsetOf(s) {
			return true
		}
	}
	return false
}

// IsTransversal reports whether t meets every hyperedge of h. For the empty
// family this is vacuously true; no set is a transversal of a family with an
// empty edge.
func (h *Hypergraph) IsTransversal(t bitset.Set) bool {
	for _, e := range h.edges {
		if !e.Intersects(t) {
			return false
		}
	}
	return true
}

// IsMinimalTransversal reports whether t is a transversal of h such that no
// proper subset of t is. Equivalently (for transversals): every v ∈ t is
// critical, i.e. some edge e has e ∩ t = {v}.
func (h *Hypergraph) IsMinimalTransversal(t bitset.Set) bool {
	if !h.IsTransversal(t) {
		return false
	}
	return t.ForEach(func(v int) bool {
		for _, e := range h.edges {
			if e.Contains(v) && e.IntersectionCount(t) == 1 {
				return true // v is critical for e; keep iterating
			}
		}
		return false // v not critical: t−{v} still a transversal
	})
}

// IsNewTransversal reports whether t is a "new transversal of h with respect
// to g" in the sense of Gottlob §1: a transversal of h containing no
// hyperedge of g as a subset. (It need not be minimal.)
func (h *Hypergraph) IsNewTransversal(t bitset.Set, g *Hypergraph) bool {
	return h.IsTransversal(t) && !g.ContainsEdgeSubsetOf(t)
}

// MinimalizeTransversal shrinks the transversal t of h to a minimal
// transversal by greedily deleting vertices in increasing order. It panics
// if t is not a transversal of h. This is the polynomial-time minimalization
// discussed after Corollary 4.1 of the paper (which notes it needs linear
// rather than polylog space).
func (h *Hypergraph) MinimalizeTransversal(t bitset.Set) bitset.Set {
	if !h.IsTransversal(t) {
		panic("hypergraph: MinimalizeTransversal on non-transversal")
	}
	r := t.Clone()
	for _, v := range t.Elems() {
		r.Remove(v)
		if !h.IsTransversal(r) {
			r.Add(v)
		}
	}
	return r
}

// CrossIntersecting reports whether every edge of h intersects every edge of
// g (a necessary condition for duality). On failure it returns the indices
// of the first non-intersecting pair (hIdx, gIdx).
func (h *Hypergraph) CrossIntersecting(g *Hypergraph) (ok bool, hIdx, gIdx int) {
	for i, e := range h.edges {
		for j, f := range g.edges {
			if !e.Intersects(f) {
				return false, i, j
			}
		}
	}
	return true, -1, -1
}

// ComplementEdges returns {V − e : e ∈ h}, the edge-wise complement used by
// the frequent-itemset equivalence IS− = tr((IS+)ᶜ) (Proposition 1.1).
func (h *Hypergraph) ComplementEdges() *Hypergraph {
	out := New(h.n)
	for _, e := range h.edges {
		out.edges = append(out.edges, e.Complement())
	}
	return out
}

// Restrict returns the projected family {e ∩ s : e ∈ h}, preserving edge
// order and keeping duplicates (callers that need a simple family must
// Minimize). This is the G_Sα construction of the Boros–Makino method.
func (h *Hypergraph) Restrict(s bitset.Set) *Hypergraph {
	out := New(h.n)
	h.RestrictInto(s, out)
	return out
}

// InducedSub returns the subfamily {e : e ∈ h, e ⊆ s}, preserving order.
// This is the H_Sα construction of the Boros–Makino method.
func (h *Hypergraph) InducedSub(s bitset.Set) *Hypergraph {
	out := New(h.n)
	h.InducedSubInto(s, out)
	return out
}

// RestrictInto is Restrict with a reusable destination: it overwrites dst
// with {e ∩ s : e ∈ h}, recycling dst's edge storage so that repeated
// projections (one per decomposition tree node) stop allocating once dst has
// warmed up. dst must be over the same universe and must not be h itself.
func (h *Hypergraph) RestrictInto(s bitset.Set, dst *Hypergraph) {
	h.checkDst(s, dst)
	dst.edges = dst.edges[:0]
	if dst.idx != nil {
		// Fused projection: count each intersection in the pass that
		// materializes it, so afterRestrict's row-copy regime reuses the
		// cardinalities instead of re-popcounting every destination edge.
		cards := dst.idx.restrictCards(len(h.edges))
		for j, e := range h.edges {
			cards[j] = int32(e.IntersectIntoCount(s, dst.scratchSlot()))
		}
		dst.idx.afterRestrict(h, s, dst)
		return
	}
	for _, e := range h.edges {
		e.IntersectInto(s, dst.scratchSlot())
	}
}

// InducedSubInto is InducedSub with a reusable destination, under the same
// contract as RestrictInto.
func (h *Hypergraph) InducedSubInto(s bitset.Set, dst *Hypergraph) {
	h.checkDst(s, dst)
	dst.edges = dst.edges[:0]
	for _, e := range h.edges {
		if e.SubsetOf(s) {
			dst.scratchSlot().CopyFrom(e)
		}
	}
	if dst.idx != nil {
		// The surviving subfamily is compacted (edge indices shift), so the
		// index is rebuilt from the destination; see index.go.
		dst.idx.Rebuild(dst)
	}
}

func (h *Hypergraph) checkDst(s bitset.Set, dst *Hypergraph) {
	if s.Universe() != h.n {
		panic(fmt.Sprintf("hypergraph: restriction universe %d != %d", s.Universe(), h.n))
	}
	if dst.n != h.n {
		panic(fmt.Sprintf("hypergraph: destination universe %d != %d", dst.n, h.n))
	}
	if dst == h {
		panic("hypergraph: destination aliases the source")
	}
}

// scratchSlot extends the edge list by one reusable set over h's universe
// and returns it (contents unspecified; callers overwrite).
func (h *Hypergraph) scratchSlot() bitset.Set {
	if len(h.edges) < cap(h.edges) {
		h.edges = h.edges[:len(h.edges)+1]
		if h.edges[len(h.edges)-1].Universe() != h.n {
			h.edges[len(h.edges)-1] = bitset.New(h.n)
		}
	} else {
		h.edges = append(h.edges, bitset.New(h.n))
	}
	return h.edges[len(h.edges)-1]
}

// Vertices returns the union of all hyperedges (the default vertex set V(H)
// of the paper when none is given explicitly).
func (h *Hypergraph) Vertices() bitset.Set {
	u := bitset.New(h.n)
	for _, e := range h.edges {
		u.UnionInto(e, u) //dual:allow(bitsetalias: word-parallel accumulation into u)
	}
	return u
}

// Degree returns the number of hyperedges containing v.
func (h *Hypergraph) Degree(v int) int {
	d := 0
	for _, e := range h.edges {
		if e.Contains(v) {
			d++
		}
	}
	return d
}

// MaxEdgeSize returns the size of the largest hyperedge (0 for an empty
// family).
func (h *Hypergraph) MaxEdgeSize() int {
	m := 0
	for _, e := range h.edges {
		if l := e.Len(); l > m {
			m = l
		}
	}
	return m
}

// MinEdgeSize returns the size of the smallest hyperedge, or 0 for an empty
// family. With an attached index this reads the cardinality bucket queue's
// minimum in O(1) amortized.
func (h *Hypergraph) MinEdgeSize() int {
	if len(h.edges) == 0 {
		return 0
	}
	if ix := h.AttachedIndex(); ix != nil {
		return ix.MinCard()
	}
	m := h.edges[0].Len()
	for _, e := range h.edges[1:] {
		if l := e.Len(); l < m {
			m = l
		}
	}
	return m
}

// EqualAsFamily reports whether h and g contain exactly the same set of
// edges, ignoring order and multiplicity. Families over different universes
// are never equal.
func (h *Hypergraph) EqualAsFamily(g *Hypergraph) bool {
	return h.n == g.n && slices.EqualFunc(h.Canonical().edges, g.Canonical().edges, bitset.Set.Equal)
}

// Canonical returns a copy of h with duplicate edges removed and edges in
// the canonical bitset order, all in one slab. Useful for stable output.
func (h *Hypergraph) Canonical() *Hypergraph {
	sorted := slices.Clone(h.edges)
	bitset.SortSets(sorted)
	sorted = slices.CompactFunc(sorted, bitset.Set.Equal)
	out := &Hypergraph{n: h.n, edges: bitset.NewBatch(h.n, len(sorted))}
	for i, e := range out.edges {
		e.CopyFrom(sorted[i])
	}
	return out
}

// String renders the hypergraph as "{{...}, {...}}" in edge order.
func (h *Hypergraph) String() string {
	parts := make([]string, len(h.edges))
	for i, e := range h.edges {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// MinimalTransversalViolation describes why an edge of one hypergraph fails
// to be a minimal transversal of another; it backs the precondition checks
// of the DUAL decision (internal/core) and the identification problems
// (Propositions 1.1 and 1.2).
type MinimalTransversalViolation struct {
	// EdgeIndex is the index of the offending edge in the checked family.
	EdgeIndex int
	// MissedEdgeIndex is set (>= 0) when the edge is not a transversal: it
	// identifies an edge of the other hypergraph it fails to meet.
	MissedEdgeIndex int
	// RedundantVertex is set (>= 0) when the edge is a transversal but not
	// minimal: edge − {RedundantVertex} is still a transversal.
	RedundantVertex int
}

func (v *MinimalTransversalViolation) String() string {
	if v.MissedEdgeIndex >= 0 {
		return fmt.Sprintf("edge %d misses edge %d of the other hypergraph", v.EdgeIndex, v.MissedEdgeIndex)
	}
	return fmt.Sprintf("edge %d is a non-minimal transversal (vertex %d is redundant)", v.EdgeIndex, v.RedundantVertex)
}

// AllEdgesMinimalTransversalsOf checks the precondition h ⊆ tr(g): every
// edge of h must be a minimal transversal of g. It returns nil if the
// precondition holds, or a description of the first violation.
func (h *Hypergraph) AllEdgesMinimalTransversalsOf(g *Hypergraph) *MinimalTransversalViolation {
	for i, e := range h.edges {
		for j, f := range g.edges {
			if !e.Intersects(f) {
				return &MinimalTransversalViolation{EdgeIndex: i, MissedEdgeIndex: j, RedundantVertex: -1}
			}
		}
		// Transversal; check minimality via criticality of each vertex.
		redundant := -1
		e.ForEach(func(v int) bool {
			critical := false
			for _, f := range g.edges {
				if f.Contains(v) && f.IntersectionCount(e) == 1 {
					critical = true
					break
				}
			}
			if !critical {
				redundant = v
				return false
			}
			return true
		})
		// Special case: the empty edge is a transversal only of the empty
		// family, and is then minimal.
		if redundant >= 0 {
			return &MinimalTransversalViolation{EdgeIndex: i, MissedEdgeIndex: -1, RedundantVertex: redundant}
		}
	}
	return nil
}
