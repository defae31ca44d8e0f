// Package coterie implements coteries and the non-domination test
// (Gottlob, PODS 2013, Proposition 1.3): a coterie H is non-dominated iff
// tr(H) = H, i.e. iff its quorum hypergraph is self-dual.
//
// A coterie over a node universe is a non-empty antichain of non-empty,
// pairwise intersecting quorums — the structure behind quorum-based updates
// in distributed databases [Lamport; Garcia-Molina & Barbará; Ibaraki &
// Kameda]. A coterie C dominates a coterie D (C ≠ D) when every quorum of
// D contains some quorum of C; non-dominated coteries are the useful ones,
// and Proposition 1.3 reduces recognizing them to DUAL self-duality.
package coterie

import (
	"context"
	"errors"
	"fmt"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hypergraph"
)

// Coterie is a validated set of quorums. The quorum hypergraph carries an
// attached incidence index (read-only after New, so a Coterie stays safe
// for concurrent use).
type Coterie struct {
	h *hypergraph.Hypergraph
}

// quorumProbe returns the containment probe for repeated "some quorum ⊆ t"
// questions against this coterie: occurrence-row lookups through one
// per-probe scratch set for large families, the plain edge scan otherwise.
// The returned closure owns its scratch and is single-goroutine; the
// Coterie itself is not touched.
func (c *Coterie) quorumProbe() func(t bitset.Set) bool {
	ix := c.h.AttachedIndex()
	if ix == nil || c.h.M() < 64 {
		return c.h.ContainsEdgeSubsetOf
	}
	scratch := bitset.New(ix.OccUniverse())
	return func(t bitset.Set) bool {
		return ix.FirstEdgeSubsetOf(t, scratch) >= 0
	}
}

// New validates and wraps a quorum hypergraph: it must be non-empty, with
// non-empty, pairwise intersecting quorums forming an antichain.
func New(h *hypergraph.Hypergraph) (*Coterie, error) {
	if h.M() == 0 {
		return nil, errors.New("coterie: no quorums")
	}
	if h.HasEmptyEdge() {
		return nil, errors.New("coterie: empty quorum")
	}
	if err := h.ValidateSimple(); err != nil {
		return nil, fmt.Errorf("coterie: quorums must form an antichain: %w", err)
	}
	for i := 0; i < h.M(); i++ {
		for j := i + 1; j < h.M(); j++ {
			if !h.Edge(i).Intersects(h.Edge(j)) {
				return nil, fmt.Errorf("coterie: quorums %d and %d do not intersect", i, j)
			}
		}
	}
	c := &Coterie{h: h.Clone()}
	// The coterie owns its clone; an attached incidence index turns the
	// quorum-containment probes of Dominates (and the engines' rebinds in
	// the self-duality decision) into occurrence-row lookups.
	c.h.EnsureIndex()
	return c, nil
}

// MustNew panics on invalid input; for tests and literals.
func MustNew(h *hypergraph.Hypergraph) *Coterie {
	c, err := New(h)
	if err != nil {
		panic(err)
	}
	return c
}

// Hypergraph returns the quorum hypergraph (a copy).
func (c *Coterie) Hypergraph() *hypergraph.Hypergraph { return c.h.Clone() }

// NumQuorums returns the number of quorums.
func (c *Coterie) NumQuorums() int { return c.h.M() }

// Universe returns the node universe size.
func (c *Coterie) Universe() int { return c.h.N() }

// String renders the quorum family.
func (c *Coterie) String() string { return c.h.String() }

// Dominates reports whether c dominates d: c ≠ d (as families) and every
// quorum of d contains some quorum of c.
func (c *Coterie) Dominates(d *Coterie) bool {
	if c.h.EqualAsFamily(d.h) {
		return false
	}
	probe := c.quorumProbe()
	for _, q := range d.h.Edges() {
		if !probe(q) {
			return false
		}
	}
	return true
}

// IsNonDominatedWith decides non-domination via Proposition 1.3: the
// coterie is non-dominated iff tr(H) = H, a self-duality instance of DUAL,
// decided on eng under ctx.
func (c *Coterie) IsNonDominatedWith(ctx context.Context, eng engine.Engine) (bool, error) {
	res, err := eng.Decide(ctx, c.h, c.h)
	if err != nil {
		return false, err
	}
	return res.Dual, nil
}

// FindDominatingWith returns a coterie that dominates c, or found = false
// when c is non-dominated, deciding on eng under ctx. It uses the duality
// engine's witness: a transversal T of H containing no quorum yields the
// dominating coterie min(H ∪ {T}). Every engine reports precondition
// failures with core's Reason taxonomy, so the witness-to-coterie
// conversion below is engine-independent.
func (c *Coterie) FindDominatingWith(ctx context.Context, eng engine.Engine) (*Coterie, bool, error) {
	res, err := eng.Decide(ctx, c.h, c.h)
	if err != nil {
		return nil, false, err
	}
	if res.Dual {
		return nil, false, nil
	}
	var t bitset.Set
	switch res.Reason {
	case core.ReasonNewTransversal:
		t = res.Witness
	case core.ReasonHEdgeNotMinimal, core.ReasonGEdgeNotMinimal:
		// Some quorum q is a non-minimal transversal of H: q minus the
		// redundant node is a transversal containing no quorum (the
		// antichain property excludes q' ⊆ q−{v}).
		var q bitset.Set
		if res.Reason == core.ReasonHEdgeNotMinimal {
			q = c.h.Edge(res.HEdge)
		} else {
			q = c.h.Edge(res.GEdge)
		}
		t = q.WithoutElem(res.RedundantVertex)
	default:
		return nil, false, fmt.Errorf("coterie: unexpected self-duality verdict %v", res.Reason)
	}
	improved := c.h.Clone()
	improved.AddEdge(c.h.MinimalizeTransversal(t))
	dom, err := New(improved.Minimize())
	if err != nil {
		return nil, false, err
	}
	return dom, true, nil
}

// IsDominatedBrute searches all node subsets for a transversal containing
// no quorum (the classical characterization of dominated coteries). Test
// oracle; panics beyond 20 nodes.
func (c *Coterie) IsDominatedBrute() bool {
	n := c.h.N()
	if n > 20 {
		panic("coterie: brute-force universe too large")
	}
	probe := c.quorumProbe()
	for mask := 0; mask < 1<<uint(n); mask++ {
		t := bitset.New(n)
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				t.Add(v)
			}
		}
		if c.h.IsTransversal(t) && !probe(t) {
			return true
		}
	}
	return false
}

// Majority returns the majority coterie on odd n: all ⌈n/2⌉-subsets.
// Non-dominated for every odd n.
func Majority(n int) *Coterie {
	if n%2 == 0 {
		panic("coterie: Majority requires odd n")
	}
	k := n/2 + 1
	h := hypergraph.New(n)
	cur := make([]int, 0, k)
	var build func(start int)
	build = func(start int) {
		if len(cur) == k {
			h.AddEdgeElems(cur...)
			return
		}
		for v := start; v <= n-(k-len(cur)); v++ {
			cur = append(cur, v)
			build(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	build(0)
	return MustNew(h)
}

// Singleton returns the coterie whose only quorum is {leader} — the
// primary-site scheme; non-dominated.
func Singleton(n, leader int) *Coterie {
	h := hypergraph.New(n)
	h.AddEdgeElems(leader)
	return MustNew(h)
}

// Star returns the coterie {{center, i} : i ≠ center} on n ≥ 3 nodes — the
// classical example of a dominated coterie (it is dominated by adding the
// quorum {center}).
func Star(n, center int) *Coterie {
	if n < 3 {
		panic("coterie: Star needs n ≥ 3")
	}
	h := hypergraph.New(n)
	for i := 0; i < n; i++ {
		if i != center {
			h.AddEdgeElems(center, i)
		}
	}
	return MustNew(h)
}

// Wheel returns the wheel coterie on n ≥ 4 nodes: the hub quorum
// {0, i} pattern is replaced by the standard wheel — quorums {0, i} for
// each rim node i plus the full rim {1, ..., n−1}.
func Wheel(n int) *Coterie {
	if n < 4 {
		panic("coterie: Wheel needs n ≥ 4")
	}
	h := hypergraph.New(n)
	rim := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		h.AddEdgeElems(0, i)
		rim = append(rim, i)
	}
	h.AddEdgeElems(rim...)
	return MustNew(h)
}

// Grid returns the rows×cols grid coterie: one quorum per (row, column)
// pair consisting of the full row plus the full column. Pairwise
// intersection holds because any two quorums share a row/column crossing.
func Grid(rows, cols int) *Coterie {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("coterie: Grid too small")
	}
	n := rows * cols
	h := hypergraph.New(n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			q := bitset.New(n)
			for cc := 0; cc < cols; cc++ {
				q.Add(r*cols + cc)
			}
			for rr := 0; rr < rows; rr++ {
				q.Add(rr*cols + c)
			}
			h.AddEdge(q)
		}
	}
	c, err := New(h.Minimize())
	if err != nil {
		panic(err)
	}
	return c
}
