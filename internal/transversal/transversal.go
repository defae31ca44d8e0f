// Package transversal enumerates the minimal transversals tr(H) of a simple
// hypergraph — the hypergraph dualization problem that underlies DUAL.
//
// Three independent methods are provided:
//
//   - Berge: sequential Berge multiplication with stepwise minimization, the
//     classical textbook algorithm. Exponential in the worst case but simple
//     and a trusted oracle for tests.
//   - EnumerateContext (DFS): a branch-and-bound enumerator over candidate vertices
//     with critical-edge pruning in the style of Murakami–Uno's MMCS. Each
//     minimal transversal is emitted exactly once, with polynomial space.
//   - BruteForce: exhaustive 2^n scan, for tiny universes only; a second
//     independent oracle.
//
// A fourth method, enumeration through repeated duality-witness extraction
// (the incremental pattern of Gunopulos et al. used by the paper's data
// mining application), is provided by ViaOracle; the oracle itself is
// supplied by internal/core to avoid an import cycle.
//
// Conventions: tr(∅) = {∅} and tr of any family containing the empty edge is
// the empty family (see package hypergraph).
package transversal

import (
	"context"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
)

// Berge computes tr(H) by multiplying edges one at a time and minimizing
// after every step. The result is a simple hypergraph whose edges are
// exactly the minimal transversals of h, in canonical order.
//
// Every intermediate set is drawn from (and recycled to) a scratch pool:
// the per-step minimization discards most of the product expansion, so the
// multiplication reuses a working set of storage instead of allocating per
// candidate. Only FromSets clones the survivors out.
func Berge(h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	n := h.N()
	pool := bitset.NewPool(n)
	current := []bitset.Set{pool.Get()} // tr of the empty prefix = {∅}
	for _, e := range h.Edges() {
		var next []bitset.Set
		for _, r := range current {
			if r.Intersects(e) {
				next = append(next, r)
				continue
			}
			e.ForEach(func(v int) bool {
				c := pool.Get()
				c.CopyFrom(r)
				c.Add(v)
				next = append(next, c)
				return true
			})
			pool.Put(r) // r itself is superseded by its extensions
		}
		current = minimizeSets(next, pool)
	}
	out := hypergraph.FromSets(n, current)
	return out.Canonical()
}

// minimizeSets returns the inclusion-minimal, duplicate-free subfamily,
// recycling the dropped sets into the pool.
func minimizeSets(sets []bitset.Set, pool *bitset.Pool) []bitset.Set {
	var out []bitset.Set
	for i, s := range sets {
		keep := true
		for j, t := range sets {
			if i == j {
				continue
			}
			if t.ProperSubsetOf(s) || (t.Equal(s) && j < i) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, s)
		} else {
			pool.Put(s)
		}
	}
	return out
}

// EnumerateContext emits every minimal transversal of h exactly once,
// calling yield for each. The sets passed to yield are fresh copies owned
// by the callee. Enumeration stops cleanly when yield returns false; a
// yield error aborts it and is returned verbatim, and a cancelled ctx
// aborts the DFS within one search-node boundary and returns ctx's error.
// A nil return means the enumeration ran to completion or yield asked to
// stop cleanly — the distinction streaming endpoints need to tell a
// truncated stream from a failed one.
//
// The algorithm is a depth-first search that grows a partial transversal S
// one vertex at a time, always branching on an uncovered edge with the
// fewest remaining candidates, pruning any branch in which some vertex of S
// loses its critical edge (no minimal transversal can extend such an S).
// Duplicate suppression follows the standard prefix-exclusion rule: within a
// branching edge the i-th candidate's subtree excludes candidates 1..i−1.
func EnumerateContext(ctx context.Context, h *hypergraph.Hypergraph, yield func(bitset.Set) (bool, error)) error {
	return enumerateContext(ctx, h, yield, false)
}

// enumerateContext is the shared enumerator driver. With borrow set, yield
// receives the enumerator's working set itself (valid only for the duration
// of the call) instead of a fresh clone — the mode CountContext uses, so that
// consumers that never retain a transversal never pay for one.
func enumerateContext(ctx context.Context, h *hypergraph.Hypergraph, yield func(bitset.Set) (bool, error), borrow bool) error {
	n := h.N()
	if h.HasEmptyEdge() {
		return nil // no transversals at all
	}
	idx := h.AttachedIndex()
	if idx == nil {
		idx = hypergraph.NewIndex(h)
	}
	e := &enumerator{
		h:         h,
		idx:       idx,
		yield:     yield,
		borrow:    borrow,
		done:      ctx.Done(),
		ctx:       ctx,
		s:         bitset.New(n),
		cand:      bitset.Full(n),
		cover:     make([]int, h.M()),
		critOwner: make([]int, h.M()),
		critCount: make([]int, n),
		candCnt:   make([]int, h.M()),
		uncovSet:  bitset.New(idx.OccUniverse()),
		uncovered: h.M(),
	}
	for i := range e.critOwner {
		e.critOwner[i] = -1
	}
	for f := 0; f < h.M(); f++ { //dual:allow(ctxpoll: one-shot O(M) init of cardinality counters, Card is O(1); rec() polls per node)
		e.candCnt[f] = idx.Card(f) // cand starts full
		e.uncovSet.Add(f)
	}
	e.rec()
	return e.err
}

// All collects every minimal transversal of h.
func All(h *hypergraph.Hypergraph) []bitset.Set {
	var out []bitset.Set
	// The yield cannot fail and the background context cannot cancel, so
	// the error is structurally nil.
	_ = EnumerateContext(context.Background(), h, func(s bitset.Set) (bool, error) {
		out = append(out, s)
		return true, nil
	})
	return out
}

// AsHypergraph returns tr(h) as a canonical simple hypergraph.
func AsHypergraph(h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	return hypergraph.FromSets(h.N(), All(h)).Canonical()
}

// CountContext returns |tr(h)| by streaming over the enumerator in borrow
// mode: no minimal transversal is materialized (or even cloned) on the way
// to the integer, so counting costs only the DFS's own working state however
// large tr(h) grows. On a cancelled ctx the partial count so far is
// returned alongside ctx's error.
func CountContext(ctx context.Context, h *hypergraph.Hypergraph) (int, error) {
	c := 0
	err := enumerateContext(ctx, h, func(bitset.Set) (bool, error) {
		c++
		return true, nil
	}, true)
	return c, err
}

type enumerator struct {
	h         *hypergraph.Hypergraph
	idx       *hypergraph.Index // incidence index: occ rows drive every update
	yield     func(bitset.Set) (bool, error)
	borrow    bool            // pass s itself to yield instead of a clone
	done      <-chan struct{} // cancellation channel (ctx.Done())
	ctx       context.Context
	err       error      // terminal error: ctx's or the yield's
	s         bitset.Set // current partial transversal
	sElems    []int      // stack of S in insertion order
	cand      bitset.Set // available candidate vertices
	cover     []int      // cover[f] = |edge f ∩ S|
	critOwner []int      // when cover[f]==1, the unique vertex of S in f
	critCount []int      // critCount[v] = # edges f with cover==1, owner v
	candCnt   []int      // candCnt[f] = |edge f ∩ cand| (branch selection)
	uncovSet  bitset.Set // edges with cover == 0, over the occ universe
	uncovered int        // # edges with cover == 0
	stopped   bool
	branchBuf [][]int // per-depth branch vertex buffers, reused
	depth     int
}

// candRemove/candAdd maintain cand and the per-edge candidate counts through
// the occurrence row of v — O(deg(v)) instead of a per-edge rescan at branch
// time.
func (e *enumerator) candRemove(v int) {
	e.cand.Remove(v)
	e.idx.Occ(v).ForEach(func(f int) bool {
		e.candCnt[f]--
		return true
	})
}

func (e *enumerator) candAdd(v int) {
	e.cand.Add(v)
	e.idx.Occ(v).ForEach(func(f int) bool {
		e.candCnt[f]++
		return true
	})
}

// pushBranch returns an empty reusable vertex buffer for the current
// recursion depth; popBranch returns it (branch lists must survive the
// recursive calls made while iterating them, so one shared buffer is not
// enough, but one per depth is).
func (e *enumerator) pushBranch() []int {
	if e.depth == len(e.branchBuf) {
		e.branchBuf = append(e.branchBuf, nil)
	}
	buf := e.branchBuf[e.depth][:0]
	e.depth++
	return buf
}

func (e *enumerator) popBranch(buf []int) {
	e.depth--
	e.branchBuf[e.depth] = buf
}

func (e *enumerator) rec() {
	if e.stopped {
		return
	}
	if e.done != nil {
		select {
		case <-e.done:
			e.stopped, e.err = true, e.ctx.Err()
			return
		default:
		}
	}
	if e.uncovered == 0 {
		out := e.s
		if !e.borrow {
			out = e.s.Clone()
		}
		cont, err := e.yield(out)
		if err != nil {
			e.stopped, e.err = true, err
			return
		}
		if !cont {
			e.stopped = true
		}
		return
	}
	// Pick an uncovered edge with the fewest candidates, off the maintained
	// uncovered-edge set and candidate counts (no per-edge intersection).
	best, bestCount := -1, -1
	e.uncovSet.ForEach(func(fi int) bool {
		c := e.candCnt[fi]
		if best == -1 || c < bestCount {
			best, bestCount = fi, c
		}
		return c != 0 // a zero-candidate edge is an immediate dead end
	})
	if bestCount == 0 {
		return // dead end: uncovered edge with no candidates left
	}
	branch := e.pushBranch()
	e.h.Edge(best).ForEach(func(v int) bool {
		if e.cand.Contains(v) {
			branch = append(branch, v)
		}
		return true
	})
	for _, v := range branch {
		// Prefix exclusion: v leaves the candidate pool for this subtree
		// and for all later siblings, guaranteeing uniqueness.
		e.candRemove(v)
		e.addVertex(v)
		if e.allCritical() {
			e.rec()
		}
		e.removeVertex(v)
		if e.stopped {
			break
		}
	}
	for _, v := range branch {
		e.candAdd(v)
	}
	e.popBranch(branch)
}

func (e *enumerator) addVertex(v int) {
	e.s.Add(v)
	e.sElems = append(e.sElems, v)
	e.idx.Occ(v).ForEach(func(fi int) bool {
		e.cover[fi]++
		switch e.cover[fi] {
		case 1:
			e.uncovered--
			e.uncovSet.Remove(fi)
			e.critOwner[fi] = v
			e.critCount[v]++
		case 2:
			e.critCount[e.critOwner[fi]]--
			e.critOwner[fi] = -1
		}
		return true
	})
}

func (e *enumerator) removeVertex(v int) {
	e.s.Remove(v)
	e.sElems = e.sElems[:len(e.sElems)-1]
	e.idx.Occ(v).ForEach(func(fi int) bool {
		e.cover[fi]--
		switch e.cover[fi] {
		case 0:
			e.uncovered++
			e.uncovSet.Add(fi)
			e.critCount[v]--
			e.critOwner[fi] = -1
		case 1:
			u := e.h.Edge(fi).IntersectionMin(e.s)
			e.critOwner[fi] = u
			e.critCount[u]++
		}
		return true
	})
}

// allCritical reports whether every vertex of S still owns a critical edge.
func (e *enumerator) allCritical() bool {
	for _, u := range e.sElems {
		if e.critCount[u] == 0 {
			return false
		}
	}
	return true
}

// BruteForce computes tr(h) by scanning all 2^n subsets. It panics for
// universes larger than 22 vertices; it exists as an independent oracle for
// tests and experiments.
func BruteForce(h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	n := h.N()
	if n > 22 {
		panic("transversal: BruteForce universe too large")
	}
	out := hypergraph.New(n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		s := bitset.New(n)
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				s.Add(v)
			}
		}
		if h.IsMinimalTransversal(s) {
			out.AddEdge(s)
		}
	}
	return out.Canonical()
}

// WitnessOracle returns a "new transversal of g with respect to partial"
// (a transversal of g containing no edge of partial), or ok=false when
// partial = tr(g). internal/core provides an implementation backed by the
// Boros–Makino decomposition; tests can use brute-force implementations.
type WitnessOracle func(g, partial *hypergraph.Hypergraph) (witness bitset.Set, ok bool, err error)

// ViaOracle enumerates tr(g) through repeated duality-witness extraction:
// starting from the empty partial family it asks the oracle for a new
// transversal, minimalizes it, adds it, and repeats until the oracle reports
// that the partial family is complete. This is exactly the incremental
// pattern of the paper's data-mining application (§1, [26]).
//
// The number of oracle calls is |tr(g)| + 1.
func ViaOracle(g *hypergraph.Hypergraph, oracle WitnessOracle) (*hypergraph.Hypergraph, error) {
	partial := hypergraph.New(g.N())
	// The growing partial family keeps an AddEdge-maintained incidence
	// index, so each oracle decision rebinds to it in O(1) instead of
	// re-scanning the ever-larger family.
	partial.EnsureIndex()
	for {
		w, ok, err := oracle(g, partial)
		if err != nil {
			return nil, err
		}
		if !ok {
			return partial, nil
		}
		partial.AddEdge(g.MinimalizeTransversal(w))
	}
}

// EnumerateViaOracle is the streaming form of ViaOracle: each minimalized
// transversal is yielded as soon as the oracle produces it, with the
// incremental delay of one duality decision per element (experiment E17).
// Oracle errors surface mid-stream as the return value instead of silently
// truncating the enumeration; the yield may likewise abort with an error,
// and a cancelled ctx stops before the next oracle call. The sets passed to
// yield are fresh copies owned by the callee.
func EnumerateViaOracle(ctx context.Context, g *hypergraph.Hypergraph, oracle WitnessOracle, yield func(bitset.Set) (bool, error)) error {
	partial := hypergraph.New(g.N())
	partial.EnsureIndex() // see ViaOracle
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		w, ok, err := oracle(g, partial)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		m := g.MinimalizeTransversal(w)
		partial.AddEdge(m)
		cont, err := yield(m.Clone())
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
}
