package core

// Incidence-indexed, allocation-free node classification. Classify (core.go)
// documents the semantics; this file holds the engine the tree walks run on.
//
// The classification state is INCREMENTAL: instead of re-scanning every edge
// of G and H against the node set Sα (the O(m·n/w) per-node work of the
// naive kernel), a scratch maintains, through hypergraph.Index occurrence
// rows, the quantities marksmall/process actually consume —
//
//	cntG[j]  = |E_j ∩ Sα|          (per g-edge projected size)
//	zeroG    = #{j : cntG[j] = 0}   (is ∅ ∈ G_Sα? — marksmall, O(1))
//	missH[j] = |F_j − Sα|           (h-edge distance from H_Sα membership)
//	hsSet    = {j : missH[j] = 0}   (H_Sα as an edge-index set)
//	degH[v]  = #{j ∈ hsSet : v ∈ F_j} (the degrees behind the majority set)
//
// — and updates them in O(changed) as the DFS removes and restores the
// vertices that differ between a node and its child (every child set of the
// Boros–Makino decomposition is obtained from its parent by deletions).
// A walker that hands an arbitrary set to the scratch (the parallel search
// at a subtree handoff, Classify/BuildTree per node) re-synchronizes with
// one syncTo pass.
//
// The conventions (scratch is single-walker state, frames are per-depth,
// child sets are valid until the same depth is revisited) are documented in
// DESIGN.md §5; the index itself in DESIGN.md §7.

import (
	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
)

// nodeVerdict is the classification outcome of one node, without the
// materialized sets of a NodeInfo: the witness lives in scratch.wit, the
// majority set in scratch.iSet, and the children in the frame.
type nodeVerdict struct {
	hsCount    int
	kind       Kind
	mark       Mark
	chosenEdge int
}

// frame is the reusable per-depth child storage of a tree walk. The first
// nChildren entries of children are the current node's deduplicated child
// sets, in canonical order; their storage is recycled the next time the walk
// generates children at this depth.
type frame struct {
	children  []bitset.Set
	nChildren int
}

// slot returns the candidate slot for the next child (reused storage over
// the universe [0, n)); commitIfNew accepts or discards it.
func (fr *frame) slot(n int) bitset.Set {
	if fr.nChildren == len(fr.children) {
		fr.children = append(fr.children, bitset.New(n))
	} else if fr.children[fr.nChildren].Universe() != n {
		// Pooled walker states outlive a single instance (the parallel
		// search recycles them across runs); refit stale-universe storage.
		fr.children[fr.nChildren] = bitset.New(n)
	}
	return fr.children[fr.nChildren]
}

// walkState is the complete reusable state of one tree walker — the
// classification scratch, the per-depth frames, the path-label buffer, and
// the per-depth descent buffers (removed-vertex diffs and memo keys).
// The serial DFS owns one; the parallel search pools one per worker.
type walkState struct {
	sc     *scratch
	frames []*frame
	path   []int
	// rem[d] holds the vertices removed between the node at depth d and the
	// child currently being explored, so the DFS can restore the incremental
	// scratch state on the way back up.
	rem [][]int
	// keys[d] holds the memo key of the internal node at depth d while its
	// subtree is walked (insert happens after the subtree completes).
	keys [][]uint64
	// memo, when non-nil, is the cross-node subinstance memo consulted at
	// every internal node (see memo.go; set by Decider).
	memo *Memo
	// rec, when non-nil, receives the walk's memo-consult time under
	// obs.StageMemo (set by a Decider with a recorder attached; nil costs
	// one predictable branch per memo consult and no clock reads).
	rec *obs.Recorder
	// done, when non-nil, is the walk's cancellation channel (ctx.Done());
	// the serial DFS polls it at every node and sets cancelled on abort.
	done      <-chan struct{}
	cancelled bool
	// witBuf, cowitBuf and pathBuf hold the fail verdict of a Decider's
	// pinned walker (recordFail, which sizes them on the first fail), so
	// repeated decisions on one walker allocate nothing at steady state. The
	// Result aliases them and is valid only until the walker's next run. The
	// parallel search's pooled worker states leave them unset: their fail
	// leaves are recorded centrally.
	witBuf, cowitBuf bitset.Set
	pathBuf          []int
}

func newWalkState(g, h *hypergraph.Hypergraph) *walkState {
	return &walkState{sc: newScratch(g, h)}
}

// recordFail writes a fail leaf's verdict into res: the witness t(α), its
// complement (a new transversal of h w.r.t. g), and the leaf's path
// descriptor, all copied into the walker's pinned storage.
func (w *walkState) recordFail(res *Result, wit bitset.Set, path []int) {
	if n := wit.Universe(); w.witBuf.Universe() != n {
		w.witBuf, w.cowitBuf = bitset.New(n), bitset.New(n)
	}
	res.Dual = false
	res.Reason = ReasonNewTransversal
	w.witBuf.CopyFrom(wit)
	wit.ComplementInto(w.cowitBuf)
	w.pathBuf = append(w.pathBuf[:0], path...)
	res.Witness, res.CoWitness, res.FailPath = w.witBuf, w.cowitBuf, w.pathBuf
}

func (w *walkState) frame(depth int) *frame {
	for len(w.frames) <= depth {
		w.frames = append(w.frames, &frame{})
	}
	return w.frames[depth]
}

func (w *walkState) remBuf(depth int) []int {
	for len(w.rem) <= depth {
		w.rem = append(w.rem, nil)
	}
	return w.rem[depth][:0]
}

func (w *walkState) keyBuf(depth int) []uint64 {
	for len(w.keys) <= depth {
		w.keys = append(w.keys, nil)
	}
	return w.keys[depth][:0]
}

// scratch is the reusable working state of one tree walker. It is not safe
// for concurrent use; the parallel search keeps one per worker (sharing the
// read-only indexes).
type scratch struct {
	g, h *hypergraph.Hypergraph
	n    int

	// gIdx/hIdx are the incidence indexes driving classification: attached
	// ones when the caller maintains them, otherwise the pinned gIdxOwn/
	// hIdxOwn rebuilt in place per bind (allocation-free at steady state).
	gIdx, hIdx       *hypergraph.Index
	gIdxOwn, hIdxOwn *hypergraph.Index

	// Incremental per-Sα state; see the package comment. Valid for the set
	// last passed to syncTo, as adjusted by removeVertex/restoreVertex.
	cntG    []int32
	zeroG   int
	missH   []int32
	hsSet   bitset.Set // over [0, hIdx.OccUniverse())
	hsCount int
	degH    []int32

	iSet      bitset.Set       // the majority set Iα
	gProj     bitset.Set       // chosen projected g-edge (process step 3)
	tmp       bitset.Set       // per-edge temporary
	wit       bitset.Set       // witness t(α) of the last fail classification
	hitG      bitset.Set       // over [0, gIdx.OccUniverse()): g-edges meeting Iα
	candG     bitset.Set       // over [0, gIdx.OccUniverse()): step-3 candidate edges
	notCont   bitset.Set       // over [0, hIdx.OccUniverse()): h-edges meeting Sα − Iα
	contained bitset.Set       // over [0, hIdx.OccUniverse()): H_Sα edges inside Iα
	dedup     map[uint64]int32 // child-set hash → index of first occurrence
}

func newScratch(g, h *hypergraph.Hypergraph) *scratch {
	sc := &scratch{}
	sc.bind(g, h)
	return sc
}

// bind points the scratch at the instance (g, h), rebuilding the pinned
// indexes and resizing the incremental state. Allocation-free once the
// scratch has seen the same universe and edge-count shape.
//
// The two indexes are kept on a COMMON occurrence universe so that swap()
// can exchange their roles without re-allocating the edge-universe scratch
// sets. Attached (caller-maintained) indexes — e.g. the AddEdge-maintained
// index of an oracle loop's growing partial family — are consumed when that
// constraint can be met by growing only scratch-owned storage; growing a
// shared attached index here could race with its other readers, so a too-
// small attached index is simply ignored and the pinned own pair rebuilt.
func (sc *scratch) bind(g, h *hypergraph.Hypergraph) {
	gi, hi := g.AttachedIndex(), h.AttachedIndex()
	if gi != nil && hi != nil && gi.OccUniverse() != hi.OccUniverse() {
		// Mismatched attached universes: treat both as absent (growing a
		// shared index here could race with its other readers).
		gi, hi = nil, nil
	}
	// Rebuild pinned own indexes only for the sides lacking a usable
	// attached one, then align universes — falling back to the own pair
	// when an attached index is too small to align against (own indexes
	// are private and growable; attached ones are not).
	if gi == nil {
		gi = sc.ownIndex(&sc.gIdxOwn, g)
	}
	if hi == nil {
		hi = sc.ownIndex(&sc.hIdxOwn, h)
	}
	if gi.OccUniverse() != hi.OccUniverse() {
		// An attached side that is too small cannot be grown (shared) and
		// is replaced by its own rebuild; after these two checks every
		// smaller side is own, hence growable.
		if gi != sc.gIdxOwn && gi.OccUniverse() < hi.OccUniverse() {
			gi = sc.ownIndex(&sc.gIdxOwn, g)
		}
		if hi != sc.hIdxOwn && hi.OccUniverse() < gi.OccUniverse() {
			hi = sc.ownIndex(&sc.hIdxOwn, h)
		}
		common := gi.OccUniverse()
		if hu := hi.OccUniverse(); hu > common {
			common = hu
		}
		if gi == sc.gIdxOwn {
			gi.EnsureOccUniverse(common)
		}
		if hi == sc.hIdxOwn {
			hi.EnsureOccUniverse(common)
		}
	}
	sc.bindShared(g, h, gi, hi)
}

// ownIndex rebuilds (in place) and returns the pinned index slot for x.
func (sc *scratch) ownIndex(slot **hypergraph.Index, x *hypergraph.Hypergraph) *hypergraph.Index {
	if *slot == nil {
		*slot = &hypergraph.Index{}
	}
	(*slot).Rebuild(x)
	return *slot
}

// bindShared is bind with caller-provided (shared, read-only) indexes — the
// parallel search hands a Decider's index pair to every worker state. It
// fits only the precheck's probe sets (hitG, notCont); the walk state is
// fitted by size at the root of a tree stage, so a decision the precheck
// settles (or an FK recursion) never allocates it.
func (sc *scratch) bindShared(g, h *hypergraph.Hypergraph, gi, hi *hypergraph.Index) {
	sc.g, sc.h = g, h
	sc.gIdx, sc.hIdx = gi, hi
	sc.n = g.N()
	if u := gi.OccUniverse(); sc.hitG.Universe() != u {
		sc.hitG = bitset.New(u)
	}
	if u := hi.OccUniverse(); sc.notCont.Universe() != u {
		sc.notCont = bitset.New(u)
	}
}

// swap flips the scratch's orientation from (g, h) to (h, g) without
// touching the indexes — the tree stage of Decide runs on the swapped pair
// when |H| > |G|.
func (sc *scratch) swap() {
	sc.g, sc.h = sc.h, sc.g
	sc.gIdx, sc.hIdx = sc.hIdx, sc.gIdx
}

// size fits the walk state — the per-vertex sets and counts, the per-edge
// state and the edge-universe scratch sets — to the current orientation of
// (g, h) and their indexes; every walk root calls it before syncTo.
func (sc *scratch) size() {
	if n := sc.n; sc.iSet.Universe() != n {
		sc.iSet = bitset.New(n)
		sc.gProj = bitset.New(n)
		sc.tmp = bitset.New(n)
		sc.wit = bitset.New(n)
		sc.degH = make([]int32, n)
	}
	if sc.dedup == nil {
		sc.dedup = make(map[uint64]int32)
	}
	mg, mh := sc.g.M(), sc.h.M()
	if cap(sc.cntG) < mg {
		sc.cntG = make([]int32, mg)
	}
	sc.cntG = sc.cntG[:mg]
	if cap(sc.missH) < mh {
		sc.missH = make([]int32, mh)
	}
	sc.missH = sc.missH[:mh]
	if u := sc.gIdx.OccUniverse(); sc.candG.Universe() != u || sc.hitG.Universe() != u {
		sc.hitG = bitset.New(u)
		sc.candG = bitset.New(u)
	}
	if u := sc.hIdx.OccUniverse(); sc.hsSet.Universe() != u || sc.notCont.Universe() != u {
		sc.hsSet = bitset.New(u)
		sc.notCont = bitset.New(u)
		sc.contained = bitset.New(u)
	}
}

// syncTo initializes the incremental state for an arbitrary node set s in
// one pass over the edges — the entry point for walk roots and for one-shot
// classification; descent along the tree then uses removeVertex/
// restoreVertex diffs instead.
//
//dual:allocfree
func (sc *scratch) syncTo(s bitset.Set) {
	sc.zeroG = 0
	for j := 0; j < sc.g.M(); j++ {
		c := int32(sc.g.Edge(j).IntersectionCount(s))
		sc.cntG[j] = c
		if c == 0 {
			sc.zeroG++
		}
	}
	sc.hsSet.Clear()
	sc.hsCount = 0
	for j := 0; j < sc.h.M(); j++ {
		e := sc.h.Edge(j)
		miss := int32(sc.hIdx.Card(j) - e.IntersectionCount(s))
		sc.missH[j] = miss
		if miss == 0 {
			sc.hsSet.Add(j)
			sc.hsCount++
		}
	}
	// degH[v] = |occ_H(v) ∩ H_Sα| in one fused popcount batch over the
	// occurrence slab (an H_Sα edge containing v forces v ∈ Sα, so vertices
	// outside Sα come out 0 without a membership test).
	sc.hIdx.OccCountsInto(sc.hsSet, sc.degH)
}

// removeVertex updates the incremental state for Sα := Sα − {v}, in
// O(deg_G(v)/w + deg_H(v)/w) plus the contents of the h-edges that leave
// H_Sα (each edge leaves at most once per root-to-node path).
//
//dual:allocfree
func (sc *scratch) removeVertex(v int) {
	sc.gIdx.Occ(v).ForEach(func(j int) bool {
		sc.cntG[j]--
		if sc.cntG[j] == 0 {
			sc.zeroG++
		}
		return true
	})
	sc.hIdx.Occ(v).ForEach(func(j int) bool {
		sc.missH[j]++
		if sc.missH[j] == 1 {
			sc.hsSet.Remove(j)
			sc.hsCount--
			sc.h.Edge(j).AddToCounts(sc.degH, -1)
		}
		return true
	})
}

// restoreVertex reverses removeVertex.
//
//dual:allocfree
func (sc *scratch) restoreVertex(v int) {
	sc.gIdx.Occ(v).ForEach(func(j int) bool {
		if sc.cntG[j] == 0 {
			sc.zeroG--
		}
		sc.cntG[j]++
		return true
	})
	sc.hIdx.Occ(v).ForEach(func(j int) bool {
		sc.missH[j]--
		if sc.missH[j] == 0 {
			sc.hsSet.Add(j)
			sc.hsCount++
			sc.h.Edge(j).AddToCounts(sc.degH, 1)
		}
		return true
	})
}

// classifyNode applies marksmall/process to the node with set s, whose
// incremental state must be current (syncTo or diff-maintained). Children
// (for internal nodes) are generated into fr; on a fail verdict the witness
// is left in sc.wit, and for |H_S| ≥ 2 the majority set in sc.iSet. All
// outputs are valid only until the next classifyNode call on this scratch
// (children: until fr is reused).
//
//dual:allocfree
func (sc *scratch) classifyNode(s bitset.Set, fr *frame) nodeVerdict {
	v := nodeVerdict{chosenEdge: -1}
	fr.nChildren = 0
	v.hsCount = sc.hsCount
	if sc.hsCount <= 1 {
		sc.marksmall(s, &v)
		return v
	}
	sc.process(s, fr, &v)
	return v
}

// marksmall implements the paper's marksmall procedure for |H_S| ≤ 1.
//
//dual:allocfree
func (sc *scratch) marksmall(s bitset.Set, v *nodeVerdict) {
	emptyInGS := sc.zeroG > 0 // some g-edge projects to ∅ within S
	if sc.hsCount == 0 {
		if !emptyInGS {
			v.kind, v.mark = KindSmall0Fail, MarkFail // case 1: t(α) = Sα
			sc.wit.CopyFrom(s)
		} else {
			v.kind, v.mark = KindSmall0Done, MarkDone // case 2
		}
		return
	}
	// |H_S| = 1.
	j := sc.hsSet.Min()
	he := sc.h.Edge(j)
	missing := -1
	he.ForEach(func(i int) bool {
		if !sc.singletonInGS(i) {
			missing = i
			return false // smallest such i, per the deterministic variant
		}
		return true
	})
	if missing < 0 {
		v.kind, v.mark = KindSmall1Done, MarkDone // case 3
		return
	}
	v.kind, v.mark = KindSmall1Fail, MarkFail // case 4: t(α) = Sα − {i}
	v.chosenEdge = j
	sc.wit.CopyFrom(s)
	sc.wit.Remove(missing)
}

// singletonInGS reports whether {i} ∈ G_S for a vertex i ∈ Sα: some g-edge
// containing i projects onto exactly {i}, read off the occurrence row and
// the maintained projected sizes.
func (sc *scratch) singletonInGS(i int) bool {
	found := false
	sc.gIdx.Occ(i).ForEach(func(j int) bool {
		if sc.cntG[j] == 1 {
			found = true
			return false
		}
		return true
	})
	return found
}

// process implements the paper's process procedure for |H_S| ≥ 2.
//
//dual:allocfree
func (sc *scratch) process(s bitset.Set, fr *frame, v *nodeVerdict) {
	// Step 1: the majority set Iα — vertices occurring in more than
	// |H_S|/2 hyperedges of H_S, read off the maintained degrees.
	sc.iSet.Clear()
	s.ForEach(func(u int) bool {
		if 2*int(sc.degH[u]) > sc.hsCount {
			sc.iSet.Add(u)
		}
		return true
	})

	// Step 2: is Iα a transversal of G_S? Since Iα ⊆ Sα, a projected edge
	// meets Iα iff the original edge does, so the hit set is the union of
	// Iα's occurrence rows.
	sc.hitG.Clear()
	sc.iSet.ForEach(func(u int) bool {
		sc.gIdx.Occ(u).UnionInto(sc.hitG, sc.hitG) //dual:allow(bitsetalias: word-parallel accumulation into hitG)
		return true
	})
	// The transversal test and the step-3 edge choice are one fused probe:
	// the first edge index absent from the hit set is < |G| exactly when
	// some projected edge misses Iα (occurrence rows never set bits ≥ |G|),
	// so the separate popcount pass of `hitG.Len() != g.M()` is gone.
	if jstar := sc.hitG.MinAbsent(); jstar >= 0 && jstar < sc.g.M() {
		// Step 3: the first (by input index) projected edge disjoint from Iα.
		sc.g.Edge(jstar).IntersectInto(s, sc.gProj)
		v.kind = KindProcessDisjoint
		v.chosenEdge = jstar
		sc.disjointChildren(s, fr)
		return
	}

	// Iα is a transversal; does it contain an H_S edge? Occurrence-driven
	// ⊆-probe: an edge of H_Sα is ⊆ Iα iff it avoids every vertex of
	// Sα − Iα (H_Sα edges are already ⊆ Sα).
	sc.notCont.Clear()
	s.ForEach(func(u int) bool {
		if !sc.iSet.Contains(u) {
			sc.hIdx.Occ(u).UnionInto(sc.notCont, sc.notCont) //dual:allow(bitsetalias: word-parallel accumulation into notCont)
		}
		return true
	})
	if sc.hsSet.DiffIntoCount(sc.notCont, sc.contained) == 0 {
		v.kind, v.mark = KindProcessFail, MarkFail // step 2: t(α) = Iα
		sc.wit.CopyFrom(sc.iSet)
		return
	}
	j := sc.contained.Min()
	// Step 4: the first (by input index) H_S edge contained in Iα.
	v.kind = KindProcessContained
	v.chosenEdge = j
	sc.containedChildren(s, sc.h.Edge(j), fr)
}

// disjointChildren enumerates C = {Sα − (E − {i}) | E ∈ G_Sα^G, i ∈ E ∩ G}
// in canonical (edge index, vertex index) order with duplicates removed,
// where G = sc.gProj is the chosen projected edge disjoint from Iα and
// G_Sα^G consists of the projected edges meeting G. The candidate edges are
// exactly the union of G's occurrence rows (G ⊆ Sα, so meeting G within Sα
// is meeting G).
//
//dual:allocfree
func (sc *scratch) disjointChildren(s bitset.Set, fr *frame) {
	sc.resetDedup()
	sc.candG.Clear()
	sc.gProj.ForEach(func(u int) bool {
		sc.gIdx.Occ(u).UnionInto(sc.candG, sc.candG) //dual:allow(bitsetalias: word-parallel accumulation into candG)
		return true
	})
	sc.candG.ForEach(func(j int) bool {
		e := sc.g.Edge(j)
		// Iterate i over E ∩ G (= e ∩ s ∩ gProj, as gProj ⊆ Sα).
		e.IntersectInto(sc.gProj, sc.tmp)
		sc.tmp.ForEach(func(i int) bool {
			// Sα − (E − {i}) = (Sα − e) ∪ {i} since i ∈ Sα.
			c := fr.slot(sc.n)
			s.DiffInto(e, c)
			c.Add(i)
			sc.commitIfNew(fr)
			return true
		})
		return true
	})
}

// containedChildren enumerates C = {Sα − {i} | i ∈ H} ∪ {H} in canonical
// order (vertex index, then H last) with duplicates removed.
//
//dual:allocfree
func (sc *scratch) containedChildren(s, he bitset.Set, fr *frame) {
	sc.resetDedup()
	he.ForEach(func(i int) bool {
		c := fr.slot(sc.n)
		c.CopyFrom(s)
		c.Remove(i)
		sc.commitIfNew(fr)
		return true
	})
	fr.slot(sc.n).CopyFrom(he)
	sc.commitIfNew(fr)
}

func (sc *scratch) resetDedup() {
	clear(sc.dedup)
}

// commitIfNew accepts the candidate child sitting in the frame's next slot
// unless an earlier child equals it (first-occurrence deduplication, keyed
// by hash with an Equal check so collisions stay correct). It reports
// whether the candidate was accepted.
func (sc *scratch) commitIfNew(fr *frame) bool {
	c := fr.children[fr.nChildren]
	hv := c.Hash()
	if k, ok := sc.dedup[hv]; ok {
		if fr.children[k].Equal(c) {
			return false
		}
		// True hash collision: fall back to scanning all accepted children.
		for i := 0; i < fr.nChildren; i++ {
			if fr.children[i].Equal(c) {
				return false
			}
		}
	} else {
		sc.dedup[hv] = int32(fr.nChildren)
	}
	fr.nChildren++
	return true
}

// appendInstanceKey encodes the projected subinstance (G_Sα, H_Sα) at the
// node with set s into buf: a (universe, |G|, |H_Sα|) header, the words of
// every projected g-edge in input order, then the words of every H_Sα edge
// in input order. The encoding is injective (fixed word count per set given
// the header), so it is the collision-checkable memo key of memo.go: two
// nodes — in the same tree, across branches, or across decisions sharing a
// Decider — with equal encodings root identical (deterministic) subtrees.
func (sc *scratch) appendInstanceKey(buf []uint64, s bitset.Set) []uint64 {
	buf = append(buf, uint64(sc.n), uint64(sc.g.M()), uint64(sc.hsCount))
	for j := 0; j < sc.g.M(); j++ {
		buf = sc.g.Edge(j).AppendIntersectionWords(s, buf)
	}
	sc.hsSet.ForEach(func(j int) bool {
		buf = sc.h.Edge(j).AppendWords(buf)
		return true
	})
	return buf
}
