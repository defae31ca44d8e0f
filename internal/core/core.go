// Package core implements the paper's engine: the Boros–Makino problem
// decomposition for the monotone duality problem DUAL (Gottlob, PODS 2013,
// Section 2), with the deterministic tie-breaking the paper prescribes, plus
// the duality decision procedure with structured witnesses built on top of
// it.
//
// # The decomposition tree
//
// For a DUAL instance (G, H) over vertex set V, the decomposition tree
// T(G,H) of Boros and Makino assigns to each node α a set Sα ⊆ V (the root
// gets V) and the projected instance (G_Sα, H_Sα) with
//
//	G_Sα = {E ∩ Sα : E ∈ G}   and   H_Sα = {E ∈ H : E ⊆ Sα}.
//
// Leaves with |H_Sα| ≤ 1 are marked done or fail by procedure marksmall;
// other nodes are expanded by procedure process, which either detects a fail
// leaf directly or generates children that at least halve |H_Sα|, so the
// depth is bounded by ⌊log₂|H|⌋ (Proposition 2.1). Every fail leaf carries a
// witness t(α): a "new transversal of G with respect to H" — a transversal
// of G containing no edge of H.
//
// # What the tree decides
//
// Under the paper's standing assumptions (G ⊆ tr(H) and H ⊆ tr(G), checked
// in logspace beforehand), H = tr(G) iff all leaves are done. The
// implementation separates the two ingredients, because the applications in
// §1 of the paper need the weaker form mid-iteration:
//
//   - For any simple, cross-intersecting pair (G, H), all leaves of T(G,H)
//     are done iff tr(G) ⊆ H ("no new transversal exists"). This is
//     TrSubset/NewTransversal.
//   - Full duality is then tr(G) ⊆ H together with H ⊆ tr(G) and
//     G ⊆ tr(H), which Decide checks first, reporting precise reasons.
//
// # Determinism
//
// The paper notes T(G,H) is unique once marksmall and process are made
// deterministic and prescribes the choices we implement: smallest vertex in
// marksmall case 4, first (by input edge index) disjoint edge in process
// step 3, first contained edge in step 4. Children are enumerated in
// canonical order — case 3 by (edge index, vertex index), case 4 by vertex
// index with the contained edge last — and duplicates are dropped at first
// occurrence. Child labels are 1-based indices into that deduplicated
// order, exactly the labels used by path descriptors in internal/logspace.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
)

// Mark is the marking of a decomposition tree node.
type Mark int

// Markings per Section 2 of the paper: leaves end up done or fail, internal
// nodes keep the dummy value nil.
const (
	MarkNil Mark = iota
	MarkDone
	MarkFail
)

// String returns the paper's name for the marking.
func (m Mark) String() string {
	switch m {
	case MarkDone:
		return "done"
	case MarkFail:
		return "fail"
	default:
		return "nil"
	}
}

// Kind identifies which rule of marksmall or process applied at a node.
type Kind int

const (
	// KindSmall0Fail: marksmall case 1 — H_S empty, ∅ ∉ G_S; t(α) = Sα.
	KindSmall0Fail Kind = iota
	// KindSmall0Done: marksmall case 2 — H_S empty, ∅ ∈ G_S.
	KindSmall0Done
	// KindSmall1Done: marksmall case 3 — H_S = {H} and every singleton of H
	// appears in G_S.
	KindSmall1Done
	// KindSmall1Fail: marksmall case 4 — H_S = {H}, some i ∈ H has
	// {i} ∉ G_S; t(α) = Sα − {i} for the smallest such i.
	KindSmall1Fail
	// KindProcessFail: process step 2 — the majority set Iα is a new
	// transversal of G_S w.r.t. H_S; t(α) = Iα.
	KindProcessFail
	// KindProcessDisjoint: process step 3 — some projected edge is disjoint
	// from Iα; children S − (E − {i}).
	KindProcessDisjoint
	// KindProcessContained: process step 4 — some H_S edge is contained in
	// Iα; children S − {i} and the edge itself.
	KindProcessContained
)

// String names the rule.
func (k Kind) String() string {
	switch k {
	case KindSmall0Fail:
		return "marksmall/1-fail"
	case KindSmall0Done:
		return "marksmall/2-done"
	case KindSmall1Done:
		return "marksmall/3-done"
	case KindSmall1Fail:
		return "marksmall/4-fail"
	case KindProcessFail:
		return "process/2-fail"
	case KindProcessDisjoint:
		return "process/3-split"
	case KindProcessContained:
		return "process/4-split"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeInfo carries the attributes the paper associates with a node α of
// T(G,H) (Section 2), plus the classification of which rule applied.
type NodeInfo struct {
	// S is Sα.
	S bitset.Set
	// HSCount is |H_Sα|.
	HSCount int
	// Kind is the rule that applied at this node.
	Kind Kind
	// Mark is done/fail for leaves and nil for internal nodes.
	Mark Mark
	// T is the witness t(α); non-empty only when Mark == MarkFail. It is a
	// transversal of G containing no edge of H ("new transversal of G with
	// respect to H").
	T bitset.Set
	// I is the majority set Iα (vertices in more than |H_S|/2 edges of
	// H_S); computed only for process nodes.
	I bitset.Set
	// ChosenEdge is the index (into the original G for step 3, into the
	// original H for step 4) of the deterministically chosen edge, or -1.
	ChosenEdge int
	// Children are the child sets S_αi in canonical label order (label i
	// corresponds to Children[i-1]); nil for leaves.
	Children []bitset.Set
}

// IsLeaf reports whether the node has no children.
func (n *NodeInfo) IsLeaf() bool { return n.Mark != MarkNil }

// Classify applies marksmall/process to the node of T(g,h) with node set s
// and returns its full attributes, including the canonical child list for
// internal nodes. It is deterministic and shared by the practical decision
// procedure and by internal/logspace's replay mode, which guarantees that
// child numbering agrees everywhere.
//
// Classify materializes a fresh NodeInfo per call; the tree walks below use
// the scratch engine (scratch.go) directly to stay allocation-free.
func Classify(g, h *hypergraph.Hypergraph, s bitset.Set) *NodeInfo {
	return classifyWith(newScratch(g, h), &frame{}, s)
}

// classifyWith is Classify on caller-provided scratch state: every set in
// the returned NodeInfo is freshly cloned, so the scratch and frame are free
// for reuse (BuildTree classifies its whole tree through one of each). The
// one-shot form synchronizes the incremental scratch to s before
// classifying; tree walks maintain it by diffs instead.
func classifyWith(sc *scratch, fr *frame, s bitset.Set) *NodeInfo {
	sc.size()
	sc.syncTo(s)
	v := sc.classifyNode(s, fr)

	info := &NodeInfo{
		S:          s.Clone(),
		HSCount:    v.hsCount,
		Kind:       v.kind,
		Mark:       v.mark,
		ChosenEdge: v.chosenEdge,
	}
	switch v.mark {
	case MarkFail:
		info.T = sc.wit.Clone()
	case MarkDone:
		info.T = bitset.New(s.Universe())
	}
	if v.hsCount >= 2 {
		info.I = sc.iSet.Clone()
	}
	if v.mark == MarkNil && fr.nChildren > 0 {
		info.Children = make([]bitset.Set, fr.nChildren)
		for i := range info.Children {
			info.Children[i] = fr.children[i].Clone()
		}
	}
	return info
}

// Reason explains a duality verdict.
type Reason int

const (
	// ReasonDual: the pair is dual.
	ReasonDual Reason = iota
	// ReasonConstantMismatch: one side is a constant (∅ or {∅}) and the
	// other is not its dual constant.
	ReasonConstantMismatch
	// ReasonNotCrossIntersecting: some edge of g is disjoint from some edge
	// of h; see Result.GEdge/HEdge.
	ReasonNotCrossIntersecting
	// ReasonHEdgeNotMinimal: an edge of h is a transversal of g but not a
	// minimal one (H ⊆ tr(G) violated); see Result.HEdge and
	// Result.RedundantVertex.
	ReasonHEdgeNotMinimal
	// ReasonGEdgeNotMinimal: symmetric violation of G ⊆ tr(H).
	ReasonGEdgeNotMinimal
	// ReasonNewTransversal: preconditions hold but tr(g) ⊈ h; Result.Witness
	// is a new transversal of g w.r.t. h found at a fail leaf.
	ReasonNewTransversal
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonDual:
		return "dual"
	case ReasonConstantMismatch:
		return "constant mismatch"
	case ReasonNotCrossIntersecting:
		return "edges do not cross-intersect"
	case ReasonHEdgeNotMinimal:
		return "h-edge is a non-minimal transversal of g"
	case ReasonGEdgeNotMinimal:
		return "g-edge is a non-minimal transversal of h"
	case ReasonNewTransversal:
		return "new transversal exists"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Stats aggregates decomposition tree measurements, backing the experiments
// for Proposition 2.1(2) and 2.1(3).
type Stats struct {
	// Nodes is the number of tree nodes visited.
	Nodes int
	// Leaves is the number of leaves visited.
	Leaves int
	// MaxDepth is the maximum depth reached (root = 0).
	MaxDepth int
	// MaxChildren is the maximum child count κ(α) observed.
	MaxChildren int
	// Spawns counts subtree frames the parallel search's workers published
	// to their deques for other workers to steal (0 on serial walks).
	Spawns int
	// Steals counts frames actually taken from another worker's deque.
	Steals int
	// LeafWorkers counts the distinct workers that classified at least one
	// leaf — the load-balance signal of the work-stealing search (0 on
	// serial walks, which have no worker pool).
	LeafWorkers int
	// MemoHits counts internal nodes whose entire subtrees were skipped by
	// the cross-node subinstance memo (memo.go; only walkers pinned by a
	// memo-carrying Decider report non-zero values). Skipped nodes do not
	// appear in Nodes/Leaves.
	MemoHits int
}

// Result is the outcome of a duality decision.
type Result struct {
	// Dual reports whether h = tr(g).
	Dual bool
	// Reason explains a negative verdict; ReasonDual otherwise.
	Reason Reason
	// Witness, when Reason == ReasonNewTransversal, is a transversal of g
	// containing no edge of h. Its complement CoWitness is then a
	// transversal of h containing no edge of g.
	Witness   bitset.Set
	CoWitness bitset.Set
	// GEdge and HEdge identify offending edges for the pairwise and
	// minimality reasons (-1 when not applicable).
	GEdge, HEdge int
	// RedundantVertex is the removable vertex for the minimality reasons
	// (-1 when not applicable).
	RedundantVertex int
	// FailPath is the path descriptor (1-based child labels) of the fail
	// leaf, when one was found by the tree search. Together with Swapped it
	// locates the leaf in T(g,h) or T(h,g).
	FailPath []int
	// Swapped records that the decomposition ran on T(h,g) rather than
	// T(g,h) to honor the paper's |H| ≤ |G| convention.
	Swapped bool
	// Stats carries tree measurements from the search (zero when the
	// verdict was reached before the tree stage).
	Stats Stats
}

// Clone returns a deep copy of the result — for callers that retain a
// verdict beyond the lifetime of session-pinned storage (a Decider's results
// alias its reusable buffers and are valid only until its next call).
func (r *Result) Clone() *Result {
	c := *r
	c.Witness = r.Witness.Clone()
	c.CoWitness = r.CoWitness.Clone()
	c.FailPath = append([]int(nil), r.FailPath...)
	return &c
}

// String renders a short human-readable verdict.
func (r *Result) String() string {
	if r.Dual {
		return "dual"
	}
	s := "not dual: " + r.Reason.String()
	if r.Reason == ReasonNewTransversal {
		s += " " + r.Witness.String()
	}
	return s
}

// ErrUniverseMismatch is returned when the two hypergraphs of an instance
// disagree on the universe size.
var ErrUniverseMismatch = errors.New("core: hypergraphs have different universes")

// validatePair checks universe agreement and simplicity of both inputs.
func validatePair(g, h *hypergraph.Hypergraph) error {
	if g.N() != h.N() {
		return ErrUniverseMismatch
	}
	if err := g.ValidateSimple(); err != nil {
		return fmt.Errorf("core: g: %w", err)
	}
	if err := h.ValidateSimple(); err != nil {
		return fmt.Errorf("core: h: %w", err)
	}
	return nil
}

// isConstant reports whether the simple hypergraph is one of the two
// constants: ⊥ (no edges) or ⊤ (the single empty edge).
func isConstant(x *hypergraph.Hypergraph) (bottom, top bool) {
	if x.M() == 0 {
		return true, false
	}
	if x.HasEmptyEdge() {
		return false, true // simplicity forces x = {∅}
	}
	return false, false
}

// precheckIntoIdx runs the logspace-checkable stages of Decide — validation,
// constants, cross-intersection, and (when minimality is set) both
// minimality preconditions — writing any verdict they alone determine into
// res (which the caller must have initialized with GEdge/HEdge/
// RedundantVertex = -1). done reports that res now holds the final verdict;
// done = false means the pair is simple, non-constant, cross-intersecting
// and, with minimality, mutually minimal, so only the tree stage remains.
// Without minimality it is exactly TrSubset's input check, which the
// incremental applications of §1 need mid-iteration.
//
// Every probe is index-driven (hypergraph/indexed.go): gi/hi are the
// incidence indexes of g and h, and gScratch/hScratch are caller-owned sets
// over their respective OccUniverses — so the done = false path allocates
// nothing, which is what lets a Decider stay allocation-free across calls.
func precheckIntoIdx(g, h *hypergraph.Hypergraph, gi, hi *hypergraph.Index, gScratch, hScratch bitset.Set, minimality bool, res *Result) (bool, error) {
	if g.N() != h.N() {
		return false, ErrUniverseMismatch
	}
	if err := g.ValidateSimpleIdx(gi, gScratch); err != nil {
		return false, fmt.Errorf("core: g: %w", err)
	}
	if err := h.ValidateSimpleIdx(hi, hScratch); err != nil {
		return false, fmt.Errorf("core: h: %w", err)
	}
	gBot, gTop := isConstant(g)
	hBot, hTop := isConstant(h)
	if gBot || gTop || hBot || hTop {
		if (gBot && hTop) || (gTop && hBot) {
			res.Dual = true
			return true, nil
		}
		res.Reason = ReasonConstantMismatch
		return true, nil
	}

	// Precondition: cross-intersection (g's edges against h's occurrence
	// rows).
	if ok, gIdx, hIdx := g.CrossIntersectingIdx(h, hi, hScratch); !ok {
		res.Reason, res.GEdge, res.HEdge = ReasonNotCrossIntersecting, gIdx, hIdx
		return true, nil
	}
	if !minimality {
		return false, nil
	}
	// Precondition: H ⊆ tr(G). Cross-intersection already makes every
	// h-edge a transversal of g, so only minimality can fail.
	if v := h.AllEdgesMinimalTransversalsOfIdx(g, gi, gScratch); v != nil {
		res.Reason, res.HEdge, res.RedundantVertex = ReasonHEdgeNotMinimal, v.EdgeIndex, v.RedundantVertex
		return true, nil
	}
	// Precondition: G ⊆ tr(H).
	if v := g.AllEdgesMinimalTransversalsOfIdx(h, hi, hScratch); v != nil {
		res.Reason, res.GEdge, res.RedundantVertex = ReasonGEdgeNotMinimal, v.EdgeIndex, v.RedundantVertex
		return true, nil
	}
	return false, nil
}

// Decide determines whether h = tr(g) — equivalently, whether the monotone
// DNFs of g and h are mutually dual. Both inputs must be simple hypergraphs
// over the same universe.
//
// It follows the paper's protocol: first the logspace-checkable
// preconditions (constants, cross-intersection, G ⊆ tr(H), H ⊆ tr(G)), then
// the Boros–Makino tree search for a new transversal. On a negative verdict
// the Result pinpoints the reason and, when the tree stage ran, carries a
// witness and the fail leaf's path descriptor. It runs on a fresh Decider;
// callers with a ctx or a pinned state use Decider.DecideContext.
func Decide(g, h *hypergraph.Hypergraph) (*Result, error) {
	return Detach(NewDecider().DecideContext(context.Background(), g, h))
}

// TrSubset decides tr(g) ⊆ h ("h contains every minimal transversal of g")
// for a simple, cross-intersecting pair by searching T(g,h) for a fail
// leaf. This is the raw tree stage of Decide and the engine behind
// NewTransversal; unlike Decide it does not require the minimality
// preconditions, which the incremental applications of §1 of the paper
// cannot guarantee mid-iteration. Callers with a ctx use
// Decider.TrSubsetContext.
//
// The returned Result has Dual = true iff tr(g) ⊆ h. On Dual = false the
// Witness is a new transversal of g w.r.t. h and FailPath locates the fail
// leaf in T(g,h).
func TrSubset(g, h *hypergraph.Hypergraph) (*Result, error) {
	return Detach(NewDecider().TrSubsetContext(context.Background(), g, h))
}

// Detach returns the verdict of a Decider built for this one call, copying
// only the Result struct so that the verdict no longer pins the Decider. The
// witness and fail-path buffers are handed over as they are: nothing else
// can reach a one-shot Decider's storage, so the result aliases nothing.
// Verdicts of a pinned (reused) Decider must be Cloned instead.
func Detach(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	r := *res
	return &r, nil
}

// serialWalk is the serial DFS over T(g,h) on one walkState: one scratch
// for classification and one frame per depth, so the search allocates
// nothing per node beyond first-touch warm-up of each depth level (bounded
// by ⌊log₂|H|⌋, Proposition 2.1). It classifies the node s at the given
// depth — whose incremental scratch state the caller has established — and
// recurses, maintaining the state by removed-vertex diffs on the way down
// and up, reporting false once a fail leaf has been recorded to stop the
// search.
//
// When the walker carries a memo, every internal node is looked up by its
// projected-subinstance key: a hit means an identical subtree was already
// verified all-done (here or in an earlier decision sharing the memo) and
// is skipped; a subtree completed without a fail leaf is inserted.
//
//dual:allocfree
func serialWalk(w *walkState, s bitset.Set, depth int, res *Result) bool {
	if w.done != nil {
		select {
		case <-w.done:
			w.cancelled = true
			return false // stop the search; caller surfaces ctx.Err()
		default:
		}
	}
	fr := w.frame(depth)
	v := w.sc.classifyNode(s, fr)
	res.Stats.Nodes++
	if depth > res.Stats.MaxDepth {
		res.Stats.MaxDepth = depth
	}
	if v.mark != MarkNil {
		res.Stats.Leaves++
		if v.mark == MarkFail {
			w.recordFail(res, w.sc.wit, w.path[:depth])
			return false // stop the search
		}
		return true
	}
	memoize := false
	if w.memo != nil {
		var t0 time.Time
		if w.rec != nil {
			t0 = time.Now()
		}
		key := w.sc.appendInstanceKey(w.keyBuf(depth), s)
		w.keys[depth] = key
		hit := w.memo.lookup(key)
		if w.rec != nil {
			w.rec.Add(obs.StageMemo, time.Since(t0))
		}
		if hit {
			res.Stats.MemoHits++
			return true // identical subtree already verified all-done
		}
		memoize = true
	}
	if fr.nChildren > res.Stats.MaxChildren {
		res.Stats.MaxChildren = fr.nChildren
	}
	for i := 0; i < fr.nChildren; i++ {
		w.path = append(w.path[:depth], i+1)
		c := fr.children[i]
		rem := s.AppendDiffElems(c, w.remBuf(depth))
		w.rem[depth] = rem
		for _, u := range rem {
			w.sc.removeVertex(u)
		}
		ok := serialWalk(w, c, depth+1, res)
		for _, u := range rem {
			w.sc.restoreVertex(u)
		}
		if !ok {
			return false
		}
	}
	if memoize {
		w.memo.insert(w.keys[depth])
	}
	return true
}

// NewTransversal returns a new transversal of g with respect to h — a
// transversal of g containing no edge of h — or ok = false when none exists
// (i.e. tr(g) ⊆ h). This is the witness-producing operation of Corollary
// 4.1(2) and the oracle the incremental data-mining algorithms of §1 are
// built on. The witness is generally not minimal; use
// (*hypergraph.Hypergraph).MinimalizeTransversal to shrink it.
func NewTransversal(g, h *hypergraph.Hypergraph) (w bitset.Set, ok bool, err error) {
	return NewDecider().NewTransversal(context.Background(), g, h)
}

// TreeNode is a fully materialized node of T(G,H), used by experiments and
// by the decompose algorithm's ground truth.
type TreeNode struct {
	// Label is the node's path descriptor (1-based child indices from the
	// root; empty for the root).
	Label []int
	// Info holds the node attributes.
	Info *NodeInfo
	// Children are the expanded child nodes, aligned with Info.Children.
	Children []*TreeNode
}

// BuildTree materializes the entire decomposition tree T(g,h). Intended for
// small instances (experiments, certificate search); Decide does not
// materialize. It requires the same input shape as TrSubset.
func BuildTree(g, h *hypergraph.Hypergraph) (*TreeNode, error) {
	if err := validatePair(g, h); err != nil {
		return nil, err
	}
	if g.M() == 0 || h.M() == 0 || g.HasEmptyEdge() || h.HasEmptyEdge() {
		return nil, errors.New("core: BuildTree requires non-constant inputs")
	}
	sc, fr := newScratch(g, h), &frame{}
	var build func(s bitset.Set, label []int) *TreeNode
	build = func(s bitset.Set, label []int) *TreeNode {
		info := classifyWith(sc, fr, s)
		node := &TreeNode{Label: append([]int(nil), label...), Info: info}
		for i, c := range info.Children {
			node.Children = append(node.Children, build(c, append(label, i+1)))
		}
		return node
	}
	return build(bitset.Full(g.N()), nil), nil
}

// Walk visits every node of t in depth-first preorder.
func (t *TreeNode) Walk(visit func(*TreeNode)) {
	visit(t)
	for _, c := range t.Children {
		c.Walk(visit)
	}
}

// Depth returns the height of the tree (root-only tree has depth 0).
func (t *TreeNode) Depth() int {
	d := 0
	for _, c := range t.Children {
		if cd := c.Depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}

// CountMarks returns the number of done and fail leaves.
func (t *TreeNode) CountMarks() (done, fail int) {
	t.Walk(func(n *TreeNode) {
		switch n.Info.Mark {
		case MarkDone:
			done++
		case MarkFail:
			fail++
		}
	})
	return done, fail
}
