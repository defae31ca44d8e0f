// Package itemsets implements the data-mining application of the DUAL
// problem (Gottlob, PODS 2013, §1 and Proposition 1.1): identifying the
// maximal frequent itemsets IS+ and minimal infrequent itemsets IS− of a
// Boolean-valued relation.
//
// Definitions follow the paper exactly: for a relation M over item set S
// and threshold z with 0 < z ≤ |M|, the frequency f(U) of an itemset
// U ⊆ S is the number of tuples whose item set contains U; U is frequent
// iff f(U) > z (strictly) and infrequent otherwise. IS+ is the family of
// maximal frequent itemsets, IS− the minimal infrequent ones, and the
// fundamental identity of Gunopulos et al. [26] states IS− = tr((IS+)ᶜ).
//
// Two algorithms are provided on top of that identity:
//
//   - Borders runs the incremental "dualize and advance" loop the paper
//     describes: keep candidate families G ⊆ IS− and H ⊆ IS+, test
//     G = tr(Hᶜ) with the duality engine, and convert each negative
//     verdict (precondition violation or new transversal) into a new
//     verified border element.
//   - Identify solves MaxFreq-MinInfreq-Identification: given claimed
//     G and H, decide whether they are complete (Proposition 1.1 reduces
//     this to DUAL), reporting a counterexample itemset when they are not.
//
// BordersApriori and BordersBrute provide independent baselines.
package itemsets

import (
	"context"
	"errors"
	"fmt"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hypergraph"
)

// Dataset is a Boolean-valued relation: each row is the set of items (of a
// fixed item universe) present in one tuple.
type Dataset struct {
	nItems int
	rows   []bitset.Set
	names  []string
}

// NewDataset returns an empty dataset over nItems items.
func NewDataset(nItems int) *Dataset {
	if nItems < 0 {
		panic("itemsets: negative item count")
	}
	return &Dataset{nItems: nItems}
}

// SetItemNames attaches display names (len must equal NumItems).
func (d *Dataset) SetItemNames(names []string) error {
	if len(names) != d.nItems {
		return fmt.Errorf("itemsets: %d names for %d items", len(names), d.nItems)
	}
	d.names = append([]string(nil), names...)
	return nil
}

// ItemName returns the display name of item i (or "i<idx>" if unnamed).
func (d *Dataset) ItemName(i int) string {
	if d.names != nil {
		return d.names[i]
	}
	return fmt.Sprintf("i%d", i)
}

// AddRow appends a tuple containing exactly the given items.
func (d *Dataset) AddRow(items ...int) {
	d.rows = append(d.rows, bitset.FromSlice(d.nItems, items))
}

// AddRowSet appends a tuple from an item set (cloned).
func (d *Dataset) AddRowSet(items bitset.Set) {
	if items.Universe() != d.nItems {
		panic("itemsets: row universe mismatch")
	}
	d.rows = append(d.rows, items.Clone())
}

// NumItems returns the size of the item universe.
func (d *Dataset) NumItems() int { return d.nItems }

// NumRows returns the number of tuples.
func (d *Dataset) NumRows() int { return len(d.rows) }

// Row returns the i-th tuple's item set (shared; do not mutate).
func (d *Dataset) Row(i int) bitset.Set { return d.rows[i] }

// Frequency returns f(U): the number of tuples containing every item of u.
func (d *Dataset) Frequency(u bitset.Set) int {
	c := 0
	for _, r := range d.rows {
		if u.SubsetOf(r) {
			c++
		}
	}
	return c
}

// IsFrequent reports whether u is frequent for threshold z: f(u) > z,
// strictly, per the paper.
func (d *Dataset) IsFrequent(u bitset.Set, z int) bool {
	return d.Frequency(u) > z
}

// validateThreshold enforces 0 < z ≤ |M| (the paper's threshold range).
func (d *Dataset) validateThreshold(z int) error {
	if z <= 0 || z > len(d.rows) {
		return fmt.Errorf("itemsets: threshold %d outside (0, %d]", z, len(d.rows))
	}
	return nil
}

// extendToMaximal grows the frequent itemset u to a maximal frequent
// itemset by greedily adding items in increasing order.
func (d *Dataset) extendToMaximal(u bitset.Set, z int) bitset.Set {
	r := u.Clone()
	for i := 0; i < d.nItems; i++ {
		if r.Contains(i) {
			continue
		}
		r.Add(i)
		if !d.IsFrequent(r, z) {
			r.Remove(i)
		}
	}
	return r
}

// shrinkToMinimalInfrequent shrinks the infrequent itemset u to a minimal
// infrequent itemset by greedily removing items in increasing order. (By
// anti-monotonicity of frequency the result's proper subsets are all
// frequent.)
func (d *Dataset) shrinkToMinimalInfrequent(u bitset.Set, z int) bitset.Set {
	r := u.Clone()
	u.ForEach(func(i int) bool {
		r.Remove(i)
		if d.IsFrequent(r, z) {
			r.Add(i)
		}
		return true
	})
	return r
}

// IsMaximalFrequent reports whether u ∈ IS+(M, z).
func (d *Dataset) IsMaximalFrequent(u bitset.Set, z int) bool {
	if !d.IsFrequent(u, z) {
		return false
	}
	for i := 0; i < d.nItems; i++ {
		if !u.Contains(i) && d.IsFrequent(u.WithElem(i), z) {
			return false
		}
	}
	return true
}

// IsMinimalInfrequent reports whether u ∈ IS−(M, z).
func (d *Dataset) IsMinimalInfrequent(u bitset.Set, z int) bool {
	if d.IsFrequent(u, z) {
		return false
	}
	redundant := false
	u.ForEach(func(i int) bool {
		if !d.IsFrequent(u.WithoutElem(i), z) {
			redundant = true
			return false
		}
		return true
	})
	return !redundant
}

// Borders holds both borders of the frequent-itemset lattice.
type Borders struct {
	// MaxFrequent is IS+(M, z).
	MaxFrequent *hypergraph.Hypergraph
	// MinInfrequent is IS−(M, z).
	MinInfrequent *hypergraph.Hypergraph
	// DualityChecks counts the calls to the duality engine made by the
	// incremental algorithm (1 + |IS+| + |IS−| in the worst case).
	DualityChecks int
}

// ComputeBorders runs the dualize-and-advance loop: starting from one
// greedily found maximal frequent itemset it alternates a duality check of
// (Hᶜ, G) with the extraction of one new verified border element from the
// verdict, exactly the incremental pattern of §1 of the paper.
func ComputeBorders(d *Dataset, z int) (*Borders, error) {
	return ComputeBordersContext(context.Background(), d, z)
}

// ComputeBordersContext is ComputeBorders with cancellation: every duality
// check of the dualize-and-advance loop polls ctx at every tree node (see
// core.DecideContext), so cancelling aborts the mining mid-loop with ctx's
// error. The duality checks run on one default-portfolio session per call,
// so the checks of one mine share pinned scratch and the subinstance memo.
func ComputeBordersContext(ctx context.Context, d *Dataset, z int) (*Borders, error) {
	return ComputeBordersWith(ctx, d, z, engine.NewSession(nil))
}

// ComputeBordersWith is ComputeBordersContext with the duality engine chosen
// by the caller — typically an engine.Session, so that the |IS+| + |IS−| + 1
// decisions of one mining run share pinned scratch.
func ComputeBordersWith(ctx context.Context, d *Dataset, z int, eng engine.Engine) (*Borders, error) {
	return ComputeBordersStreamWith(ctx, d, z, eng, nil)
}

// BorderEvent is one border element the incremental loop has just verified:
// the progress unit of the streaming miner. Set aliases the stored edge —
// treat it as read-only, and clone before retaining past the callback.
type BorderEvent struct {
	// MaxFrequent reports which border grew: true for IS+, false for IS−.
	MaxFrequent bool
	// Set is the new border element.
	Set bitset.Set
	// DualityChecks is the number of duality-engine calls made so far
	// (0 for elements found before the first check: the greedy seed and
	// the degenerate empty-itemset case).
	DualityChecks int
}

// ComputeBordersStreamWith is ComputeBordersWith with progress streaming:
// onFound (when non-nil) is called synchronously with every border element
// the moment it is verified, in discovery order — the dualize-and-advance
// loop made observable, which is what POST /v1/mine streams to clients. A
// non-nil error from onFound aborts the mining and is returned as is.
func ComputeBordersStreamWith(ctx context.Context, d *Dataset, z int, eng engine.Engine, onFound func(BorderEvent) error) (*Borders, error) {
	if err := d.validateThreshold(z); err != nil {
		return nil, err
	}
	n := d.nItems
	b := &Borders{
		MaxFrequent:   hypergraph.New(n),
		MinInfrequent: hypergraph.New(n),
	}
	found := func(maxFrequent bool, set bitset.Set) error {
		if onFound == nil {
			return nil
		}
		return onFound(BorderEvent{MaxFrequent: maxFrequent, Set: set, DualityChecks: b.DualityChecks})
	}

	// Degenerate case: even the empty itemset is infrequent (f(∅) = |M|).
	if !d.IsFrequent(bitset.New(n), z) {
		b.MinInfrequent.AddEdge(bitset.New(n))
		if err := found(false, b.MinInfrequent.Edge(0)); err != nil {
			return nil, err
		}
		return b, nil
	}
	b.MaxFrequent.AddEdge(d.extendToMaximal(bitset.New(n), z))
	if err := found(true, b.MaxFrequent.Edge(0)); err != nil {
		return nil, err
	}

	for {
		// Most checks are settled by the engine's precheck, which polls
		// nothing, so the loop itself must notice a cancelled caller.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b.DualityChecks++
		newMax, newMin, done, err := advance(ctx, d, z, b.MaxFrequent, b.MinInfrequent, eng)
		if err != nil {
			return nil, err
		}
		if done {
			return b, nil
		}
		switch {
		case newMax != nil:
			b.MaxFrequent.AddEdge(*newMax)
			err = found(true, *newMax)
		case newMin != nil:
			b.MinInfrequent.AddEdge(*newMin)
			err = found(false, *newMin)
		default:
			return nil, errors.New("itemsets: advance made no progress")
		}
		if err != nil {
			return nil, err
		}
		if b.DualityChecks > (1<<uint(min(n, 25)))+2*n+4 {
			return nil, errors.New("itemsets: border loop exceeded safety bound")
		}
	}
}

// advance performs one duality check of (X, G) with X = Hᶜ and converts a
// negative verdict into one new verified border element: a maximal frequent
// itemset (newMax) or a minimal infrequent itemset (newMin). Every engine
// classifies verdicts with core's Reason taxonomy, so the conversion below
// is engine-independent.
func advance(ctx context.Context, d *Dataset, z int, h, g *hypergraph.Hypergraph, eng engine.Engine) (newMax, newMin *bitset.Set, done bool, err error) {
	n := d.nItems
	x := h.ComplementEdges() // Hᶜ

	res, err := eng.Decide(ctx, x, g)
	if err != nil {
		return nil, nil, false, err
	}
	if res.Dual {
		return nil, nil, true, nil
	}

	switch res.Reason {
	case core.ReasonConstantMismatch:
		// Only two live sub-cases given the loop invariants (H nonempty,
		// every h maximal frequent, every g minimal infrequent):
		switch {
		case x.HasEmptyEdge():
			// Some h is the full item set ⇒ tr(Hᶜ) = tr({∅}) = ∅ ⇒ the
			// borders are complete iff G = ∅, and G ⊆ IS− = ∅ always holds.
			if g.M() != 0 {
				return nil, nil, false, errors.New("itemsets: minimal infrequent set recorded although the full itemset is frequent")
			}
			return nil, nil, true, nil
		case g.M() == 0:
			// tr(X) is nonempty but no minimal infrequent candidate is
			// known yet: take any minimal transversal of X.
			t := x.MinimalizeTransversal(bitset.Full(n))
			return classify(d, z, t)
		default:
			return nil, nil, false, fmt.Errorf("itemsets: unexpected constant case (|X|=%d |G|=%d)", x.M(), g.M())
		}
	case core.ReasonNotCrossIntersecting:
		// g ∩ (S−h) = ∅ ⟺ g ⊆ h: an infrequent subset of a frequent set —
		// impossible; the invariant is broken.
		return nil, nil, false, errors.New("itemsets: invariant broken: infrequent g inside frequent h")
	case core.ReasonHEdgeNotMinimal:
		// Some g ∈ G is a non-minimal transversal of X: g − {v} is still
		// outside every h, and it is frequent (g is minimal infrequent), so
		// it extends to a new maximal frequent itemset.
		gEdge := g.Edge(res.HEdge)
		seed := gEdge.WithoutElem(res.RedundantVertex)
		m := d.extendToMaximal(seed, z)
		return &m, nil, false, nil
	case core.ReasonGEdgeNotMinimal:
		// Some x = S−h is a non-minimal transversal of G: with u the
		// redundant item, no g is contained in h ∪ {u}, yet h ∪ {u} is
		// infrequent (h is maximal frequent): shrink it to a new minimal
		// infrequent itemset.
		hEdge := h.Edge(res.GEdge)
		seed := hEdge.WithElem(res.RedundantVertex)
		mi := d.shrinkToMinimalInfrequent(seed, z)
		return nil, &mi, false, nil
	case core.ReasonNewTransversal:
		// A transversal of X containing no g: it contains a minimal
		// transversal of X outside G; classify it by frequency.
		t := x.MinimalizeTransversal(res.Witness)
		return classify(d, z, t)
	default:
		return nil, nil, false, fmt.Errorf("itemsets: unhandled verdict %v", res.Reason)
	}
}

// classify turns a minimal transversal of Hᶜ that is not yet in G into a
// new border element: if frequent it extends to a new maximal frequent
// itemset; if infrequent it is itself minimal infrequent (its proper
// subsets lie inside maximal frequent sets).
func classify(d *Dataset, z int, t bitset.Set) (newMax, newMin *bitset.Set, done bool, err error) {
	if d.IsFrequent(t, z) {
		m := d.extendToMaximal(t, z)
		return &m, nil, false, nil
	}
	return nil, &t, false, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// IdentifyResult is the outcome of MaxFreq-MinInfreq-Identification.
type IdentifyResult struct {
	// Complete reports H = IS+ and G = IS−.
	Complete bool
	// BadMaxClaim / BadMinClaim (when ≥ 0) identify a claimed set that is
	// not actually a maximal frequent / minimal infrequent itemset.
	BadMaxClaim, BadMinClaim int
	// NewMaxFrequent / NewMinInfrequent carry a border element missing from
	// the claim, when the claims were valid but incomplete.
	NewMaxFrequent, NewMinInfrequent *bitset.Set
}

// Identify solves the paper's MaxFreq-MinInfreq-Identification problem:
// given claimed families h ⊆ IS+ and g ⊆ IS−, decide whether there exists
// an additional maximal frequent or minimal infrequent itemset
// (Proposition 1.1: this is logspace-equivalent to DUAL — after verifying
// the membership claims, completeness is exactly G = tr(Hᶜ)). On
// incompleteness a concrete missing border element is returned. The duality
// check runs on the default engine portfolio; IdentifyWith chooses.
func Identify(d *Dataset, z int, g, h *hypergraph.Hypergraph) (*IdentifyResult, error) {
	return IdentifyWith(context.Background(), d, z, g, h, engine.Default())
}

// IdentifyWith is Identify with cancellation and a caller-chosen duality
// engine.
func IdentifyWith(ctx context.Context, d *Dataset, z int, g, h *hypergraph.Hypergraph, eng engine.Engine) (*IdentifyResult, error) {
	if err := d.validateThreshold(z); err != nil {
		return nil, err
	}
	if g.N() != d.nItems || h.N() != d.nItems {
		return nil, errors.New("itemsets: family universe differs from item universe")
	}
	res := &IdentifyResult{BadMaxClaim: -1, BadMinClaim: -1}
	for i := 0; i < h.M(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !d.IsMaximalFrequent(h.Edge(i), z) {
			res.BadMaxClaim = i
			return res, nil
		}
	}
	for i := 0; i < g.M(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !d.IsMinimalInfrequent(g.Edge(i), z) {
			res.BadMinClaim = i
			return res, nil
		}
	}
	// Degenerate: nothing frequent at all.
	if !d.IsFrequent(bitset.New(d.nItems), z) {
		complete := h.M() == 0 && g.M() == 1 && g.Edge(0).IsEmpty()
		res.Complete = complete
		if !complete {
			empty := bitset.New(d.nItems)
			res.NewMinInfrequent = &empty
		}
		return res, nil
	}
	if h.M() == 0 {
		// Claims are valid but at least one maximal frequent set exists.
		m := d.extendToMaximal(bitset.New(d.nItems), z)
		res.NewMaxFrequent = &m
		return res, nil
	}
	newMax, newMin, done, err := advance(ctx, d, z, h, g, eng)
	if err != nil {
		return nil, err
	}
	res.Complete = done
	res.NewMaxFrequent = newMax
	res.NewMinInfrequent = newMin
	return res, nil
}

// BordersBrute computes both borders by exhaustive lattice scan (test
// oracle; panics beyond 20 items).
func BordersBrute(d *Dataset, z int) (*Borders, error) {
	if err := d.validateThreshold(z); err != nil {
		return nil, err
	}
	n := d.nItems
	if n > 20 {
		panic("itemsets: BordersBrute item universe too large")
	}
	b := &Borders{MaxFrequent: hypergraph.New(n), MinInfrequent: hypergraph.New(n)}
	for mask := 0; mask < 1<<uint(n); mask++ {
		u := bitset.New(n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				u.Add(i)
			}
		}
		if d.IsMaximalFrequent(u, z) {
			b.MaxFrequent.AddEdge(u)
		}
		if d.IsMinimalInfrequent(u, z) {
			b.MinInfrequent.AddEdge(u)
		}
	}
	b.MaxFrequent = b.MaxFrequent.Canonical()
	b.MinInfrequent = b.MinInfrequent.Canonical()
	return b, nil
}

// BordersApriori computes both borders by levelwise search: frequent
// itemsets are generated level by level (Apriori); candidates all of whose
// subsets are frequent but which are themselves infrequent are exactly the
// minimal infrequent sets; maximal frequent sets are filtered at the end.
func BordersApriori(d *Dataset, z int) (*Borders, error) {
	if err := d.validateThreshold(z); err != nil {
		return nil, err
	}
	n := d.nItems
	b := &Borders{MaxFrequent: hypergraph.New(n), MinInfrequent: hypergraph.New(n)}

	if !d.IsFrequent(bitset.New(n), z) {
		b.MinInfrequent.AddEdge(bitset.New(n))
		return b, nil
	}

	frequent := map[string]bitset.Set{}
	level := []bitset.Set{bitset.New(n)}
	frequent[bitset.New(n).Key()] = bitset.New(n)

	// Reused lookup scratch: probing the frequent map goes through
	// string(AppendKey) on a shared buffer, which does not allocate.
	sub, keyBuf := bitset.New(n), make([]byte, 0, 64)

	for len(level) > 0 {
		candidates := map[string]bitset.Set{}
		for _, u := range level {
			// Extend by items beyond the largest, so each candidate is
			// generated once.
			for i := maxElem(u) + 1; i < n; i++ {
				c := u.WithElem(i)
				candidates[c.Key()] = c
			}
		}
		var next []bitset.Set
		for _, c := range candidates {
			// Apriori pruning: all proper subsets of size |c|−1 frequent.
			allSubsFrequent := c.ForEach(func(i int) bool {
				sub.CopyFrom(c)
				sub.Remove(i)
				keyBuf = sub.AppendKey(keyBuf[:0])
				_, ok := frequent[string(keyBuf)]
				return ok
			})
			if !allSubsFrequent {
				continue
			}
			if d.IsFrequent(c, z) {
				frequent[c.Key()] = c
				next = append(next, c)
			} else {
				// All (|c|−1)-subsets frequent ⇒ all proper subsets
				// frequent ⇒ minimal infrequent.
				b.MinInfrequent.AddEdge(c)
			}
		}
		level = next
	}
	// Maximal frequent = frequent sets none of whose single-item
	// extensions are frequent.
	for _, u := range frequent {
		if d.IsMaximalFrequent(u, z) {
			b.MaxFrequent.AddEdge(u)
		}
	}
	b.MaxFrequent = b.MaxFrequent.Canonical()
	b.MinInfrequent = b.MinInfrequent.Canonical()
	return b, nil
}

func maxElem(s bitset.Set) int {
	m := -1
	s.ForEach(func(v int) bool { m = v; return true })
	return m
}

// VerifyBorderIdentity checks the Gunopulos et al. identity IS− = tr((IS+)ᶜ)
// on computed borders using the default duality engine; it backs experiment
// E10.
func VerifyBorderIdentity(b *Borders) (bool, error) {
	res, err := engine.Default().Decide(context.Background(), b.MaxFrequent.ComplementEdges(), b.MinInfrequent)
	if err != nil {
		return false, err
	}
	return res.Dual, nil
}
