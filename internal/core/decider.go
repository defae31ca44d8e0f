package core

// Decider: the one decision state, and the one copy of the paper's
// protocol — bind the incidence indexes, run the logspace-checkable
// precheck, orient the pair so that |H| ≤ |G|, run the tree stage, and
// unswap the witness. The package-level Decide/TrSubset/NewTransversal
// calls run it on a fresh Decider; internal/engine's
// Session pins one and re-binds it to each new instance, so a long-lived
// holder's repeated decisions are allocation-free at steady state — across
// calls, not just within one — including on non-dual verdicts, whose
// witness and fail-path storage live in the pinned walker (scratch.go).
//
// The tree stage is one of three: the pinned serial walk (DecideContext),
// the work-stealing pool on the Decider's own oriented indexes
// (DecideParallel, parallel.go), or a caller-supplied TreeSearch
// (DecideSearch — how internal/engine plugs in the logspace replay
// walker).
//
// A Decider may additionally carry a cross-node subinstance Memo (memo.go):
// all-done subtrees recorded by one decision short-circuit identical
// subtrees later in the same decision and in every subsequent decision on
// the same Decider — the reuse pattern of the incremental applications
// (border/key/coterie loops decide against a growing family whose
// subinstances largely repeat) and of repeated service traffic. Only the
// serial walk consults it.

import (
	"context"
	"errors"
	"time"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
)

// Decider is a reusable decision state for repeated Decide/TrSubset calls.
// The zero value is not usable; create with NewDecider.
//
// The returned *Result — including its Witness, CoWitness and FailPath —
// aliases the Decider's pinned storage and is valid only until the next call
// on the same Decider; callers that retain verdicts must Clone them. A
// Decider is not safe for concurrent use: it is meant to be owned by one
// worker (internal/engine.Session hands one to each service worker slot).
type Decider struct {
	w    *walkState
	full bitset.Set
	res  Result
	memo *Memo
	// rec, when non-nil, receives per-stage timings (precheck, index sync,
	// walk net of memo consults, memo consults) for every decision — the
	// obs layer's stage-level tracing hook. Nil disables all clock reads;
	// an attached recorder adds a handful of time.Now calls per decision
	// and zero allocations (DESIGN.md §10).
	rec *obs.Recorder
}

// TreeSearch is a caller-supplied tree stage for DecideSearch. It decides
// tr(g) ⊆ h for a pair the precheck has passed (simple, non-constant,
// cross-intersecting, mutually minimal), already oriented so that
// |h| ≤ |g|, and answers in TrSubset's Result form: Dual, and on a fail
// leaf ReasonNewTransversal with Witness, CoWitness and FailPath in T(g,h).
type TreeSearch func(ctx context.Context, g, h *hypergraph.Hypergraph) (*Result, error)

// tree selects the tree stage of one decision: search when set, else the
// work-stealing pool when parallel, else the pinned serial walk.
type tree struct {
	parallel bool
	workers  int
	search   TreeSearch
}

// NewDecider returns an empty decider; its scratch is sized lazily on the
// first call and re-sized only when the instance shape changes. It carries
// no memo until EnableMemo.
func NewDecider() *Decider { return &Decider{} }

// EnableMemo attaches a cross-node subinstance memo bounded to the given
// number of entries (0 or negative: DefaultMemoEntries), replacing any
// existing one. See memo.go for keying, bounds and soundness.
func (d *Decider) EnableMemo(entries int) {
	d.memo = NewMemo(entries)
	if d.w != nil {
		d.w.memo = d.memo
	}
}

// SetRecorder attaches (nil: detaches) a stage-timing recorder. The
// recorder is owned by the Decider's owner and read out between decisions;
// it is not reset here — callers Reset it per decision when they consume
// per-call timings.
func (d *Decider) SetRecorder(r *obs.Recorder) {
	d.rec = r
	if d.w != nil {
		d.w.rec = r
	}
}

// MemoStats snapshots the memo counters (zero value when no memo is
// attached). Safe to call concurrently with decisions.
func (d *Decider) MemoStats() MemoStats {
	if d.memo == nil {
		return MemoStats{}
	}
	return d.memo.Stats()
}

// bind points the pinned walker at (g, h), reallocating only when the
// universe size differs from the previous instance's; the scratch re-binds
// its indexes and per-edge state in place otherwise.
func (d *Decider) bind(g, h *hypergraph.Hypergraph) *walkState {
	n := g.N()
	if d.w == nil || d.w.sc.n != n {
		d.w = newWalkState(g, h)
		d.full = bitset.Full(n)
	} else {
		d.w.sc.bind(g, h)
	}
	d.w.memo = d.memo
	d.w.rec = d.rec
	return d.w
}

// precheck resets the pinned result, binds (g, h) and runs the precondition
// stage (with or without the minimality preconditions; see
// precheckIntoIdx), timing the bind as index sync and the probes as
// precheck.
//
//dual:allocfree
func (d *Decider) precheck(g, h *hypergraph.Hypergraph, minimality bool) (bool, error) {
	d.res = Result{GEdge: -1, HEdge: -1, RedundantVertex: -1}
	var t0 time.Time
	if d.rec != nil {
		t0 = time.Now()
	}
	w := d.bind(g, h)
	if d.rec != nil {
		d.rec.Add(obs.StageIndexSync, time.Since(t0))
		t0 = time.Now()
	}
	done, err := precheckIntoIdx(g, h, w.sc.gIdx, w.sc.hIdx, w.sc.hitG, w.sc.notCont, minimality, &d.res)
	if d.rec != nil {
		d.rec.Add(obs.StagePrecheck, time.Since(t0))
	}
	return done, err
}

// Precheck runs only the precondition stage of Decide on the pinned state:
// it returns the verdict and done = true when the preconditions alone
// decide the instance, or (nil, false, nil) when a tree stage is still
// needed — in which case the pair is guaranteed simple, non-constant,
// cross-intersecting and mutually minimal. Decision procedures with their
// own unoriented tree stage (internal/engine's Fredman–Khachiyan adapter)
// run it first, so every engine classifies precondition failures with the
// same Reason taxonomy.
//
//dual:allocfree
func (d *Decider) Precheck(g, h *hypergraph.Hypergraph) (*Result, bool, error) {
	done, err := d.precheck(g, h, true)
	if err != nil || !done {
		return nil, false, err
	}
	return &d.res, true, nil
}

// DecideContext is Decide on the decider's pinned state, with the reuse
// contract documented on Decider, and with cancellation: a ctx already
// cancelled on entry returns its error before the precheck runs, and the
// tree stage — the serial walk — polls ctx at every node it visits.
//
//dual:allocfree
func (d *Decider) DecideContext(ctx context.Context, g, h *hypergraph.Hypergraph) (*Result, error) {
	return d.decide(ctx, g, h, tree{})
}

// DecideParallel is DecideContext with the tree stage searched by a
// work-stealing pool of `workers` goroutines (0 means GOMAXPROCS) over the
// decider's own incidence indexes. Verdict and Reason agree with the serial
// walk; Witness/FailPath may name a different (equally valid) fail leaf,
// and Stats.Nodes counts the nodes actually visited. Every worker polls ctx
// at every node; if a fail leaf was recorded before a cancellation won the
// race, the (valid) non-dual verdict is returned instead of ctx's error.
func (d *Decider) DecideParallel(ctx context.Context, g, h *hypergraph.Hypergraph, workers int) (*Result, error) {
	return d.decide(ctx, g, h, tree{parallel: true, workers: workers})
}

// DecideSearch is DecideContext with a caller-supplied tree stage: search
// runs on the precheck-passed, oriented pair, and its verdict is unswapped
// like the serial walk's.
func (d *Decider) DecideSearch(ctx context.Context, g, h *hypergraph.Hypergraph, search TreeSearch) (*Result, error) {
	return d.decide(ctx, g, h, tree{search: search})
}

// decide is the protocol: precheck, orient, tree stage, unswap. The
// precheck polls nothing, so a cancelled ctx is honoured before it.
//
//dual:allocfree
func (d *Decider) decide(ctx context.Context, g, h *hypergraph.Hypergraph, t tree) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, done, err := d.Precheck(g, h)
	if err != nil || done {
		return res, err
	}
	// Honor the paper's |H| ≤ |G| convention by swapping when beneficial;
	// duality is symmetric once the preconditions hold, and a witness for
	// one orientation complements to one for the other.
	swapped := h.M() > g.M()
	if swapped {
		d.w.sc.swap()
	}
	if err := d.treeStage(ctx, t); err != nil {
		return nil, err
	}
	d.res.Swapped = swapped
	if !d.res.Dual && swapped {
		d.res.Witness, d.res.CoWitness = d.res.CoWitness, d.res.Witness
	}
	return &d.res, nil
}

// TrSubsetContext is TrSubset on the decider's pinned state, under
// DecideContext's cancellation contract: the first half of the precheck
// (validation, constants, cross-intersection) as an input check, then the
// serial walk over T(g,h).
//
//dual:allocfree
func (d *Decider) TrSubsetContext(ctx context.Context, g, h *hypergraph.Hypergraph) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	done, err := d.precheck(g, h, false)
	if err != nil {
		return nil, err
	}
	if done {
		if d.res.Reason == ReasonNotCrossIntersecting {
			return nil, errNotCrossIntersecting
		}
		return nil, errConstantInput
	}
	if err := d.treeStage(ctx, tree{}); err != nil {
		return nil, err
	}
	return &d.res, nil
}

var (
	errConstantInput        = errors.New("core: TrSubset requires non-constant inputs; use Decide")
	errNotCrossIntersecting = errors.New("core: TrSubset requires a cross-intersecting pair")
)

// NewTransversal is the package-level NewTransversal on the decider's
// pinned state, with cancellation; a tree-stage witness aliases it like a
// Result does. The
// shapes the tree stage's input contract excludes are answered directly:
// a constant g, an empty h, and ∅ ∈ h.
func (d *Decider) NewTransversal(ctx context.Context, g, h *hypergraph.Hypergraph) (bitset.Set, bool, error) {
	if err := ctx.Err(); err != nil {
		return bitset.Set{}, false, err
	}
	switch {
	case g.HasEmptyEdge():
		// tr(g) = ∅: g has no transversal at all.
		return bitset.Set{}, false, nil
	case h.HasEmptyEdge():
		// Every set contains the edge ∅ of h.
		return bitset.Set{}, false, nil
	case g.M() == 0:
		// tr(g) = {∅}, and ∅ contains no edge of an h without ∅.
		return bitset.New(g.N()), true, nil
	case h.M() == 0:
		// The full vertex set (the complement of ∅) is a transversal of the
		// non-constant g and contains no edge of the empty family.
		return bitset.New(g.N()).Complement(), true, nil
	}
	res, err := d.TrSubsetContext(ctx, g, h)
	if err != nil || res.Dual {
		return bitset.Set{}, false, err
	}
	return res.Witness, true, nil
}

// treeStage runs the selected tree stage over the pinned walker's current
// orientation; the pair must already be validated (simple, non-constant,
// cross-intersecting). With a recorder attached, fitting the serial walk's
// state and its root syncTo count as index sync and the DFS as walk — net
// of the memo-consult time serialWalk accumulated under StageMemo, so the
// reported stages stay disjoint; a caller-supplied search counts as walk,
// and the parallel pool records its own walk and steal stages.
//
//dual:allocfree
func (d *Decider) treeStage(ctx context.Context, t tree) error {
	w := d.w
	d.res.Dual = true
	var t0 time.Time
	switch {
	case t.search != nil:
		if d.rec != nil {
			t0 = time.Now()
		}
		r, err := t.search(ctx, w.sc.g, w.sc.h)
		if d.rec != nil {
			d.rec.Add(obs.StageWalk, time.Since(t0))
		}
		if err != nil {
			return err
		}
		d.res.Dual, d.res.Reason, d.res.Stats = r.Dual, r.Reason, r.Stats
		d.res.Witness, d.res.CoWitness, d.res.FailPath = r.Witness, r.CoWitness, r.FailPath
		return nil
	case t.parallel:
		if !trSubsetParallel(ctx, w, d.full, t.workers, d.rec, &d.res) {
			return ctx.Err()
		}
		return nil
	}
	w.done = ctx.Done()
	w.cancelled = false
	var memo0 int64
	if d.rec != nil {
		t0 = time.Now()
	}
	w.sc.size()
	w.sc.syncTo(d.full)
	if d.rec != nil {
		d.rec.Add(obs.StageIndexSync, time.Since(t0))
		t0 = time.Now()
		memo0 = d.rec.Get(obs.StageMemo)
	}
	serialWalk(w, d.full, 0, &d.res)
	if d.rec != nil {
		memoD := time.Duration(d.rec.Get(obs.StageMemo) - memo0)
		d.rec.Add(obs.StageWalk, time.Since(t0)-memoD)
	}
	if w.cancelled {
		return ctx.Err()
	}
	return nil
}
