// Package engine is the pluggable decision-engine layer: one interface over
// the repository's five duality decision procedures — the paper's
// Boros–Makino decomposition (serial and parallel, internal/core), the
// space-metered replay walker (internal/logspace), and the Fredman–Khachiyan
// algorithms A and B (internal/fkdual) — plus a Portfolio that dispatches on
// cheap instance features and a Session that pins per-engine scratch so a
// long-lived holder's repeated decisions are allocation-free across calls.
//
// Every engine answers the same question with the same Result vocabulary:
// Decide(ctx, g, h) reports whether h = tr(g), classifying negative verdicts
// with core's Reason taxonomy. Each built-in engine is written once against
// a core.Decider, which runs the paper's protocol (precheck, orient, tree
// stage, unswap) exactly once in internal/core: the serial and parallel
// decompositions and the logspace replay walker are tree stages of that
// protocol, and the Fredman–Khachiyan adapter runs the Decider's precheck
// before its own unoriented recursion. So constants, cross-intersection
// failures and minimality violations are reported identically by every
// engine; only the tree/recursion stage differs. For the FK algorithms the
// recursion witness x (an assignment with f_g(x) = f_h(V∖x)) is converted
// to the paper's witness form: once the preconditions hold only both-false
// witnesses are possible, and then V∖x is a new transversal of g with
// respect to h.
//
// Call sites choose an engine by value (ByName, NewPortfolio, NewCoreParallel)
// or take the Default portfolio; no package outside this one constructs a
// decision procedure directly — the façade, the HTTP service, the CLIs and
// the application layers (transversal oracles, keys, itemsets, coteries) all
// route through here. DESIGN.md §6 documents the layer.
package engine

import (
	"context"
	"fmt"

	"dualspace/internal/core"
	"dualspace/internal/fkdual"
	"dualspace/internal/hypergraph"
	"dualspace/internal/logspace"
)

// Engine is a duality decision procedure. Implementations are stateless and
// safe for concurrent use; per-holder reusable state lives in Session.
type Engine interface {
	// Name returns the engine's registry name (see Names).
	Name() string
	// Decide reports whether h = tr(g), under core.Decider.DecideContext's
	// input and cancellation contract.
	Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error)
}

// runFunc is a decision written against a core.Decider, receiver first, so
// a Decider method expression is one.
type runFunc func(d *core.Decider, ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error)

// builtin is a registry engine, written once as a runFunc. A Session runs
// it on its pinned Decider; the stateless Decide on a fresh one. Built-ins
// are held by pointer, so engines compare with == like any pointer.
type builtin struct {
	name string
	run  runFunc
}

func (e *builtin) Name() string { return e.name }

// Decide runs the engine on a fresh Decider and detaches the verdict from
// it, so the result aliases nothing.
func (e *builtin) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return core.Detach(e.run(core.NewDecider(), ctx, g, h))
}

// coreSerial is the paper's serial decomposition on the pinned walker.
var coreSerial = &builtin{name: "core", run: (*core.Decider).DecideContext}

// NewCoreParallel returns the parallel decomposition engine with the given
// goroutine bound (0 = GOMAXPROCS).
func NewCoreParallel(workers int) Engine { return coreParallel(workers) }

// coreParallel is the work-stealing tree search on the Decider's indexes.
func coreParallel(workers int) *builtin {
	return &builtin{name: "core-parallel",
		run: func(d *core.Decider, ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
			return d.DecideParallel(ctx, g, h, workers)
		}}
}

// fkA and fkB adapt the Fredman–Khachiyan algorithms.
var (
	fkA = &builtin{name: "fk-a", run: fkRun(fkdual.DecideAContext)}
	fkB = &builtin{name: "fk-b", run: fkRun(fkdual.DecideBContext)}
)

// fkRun is the FK adapter: the Decider's pinned precheck for the
// precondition reasons, then the FK recursion on the unoriented pair for the
// tree-equivalent stage. Like Decider.DecideContext it answers a cancelled
// ctx before the precheck.
func fkRun(decide func(ctx context.Context, g, h *hypergraph.Hypergraph) (*fkdual.Result, error)) runFunc {
	return func(d *core.Decider, ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res, done, err := d.Precheck(g, h); err != nil || done {
			return res, err
		}
		fres, err := decide(ctx, g, h)
		if err != nil {
			return nil, err
		}
		out := &core.Result{Dual: fres.Dual, GEdge: -1, HEdge: -1, RedundantVertex: -1}
		// Map the recursion counters onto the tree-stage statistics so callers
		// see comparable work measures across engines.
		out.Stats = core.Stats{Nodes: fres.Stats.Calls, MaxDepth: fres.Stats.MaxDepth}
		if !fres.Dual {
			// Preconditions hold, so the FK witness x must be both-false
			// (a both-true witness would exhibit a disjoint edge pair, which
			// cross-intersection excludes): no g-edge inside x, no h-edge inside
			// V∖x. Then V∖x is a transversal of g containing no edge of h — the
			// paper's new-transversal witness — and x is its co-witness.
			out.Reason = core.ReasonNewTransversal
			out.Witness = fres.Witness.Complement()
			out.CoWitness = fres.Witness.Clone()
		}
		return out, nil
	}
}

// logspaceReplay is the path-descriptor walker in its fast (replay) regime,
// plugged into the Decider as its tree stage.
var logspaceReplay = &builtin{name: "logspace",
	run: func(d *core.Decider, ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
		return d.DecideSearch(ctx, g, h, replaySearch)
	}}

// replaySearch walks T(g,h) through the path-descriptor enumerator
// (Theorem 4.1's decompose), stopping at the first fail leaf — the same
// DFS-first search as logspace.FindFailPath, but with the per-node
// visibility the Stats contract wants (MaxChildren is not observable per
// node here and stays 0). Attr.Label and Attr.T alias walker state, so both
// are copied out.
func replaySearch(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	out := &core.Result{Dual: true, GEdge: -1, HEdge: -1, RedundantVertex: -1}
	err := logspace.Decompose(g, h, logspace.Options{Mode: logspace.ModeReplay, Ctx: ctx},
		func(a logspace.Attr) bool {
			out.Stats.Nodes++
			if d := len(a.Label); d > out.Stats.MaxDepth {
				out.Stats.MaxDepth = d
			}
			if a.Mark == core.MarkNil {
				return true
			}
			out.Stats.Leaves++
			if a.Mark != core.MarkFail {
				return true
			}
			out.Dual = false
			out.Reason = core.ReasonNewTransversal
			out.Witness = a.T.Clone()
			out.CoWitness = out.Witness.Complement()
			out.FailPath = append([]int(nil), a.Label...)
			return false // fail leaf found: stop the walk
		}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Names lists the registry names accepted by ByName, default first.
func Names() []string {
	return []string{"portfolio", "core", "core-parallel", "fk-a", "fk-b", "logspace"}
}

// ByName resolves a registry name to an engine; the empty string resolves to
// the default portfolio. Unknown names return an error listing the registry.
func ByName(name string) (Engine, error) {
	switch name {
	case "", "portfolio":
		return Default(), nil
	case "core":
		return coreSerial, nil
	case "core-parallel":
		return coreParallel(0), nil
	case "fk-a":
		return fkA, nil
	case "fk-b":
		return fkB, nil
	case "logspace":
		return logspaceReplay, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
}

// defaultPortfolio is the shared default engine: a portfolio with
// GOMAXPROCS-wide parallel fallback. Portfolios are stateless, so one
// instance serves every caller.
var defaultPortfolio = NewPortfolio(PortfolioConfig{})

// Default returns the engine used when a caller names none: the standard
// feature-dispatching portfolio.
func Default() Engine { return defaultPortfolio }
