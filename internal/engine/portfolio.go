package engine

// Portfolio dispatch. Gottlob–Malizia ("Achieving New Upper Bounds for the
// Hypergraph Duality Problem through Logic") underline that no single
// duality algorithm dominates across instance shapes; the Portfolio engine
// therefore selects per instance on cheap features:
//
//   - A side with ≤ 2 edges goes to FK-B, whose small-side base resolves the
//     instance by one dualization of that tiny side — no tree search at all.
//   - Mid-size instances (|G|·|H| below the parallel threshold) go to the
//     serial decomposition: its session-pinnable scratch and lack of spawn
//     overhead beat goroutines while trees are small.
//   - Large instances go to the parallel decomposition — unless the first
//     input is α-acyclic or has degeneracy ≤ 2, the structural classes §6 of
//     the paper singles out: their decomposition trees stay shallow, so the
//     serial walker wins again.

import (
	"context"
	"runtime"

	"dualspace/internal/core"
	"dualspace/internal/hypergraph"
)

// Selection thresholds (see the package comment above for the rationale).
const (
	// fkSmallSide: at or below this min-side edge count FK-B resolves the
	// instance directly from its small-side base.
	fkSmallSide = 2
	// parallelProduct: |G|·|H| at or above which the tree is expected deep
	// enough to amortize goroutine spawns.
	parallelProduct = 2048
	// parallelProductMulti replaces parallelProduct when more than one
	// worker is actually available: the work-stealing pool's fixed overhead
	// is a handful of channel makes and worker wakeups (not a goroutine per
	// subtree), so mid-size trees already profit from extra CPUs.
	parallelProductMulti = 512
	// lowDegeneracy: degeneracy at or below which the instance counts as
	// structurally easy (paper §6) and stays on the serial walker.
	lowDegeneracy = 2
)

// Features are the per-instance measurements the portfolio dispatches on.
// Acyclic and Degeneracy are computed only when the cheap counts do not
// already decide the dispatch (Structural reports whether they were).
type Features struct {
	// Vertices is |V|; GEdges and HEdges are |G| and |H|.
	Vertices, GEdges, HEdges int
	// MinSide is min(|G|,|H|); Product is |G|·|H|.
	MinSide, Product int
	// Structural reports that Acyclic and Degeneracy below are populated.
	Structural bool
	// Acyclic is α-acyclicity of g (GYO reduction).
	Acyclic bool
	// Degeneracy is g's min-degree-elimination degeneracy.
	Degeneracy int
}

// ExtractFeatures computes the full feature tuple, including the structural
// fields, for observability and tests; Select itself skips the structural
// pass when the edge counts already decide the dispatch.
func ExtractFeatures(g, h *hypergraph.Hypergraph) Features {
	f := countFeatures(g, h)
	f.Structural = true
	f.Acyclic = g.IsAcyclic()
	f.Degeneracy = g.Degeneracy()
	return f
}

func countFeatures(g, h *hypergraph.Hypergraph) Features {
	return Features{
		Vertices: g.N(),
		GEdges:   g.M(),
		HEdges:   h.M(),
		MinSide:  min(g.M(), h.M()),
		Product:  g.M() * h.M(),
	}
}

// PortfolioConfig parameterizes a Portfolio; the zero value is the default
// portfolio with GOMAXPROCS-wide parallel fallback.
type PortfolioConfig struct {
	// Workers bounds the parallel engine's goroutines (0 = GOMAXPROCS).
	Workers int
}

// Portfolio is the feature-dispatching engine. It is stateless and safe for
// concurrent use; create with NewPortfolio. Its own contract (Caps): it may
// parallelize, but a fail path is not guaranteed (the FK engines do not
// produce one).
type Portfolio struct {
	builtin
	cfg                   PortfolioConfig
	serial, parallel, fkb *builtin
}

// NewPortfolio returns a portfolio over the core and FK-B engines.
func NewPortfolio(cfg PortfolioConfig) *Portfolio {
	p := &Portfolio{cfg: cfg, serial: coreSerial, parallel: coreParallel(cfg.Workers), fkb: fkB}
	p.builtin = builtin{name: "portfolio", caps: Caps{Parallel: true}, run: p.decide}
	return p
}

// Select returns the engine the portfolio would dispatch (g, h) to, plus the
// features that determined the choice — exposed so tests and /statsz
// consumers can observe the policy.
func (p *Portfolio) Select(g, h *hypergraph.Hypergraph) (Engine, Features) {
	return p.pick(g, h)
}

// pick is Select without boxing the choice, so a session's dispatch stays
// allocation-free.
func (p *Portfolio) pick(g, h *hypergraph.Hypergraph) (*builtin, Features) {
	f := countFeatures(g, h)
	if f.MinSide <= fkSmallSide {
		return p.fkb, f
	}
	// A single-slot pool degenerates to serial search with scheduler
	// overhead and without the session-pinnable (memoized) scratch: never
	// pick it. With real extra workers the threshold drops — see
	// parallelProductMulti.
	single := p.cfg.Workers == 1 || (p.cfg.Workers <= 0 && runtime.GOMAXPROCS(0) == 1)
	threshold := parallelProductMulti
	if single {
		threshold = parallelProduct
	}
	if f.Product < threshold {
		return p.serial, f
	}
	if single {
		return p.serial, f
	}
	f.Structural = true
	f.Acyclic = g.IsAcyclic()
	f.Degeneracy = g.Degeneracy()
	if f.Acyclic || f.Degeneracy <= lowDegeneracy {
		return p.serial, f
	}
	return p.parallel, f
}

// decide runs the selected engine on d.
func (p *Portfolio) decide(d *core.Decider, ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	sel, _ := p.pick(g, h)
	return sel.run(d, ctx, g, h)
}
