package engine_test

// Cross-engine conformance: every engine must report the same verdict (and
// the same Reason for precondition failures) on every instance, and every
// non-dual new-transversal verdict must carry a valid witness — a
// transversal of g containing no edge of h, whose complement witnesses the
// opposite orientation. The harness sweeps the named instance families plus
// a seeded randomized mix of dual, non-dual, self-dual and degenerate
// (empty/constant) instances.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/gen"
	"dualspace/internal/hypergraph"
	"dualspace/internal/transversal"
)

// allEngines resolves every registry engine, the portfolio included.
func allEngines(t *testing.T) []engine.Engine {
	t.Helper()
	var out []engine.Engine
	for _, name := range engine.Names() {
		e, err := engine.ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		out = append(out, e)
	}
	return out
}

// checkInstance decides (g, h) with every engine and asserts verdict
// agreement and witness validity against the expected duality.
func checkInstance(t *testing.T, name string, g, h *hypergraph.Hypergraph, wantDual bool) {
	t.Helper()
	ctx := context.Background()
	var wantReason core.Reason
	haveReason := false
	for _, e := range allEngines(t) {
		res, err := e.Decide(ctx, g, h)
		if err != nil {
			t.Fatalf("%s: engine %s: %v", name, e.Name(), err)
		}
		if res.Dual != wantDual {
			t.Errorf("%s: engine %s: dual=%v, want %v", name, e.Name(), res.Dual, wantDual)
			continue
		}
		if res.Dual {
			continue
		}
		// Precondition reasons must agree verbatim across engines (they all
		// run the same precheck); tree-stage witnesses may differ per engine
		// but must each be valid.
		if !haveReason {
			wantReason, haveReason = res.Reason, true
		} else if res.Reason != wantReason {
			t.Errorf("%s: engine %s: reason %v, others %v", name, e.Name(), res.Reason, wantReason)
		}
		if res.Reason == core.ReasonNewTransversal {
			if !g.IsNewTransversal(res.Witness, h) {
				t.Errorf("%s: engine %s: witness %v is not a new transversal of g w.r.t. h",
					name, e.Name(), res.Witness)
			}
			if !h.IsNewTransversal(res.CoWitness, g) {
				t.Errorf("%s: engine %s: co-witness %v is not a new transversal of h w.r.t. g",
					name, e.Name(), res.CoWitness)
			}
		}
	}
}

func TestConformanceFamilies(t *testing.T) {
	for _, pair := range gen.Families(7) {
		checkInstance(t, pair.Name, pair.G, pair.H, pair.Dual)
	}
}

func TestConformanceDegenerate(t *testing.T) {
	n := 4
	bottom := hypergraph.New(n) // ⊥: no edges
	top := hypergraph.New(n)    // ⊤: the single empty edge
	top.AddEdge(bitset.New(n))
	single := hypergraph.MustFromEdges(n, [][]int{{0, 1, 2, 3}})
	singletons := hypergraph.MustFromEdges(n, [][]int{{0}, {1}, {2}, {3}})

	checkInstance(t, "bottom/top", bottom, top, true)
	checkInstance(t, "top/bottom", top, bottom, true)
	checkInstance(t, "bottom/bottom", bottom, bottom, false)
	checkInstance(t, "top/top", top, top, false)
	checkInstance(t, "bottom/nonconstant", bottom, single, false)
	checkInstance(t, "full-edge/singletons", single, singletons, true)
	checkInstance(t, "singletons/full-edge", singletons, single, true)
}

func TestConformanceRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20260726))
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	for i := 0; i < rounds; i++ {
		n := 4 + r.Intn(5)
		m := 3 + r.Intn(4)
		g := gen.Random(r, n, m, 0.3+0.2*r.Float64())
		if g.M() == 0 || g.HasEmptyEdge() {
			continue
		}
		h := transversal.AsHypergraph(g)

		checkInstance(t, fmt.Sprintf("rand-%d-dual", i), g, h, true)
		if h.M() >= 2 {
			checkInstance(t, fmt.Sprintf("rand-%d-dropped", i),
				g, gen.DropEdge(h, r.Intn(h.M())), false)
		}
		// Self-dualized pair: dual iff the base pair is.
		sd := gen.SelfDualize(g, h)
		checkInstance(t, fmt.Sprintf("rand-%d-selfdual", i), sd, sd, true)
		if h.M() >= 2 {
			sdBad := gen.SelfDualize(g, gen.DropEdge(h, r.Intn(h.M())))
			checkInstance(t, fmt.Sprintf("rand-%d-selfdual-broken", i), sdBad, sdBad, false)
		}
	}
}

// TestConformancePreconditionReasons drives instances that fail each
// precondition and asserts every engine classifies them identically (they
// share the precheck, but the agreement is part of the layer's contract).
func TestConformancePreconditionReasons(t *testing.T) {
	ctx := context.Background()
	g := gen.Matching(2)
	cases := []struct {
		name   string
		h      *hypergraph.Hypergraph
		reason core.Reason
	}{
		{"not-cross-intersecting", hypergraph.MustFromEdges(4, [][]int{{0, 1}}), core.ReasonNotCrossIntersecting},
		{"h-edge-not-minimal", hypergraph.MustFromEdges(4, [][]int{{0, 2}, {0, 1, 3}}), core.ReasonHEdgeNotMinimal},
		{"constant-mismatch", hypergraph.New(4), core.ReasonConstantMismatch},
	}
	for _, tc := range cases {
		for _, e := range allEngines(t) {
			res, err := e.Decide(ctx, g, tc.h)
			if err != nil {
				t.Fatalf("%s: engine %s: %v", tc.name, e.Name(), err)
			}
			if res.Dual || res.Reason != tc.reason {
				t.Errorf("%s: engine %s: (dual=%v, reason=%v), want reason %v",
					tc.name, e.Name(), res.Dual, res.Reason, tc.reason)
			}
		}
	}
}

// TestCheckVerdictAcceptsEngineVerdicts: core.CheckVerdict, which the
// serving pipeline runs on every cache hit and peer fill, rejects no verdict
// an engine computes — stateless or on a session, on both orientations of
// seeded random dual and dropped-edge pairs, so fail paths of swapped
// decisions from the three tree-walking engines are among them.
func TestCheckVerdictAcceptsEngineVerdicts(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(20261021))
	var pairs [][2]*hypergraph.Hypergraph
	for _, p := range gen.Families(5) {
		pairs = append(pairs, [2]*hypergraph.Hypergraph{p.G, p.H}, [2]*hypergraph.Hypergraph{p.H, p.G})
	}
	for i := 0; i < 60; i++ {
		g := gen.Random(r, 6+r.Intn(8), 4+r.Intn(10), 0.2+0.3*r.Float64())
		if g.M() == 0 || g.HasEmptyEdge() {
			continue
		}
		h := transversal.AsHypergraph(g)
		pairs = append(pairs, [2]*hypergraph.Hypergraph{g, h}, [2]*hypergraph.Hypergraph{h, g})
		if h.M() >= 2 {
			d := gen.DropEdge(h, r.Intn(h.M()))
			pairs = append(pairs, [2]*hypergraph.Hypergraph{g, d}, [2]*hypergraph.Hypergraph{d, g})
		}
	}
	paths := map[string]int{}
	deepest := 0
	for _, e := range allEngines(t) {
		sess := engine.NewSession(e)
		for i, p := range pairs {
			g, h := p[0], p[1]
			for _, stateful := range []bool{false, true} {
				decide := e.Decide
				if stateful {
					decide = sess.Decide
				}
				res, err := decide(ctx, g, h)
				if err != nil {
					t.Fatalf("pair %d: %s: %v", i, e.Name(), err)
				}
				if err := core.CheckVerdict(g, h, res); err != nil {
					t.Errorf("pair %d: %s (session %v): %v", i, e.Name(), stateful, err)
				}
				if len(res.FailPath) > 0 && res.Swapped {
					paths[e.Name()]++
				}
				deepest = max(deepest, len(res.FailPath))
			}
		}
	}
	for _, name := range []string{"core", "core-parallel", "logspace"} {
		if paths[name] == 0 {
			t.Errorf("%s produced no fail path on a swapped pair", name)
		}
	}
	if deepest < 2 {
		t.Errorf("deepest fail path has %d entries; the set exercises no depth bound", deepest)
	}
}
