package engine_test

import (
	"context"
	"testing"

	"dualspace/internal/engine"
	"dualspace/internal/gen"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
	"dualspace/internal/transversal"
)

func mustEngine(t *testing.T, name string) engine.Engine {
	t.Helper()
	e, err := engine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRegistry(t *testing.T) {
	for _, name := range engine.Names() {
		e := mustEngine(t, name)
		if e.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, e.Name())
		}
		// Engines compare with == (a non-comparable dynamic type panics).
		_ = e == mustEngine(t, name)
	}
	if mustEngine(t, "core") != mustEngine(t, "core") {
		t.Error("the core engine resolved to two different values")
	}
	if def, err := engine.ByName(""); err != nil || def.Name() != "portfolio" {
		t.Errorf("empty name resolved to (%v, %v), want the portfolio", def, err)
	}
	if _, err := engine.ByName("quantum"); err == nil {
		t.Error("unknown engine name did not error")
	}
	caps := mustEngine(t, "core").Caps()
	if !caps.FailPath || caps.Parallel {
		t.Errorf("core caps = %+v", caps)
	}
	if !mustEngine(t, "core-parallel").Caps().Parallel {
		t.Error("core-parallel not flagged Parallel")
	}
}

// star returns the α-acyclic star {{0,i}} with m rays over m+1 vertices.
func star(m int) *hypergraph.Hypergraph {
	h := hypergraph.New(m + 1)
	for i := 1; i <= m; i++ {
		h.AddEdgeElems(0, i)
	}
	return h
}

func TestPortfolioSelect(t *testing.T) {
	// Pin the worker bound so the selection policy under test does not
	// depend on the host's GOMAXPROCS (a single-slot pool never goes
	// parallel; see the dedicated case below).
	p := engine.NewPortfolio(engine.PortfolioConfig{Workers: 4})

	// A two-edge side dispatches to FK-B regardless of the other side.
	if sel, f := p.Select(gen.Matching(2), gen.MatchingDual(2)); sel.Name() != "fk-b" || f.MinSide != 2 {
		t.Errorf("small side: selected %s (features %+v)", sel.Name(), f)
	}

	// Mid-size products stay on the serial walker.
	if sel, f := p.Select(gen.Matching(5), gen.MatchingDual(5)); sel.Name() != "core" {
		t.Errorf("mid size: selected %s (features %+v)", sel.Name(), f)
	}

	// Large non-acyclic products go parallel: the 9-majority (C(9,5) = 126
	// edges, degeneracy > 2) against itself crosses the product threshold.
	big := gen.Majority(9)
	if sel, f := p.Select(big, big); sel.Name() != "core-parallel" || !f.Structural {
		t.Errorf("large size: selected %s (features %+v)", sel.Name(), f)
	}

	// Large but α-acyclic first input stays serial (paper §6's easy class).
	// Selection only reads edge counts and structure, so any fat second side
	// works.
	if sel, f := p.Select(star(60), star(60)); sel.Name() != "core" || !f.Acyclic {
		t.Errorf("large acyclic: selected %s (features %+v)", sel.Name(), f)
	}

	// A single-slot pool degenerates to serial search with spawn overhead:
	// even the large non-acyclic instance stays on the (memoizable) serial
	// walker.
	p1 := engine.NewPortfolio(engine.PortfolioConfig{Workers: 1})
	if sel, _ := p1.Select(big, big); sel.Name() != "core" {
		t.Errorf("single worker: selected %s, want core", sel.Name())
	}

	// Mid-size products between the multi-worker and single-worker
	// thresholds (majority-7: 35×35 = 1225) go parallel when extra workers
	// exist — the work-stealing pool's fixed overhead is small — but stay
	// serial on a single-slot pool.
	mid := gen.Majority(7)
	if sel, f := p.Select(mid, mid); sel.Name() != "core-parallel" {
		t.Errorf("mid size, 4 workers: selected %s (features %+v)", sel.Name(), f)
	}
	if sel, _ := p1.Select(mid, mid); sel.Name() != "core" {
		t.Errorf("mid size, 1 worker: selected %s, want core", sel.Name())
	}
}

func TestSessionRecorderReachesParallel(t *testing.T) {
	// A session's stage recorder must flow through to the parallel engine,
	// whose work-stealing pool runs on the pinned Decider's indexes; the
	// walk stage (and on multi-worker runs possibly walk_steals) lands in
	// the same recorder serial decisions use.
	s := engine.NewSession(engine.NewCoreParallel(4))
	rec := s.Recorder()
	m := gen.Majority(7)
	res, err := s.Decide(context.Background(), m, m)
	if err != nil || !res.Dual {
		t.Fatalf("decide: %v %v", res, err)
	}
	if rec.Get(obs.StageWalk) <= 0 {
		t.Errorf("parallel decision recorded no walk time: %v", rec.Timings())
	}
	if rec.Get(obs.StageIndexSync) <= 0 {
		t.Errorf("parallel decision recorded no index time: %v", rec.Timings())
	}
	if rec.Get(obs.StageWalkSteals) < 0 {
		t.Errorf("negative steal time: %v", rec.Timings())
	}
}

// TestSessionAllocFree is the acceptance guard for the session layer: after
// warm-up, repeated Decide calls through one Session allocate nothing — on
// dual verdicts and on non-dual (witness-carrying) verdicts alike, and under
// the portfolio as well as the bare core engine.
func TestSessionAllocFree(t *testing.T) {
	ctx := context.Background()
	gD, hD := gen.Matching(5), gen.MatchingDual(5)
	hN := gen.DropEdge(hD, 11)

	for _, name := range []string{"core", "portfolio"} {
		s := engine.NewSession(mustEngine(t, name))
		// Warm up both verdict paths (sizes the scratch, frames, buffers).
		for i := 0; i < 2; i++ {
			if res, err := s.Decide(ctx, gD, hD); err != nil || !res.Dual {
				t.Fatalf("%s warmup dual: %v, %v", name, res, err)
			}
			if res, err := s.Decide(ctx, gD, hN); err != nil || res.Dual {
				t.Fatalf("%s warmup non-dual: %v, %v", name, res, err)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			res, err := s.Decide(ctx, gD, hD)
			if err != nil || !res.Dual {
				t.Fatal("wrong dual verdict")
			}
		}); allocs != 0 {
			t.Errorf("%s session: dual Decide allocates %.1f/op, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			res, err := s.Decide(ctx, gD, hN)
			if err != nil || res.Dual || res.Witness.IsEmpty() {
				t.Fatal("wrong non-dual verdict")
			}
		}); allocs != 0 {
			t.Errorf("%s session: non-dual Decide allocates %.1f/op, want 0", name, allocs)
		}
		// With the session's stage recorder attached — the serving
		// configuration — the steady state must stay allocation-free: the
		// recorder adds clock reads per decision, never allocations.
		rec := s.Recorder()
		if allocs := testing.AllocsPerRun(20, func() {
			rec.Reset()
			res, err := s.Decide(ctx, gD, hD)
			if err != nil || !res.Dual {
				t.Fatal("wrong dual verdict")
			}
		}); allocs != 0 {
			t.Errorf("%s session: recorded Decide allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestSessionResultReuse pins the documented aliasing contract: the result
// is valid until the next call, and Clone detaches it.
func TestSessionResultReuse(t *testing.T) {
	ctx := context.Background()
	s := engine.NewSession(mustEngine(t, "core"))
	g, h := gen.Matching(4), gen.MatchingDual(4)
	first, err := s.Decide(ctx, g, gen.DropEdge(h, 3))
	if err != nil || first.Dual {
		t.Fatalf("first decide: %v, %v", first, err)
	}
	kept := first.Clone()
	if _, err := s.Decide(ctx, g, h); err != nil {
		t.Fatal(err)
	}
	if kept.Dual || !g.IsNewTransversal(kept.Witness, gen.DropEdge(h, 3)) {
		t.Error("cloned result corrupted by a subsequent session call")
	}
}

func TestSessionDecideWithOverride(t *testing.T) {
	ctx := context.Background()
	s := engine.NewSession(mustEngine(t, "portfolio"))
	g, h := gen.Matching(3), gen.MatchingDual(3)
	for _, name := range []string{"core", "core-parallel", "fk-a", "fk-b", "logspace"} {
		res, err := s.DecideWith(ctx, mustEngine(t, name), g, h)
		if err != nil || !res.Dual {
			t.Errorf("override %s: %v, %v", name, res, err)
		}
	}
}

func TestTransversalOracle(t *testing.T) {
	ctx := context.Background()
	for _, h := range []*hypergraph.Hypergraph{
		gen.Matching(3),
		gen.Majority(5),
		star(4),
		hypergraph.New(3),                        // tr(∅) = {∅}
		hypergraph.MustFromEdges(3, [][]int{{}}), // tr({∅}) = ∅
		hypergraph.MustFromEdges(1, [][]int{{0}}), // tr({{0}}) = {{0}}
	} {
		want := transversal.Berge(h)
		for _, oracle := range []transversal.WitnessOracle{
			engine.NewSession(mustEngine(t, "portfolio")).NewTransversalOracle(ctx),
			engine.NewSession(mustEngine(t, "core")).NewTransversalOracle(ctx),
		} {
			got, err := transversal.ViaOracle(h, oracle)
			if err != nil {
				t.Fatalf("%v: %v", h, err)
			}
			if !got.Canonical().EqualAsFamily(want) {
				t.Errorf("oracle tr(%v) = %v, want %v", h, got.Canonical(), want)
			}
		}
	}
}
