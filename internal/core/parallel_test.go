package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/gen"
	"dualspace/internal/transversal"
)

func TestParallelAgreesWithSerial(t *testing.T) {
	for _, p := range gen.Families(17) {
		serial, err := core.Decide(p.G, p.H)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, workers := range []int{0, 1, 4} {
			par, err := core.DecideParallel(p.G, p.H, workers)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if par.Dual != serial.Dual || par.Reason != serial.Reason {
				t.Fatalf("%s (workers=%d): parallel %v/%v vs serial %v/%v",
					p.Name, workers, par.Dual, par.Reason, serial.Dual, serial.Reason)
			}
			if !par.Dual && par.Reason == core.ReasonNewTransversal {
				if !p.G.IsNewTransversal(par.Witness, p.H) {
					t.Fatalf("%s: invalid parallel witness %v", p.Name, par.Witness)
				}
			}
		}
	}
}

func TestParallelRandom(t *testing.T) {
	r := rand.New(rand.NewSource(157))
	for trial := 0; trial < 40; trial++ {
		g := gen.Random(r, 3+r.Intn(6), 1+r.Intn(5), 0.35)
		if g.HasEmptyEdge() || g.M() == 0 {
			continue
		}
		h := transversal.AsHypergraph(g)
		if h.M() == 0 {
			continue
		}
		if h.M() >= 2 && r.Intn(2) == 0 {
			h = gen.DropEdge(h, r.Intn(h.M()))
		}
		serial, err := core.Decide(g, h)
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.DecideParallel(g, h, 8)
		if err != nil {
			t.Fatal(err)
		}
		if par.Dual != serial.Dual {
			t.Fatalf("trial %d: parallel %v vs serial %v", trial, par.Dual, serial.Dual)
		}
		if !par.Dual && par.Reason == core.ReasonNewTransversal && !g.IsNewTransversal(par.Witness, h) {
			t.Fatalf("trial %d: invalid witness", trial)
		}
	}
}

func TestParallelStatsSaneOnDual(t *testing.T) {
	// On a dual instance nothing is cancelled, so the parallel search must
	// visit exactly the serial node count.
	g, h := gen.Matching(4), gen.MatchingDual(4)
	serial, err := core.TrSubset(h, g) // paper orientation: smaller H role
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.DecideParallel(g, h, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Dual {
		t.Fatal("wrong verdict")
	}
	if par.Stats.Nodes != serial.Stats.Nodes {
		t.Errorf("parallel visited %d nodes, serial %d", par.Stats.Nodes, serial.Stats.Nodes)
	}
	if par.Stats.MaxDepth != serial.Stats.MaxDepth {
		t.Errorf("depth %d vs %d", par.Stats.MaxDepth, serial.Stats.MaxDepth)
	}
}

func TestParallelConstantsAndErrors(t *testing.T) {
	g := gen.Matching(2)
	wrong := gen.Matching(3)
	if _, err := core.DecideParallel(g, wrong, 2); err == nil {
		t.Error("universe mismatch accepted")
	}
	res, err := core.DecideParallel(g, gen.MatchingDual(2), 2)
	if err != nil || !res.Dual {
		t.Fatalf("dual pair: %v %v", res, err)
	}
}

func TestParallelFairnessOnSkewedTree(t *testing.T) {
	// Majority-9 yields a deeply skewed decomposition tree: a goroutine-per-
	// subtree model with a shallow spawn cutoff serializes behind the one
	// deep branch. The work-stealing pool must instead spread leaf work
	// across workers — steal-from-the-bottom hands thieves the shallowest
	// (largest) pending subtrees. Force GOMAXPROCS=4 so the workers truly
	// interleave even on a single-CPU host (four timesharing threads);
	// scheduling can still occasionally let one worker race through the
	// whole tree, so accept the first attempt where stealing engaged.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := gen.Majority(9)
	var last *core.Result
	for attempt := 0; attempt < 5; attempt++ {
		res, err := core.DecideParallel(m, m, 4)
		if err != nil || !res.Dual {
			t.Fatalf("attempt %d: %v %v", attempt, res, err)
		}
		if res.Stats.Spawns == 0 {
			t.Fatalf("attempt %d: internal nodes present but no frames published", attempt)
		}
		last = res
		if res.Stats.LeafWorkers >= 2 && res.Stats.Steals >= 1 {
			t.Logf("attempt %d: nodes=%d spawns=%d steals=%d leafWorkers=%d",
				attempt, res.Stats.Nodes, res.Stats.Spawns, res.Stats.Steals, res.Stats.LeafWorkers)
			return
		}
	}
	t.Fatalf("no attempt spread leaves over >1 worker: last stats %+v", last.Stats)
}

func TestParallelConcurrentDecides(t *testing.T) {
	// Regression for a pooled-state lifetime bug: the old implementation
	// returned the root walk state to its pool before the spawned subtree
	// goroutines finished, so two concurrent decisions could briefly share
	// one scratch. The work-stealing pool hands each worker its state for
	// the worker's whole run; concurrent decisions on distinct instances
	// (distinct universes, forcing pooled storage refits) must stay
	// independent. Run under -race this is the data-race oracle.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for trial := 0; trial < 8; trial++ {
				k := 3 + (i+trial)%3 // matching-3/4/5: three distinct universes
				res, err := core.DecideParallel(gen.Matching(k), gen.MatchingDual(k), 3)
				if err != nil || !res.Dual {
					t.Errorf("goroutine %d trial %d: %v %v", i, trial, res, err)
					return
				}
				m := gen.Majority(5)
				res, err = core.DecideParallel(m, gen.DropEdge(transversal.AsHypergraph(m), trial%3), 3)
				if err != nil || res.Dual {
					t.Errorf("goroutine %d trial %d: dropped-edge pair judged dual (%v %v)", i, trial, res, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestParallelSteadyStateAllocBudget(t *testing.T) {
	// The search object, frames, and worker states are pooled, so a warm
	// parallel decision should allocate only its per-run fixtures: three
	// channels, the worker goroutines, and — on the stateless call — the
	// one-shot Decider's indexes and the Result. A literal zero is not
	// achievable (channels are per-run by design — a closed channel cannot
	// be reused), so this guards small constant budgets instead, independent
	// of tree size (majority-7 walks ~2k nodes): one for the stateless
	// core.DecideParallel and a tighter one for a pinned Decider, which
	// keeps the indexes and witness storage across calls.
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; budget holds only on plain builds")
	}
	m := gen.Majority(7)
	if _, err := core.DecideParallel(m, m, 4); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := core.DecideParallel(m, m, 4)
		if err != nil || !res.Dual {
			t.Fatal("wrong verdict")
		}
	})
	const budget = 48
	if allocs > budget {
		t.Errorf("steady-state parallel decide allocated %.1f/op, budget %d", allocs, budget)
	}

	d := core.NewDecider()
	ctx := context.Background()
	if _, err := d.DecideParallel(ctx, m, m, 4); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		res, err := d.DecideParallel(ctx, m, m, 4)
		if err != nil || !res.Dual {
			t.Fatal("wrong verdict")
		}
	})
	const pinnedBudget = 16
	if allocs > pinnedBudget {
		t.Errorf("steady-state pinned parallel decide allocated %.1f/op, budget %d", allocs, pinnedBudget)
	}
}

func BenchmarkDecideSerialMajority7(b *testing.B) {
	m := gen.Majority(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Decide(m, m)
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkDecideParallelMajority7(b *testing.B) {
	m := gen.Majority(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.DecideParallel(m, m, 0)
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}
