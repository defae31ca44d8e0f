package dualspace

import (
	"context"
	"errors"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/itemsets"
	"dualspace/internal/transversal"
)

func TestFacadeDuality(t *testing.T) {
	g, err := HypergraphFromEdges(4, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := HypergraphFromEdges(4, [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dual, err := IsDual(g, h)
	if err != nil || !dual {
		t.Fatalf("IsDual = %v, %v", dual, err)
	}
	res, err := Explain(g, h)
	if err != nil || !res.Dual || res.Reason != ReasonDual {
		t.Fatalf("Explain = %v, %v", res, err)
	}
}

func TestFacadeWitnessFlow(t *testing.T) {
	g, _ := HypergraphFromEdges(4, [][]int{{0, 1}, {2, 3}})
	partial, _ := HypergraphFromEdges(4, [][]int{{0, 2}, {0, 3}, {1, 2}})
	w, ok, err := NewTransversal(g, partial)
	if err != nil || !ok {
		t.Fatalf("NewTransversal: ok=%v err=%v", ok, err)
	}
	m := MinimalizeTransversal(g, w)
	if !m.Equal(NewSet(4, 1, 3)) {
		t.Fatalf("minimalized witness = %v, want {1 3}", m)
	}
}

func TestFacadeTransversals(t *testing.T) {
	g, _ := HypergraphFromEdges(4, [][]int{{0, 1}, {2, 3}})
	tr := MinimalTransversals(g)
	if tr.M() != 4 {
		t.Fatalf("tr count = %d", tr.M())
	}
	if !MinimalTransversalsBerge(g).EqualAsFamily(tr) {
		t.Fatal("Berge disagrees with DFS")
	}
	count := 0
	if err := EnumerateMinimalTransversals(context.Background(), g, func(Set) (bool, error) { count++; return count < 2, nil }); err != nil {
		t.Fatalf("early stop returned error: %v", err)
	}
	if count != 2 {
		t.Fatalf("early stop count = %d", count)
	}
	wantErr := errors.New("downstream broke")
	if err := EnumerateMinimalTransversals(context.Background(), g, func(Set) (bool, error) { return false, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("yield error not surfaced: %v", err)
	}
	selfDual, err := IsSelfDual(MustHypergraph(3, [][]int{{0, 1}, {1, 2}, {0, 2}}))
	if err != nil || !selfDual {
		t.Fatal("triangle should be self-dual")
	}
}

// MustHypergraph is a test helper.
func MustHypergraph(n int, edges [][]int) *Hypergraph {
	h, err := HypergraphFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return h
}

func TestFacadeEngines(t *testing.T) {
	g := MustHypergraph(4, [][]int{{0, 1}, {2, 3}})
	h := MustHypergraph(4, [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	ctx := context.Background()
	for _, name := range EngineNames() {
		eng, err := EngineByName(name)
		if err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
		res, err := ExplainWith(ctx, g, h, Options{Engine: eng})
		if err != nil || !res.Dual {
			t.Errorf("engine %s: %v, %v", name, res, err)
		}
	}
	if _, err := EngineByName("nope"); err == nil {
		t.Error("unknown engine name accepted")
	}
	// A session reuses scratch across calls and still answers correctly.
	sess := NewEngineSession(nil)
	for i := 0; i < 3; i++ {
		res, err := sess.Decide(ctx, g, h)
		if err != nil || !res.Dual {
			t.Fatalf("session decide %d: %v, %v", i, res, err)
		}
	}
}

func TestFacadeFK(t *testing.T) {
	g := MustHypergraph(2, [][]int{{0, 1}})
	h := MustHypergraph(2, [][]int{{0}, {1}})
	for _, f := range []func(*Hypergraph, *Hypergraph) (*FKResult, error){FKDecideA, FKDecideB} {
		res, err := f(g, h)
		if err != nil || !res.Dual {
			t.Fatalf("FK verdict: %v, %v", res, err)
		}
	}
}

func TestFacadeDNF(t *testing.T) {
	f, err := ParseDNF("a b + c")
	if err != nil {
		t.Fatal(err)
	}
	d := DualDNF(f)
	dual, err := AreDualDNF(f, d)
	if err != nil || !dual {
		t.Fatalf("AreDualDNF = %v, %v", dual, err)
	}
}

func TestFacadeLogspace(t *testing.T) {
	g := MustHypergraph(4, [][]int{{0, 1}, {2, 3}})
	partial := MustHypergraph(4, [][]int{{0, 2}, {0, 3}, {1, 2}})
	meter := NewSpaceMeter()
	pi, w, found, err := FailCertificate(g, partial, ModeStrict, meter)
	if err != nil || !found {
		t.Fatalf("FailCertificate: found=%v err=%v", found, err)
	}
	if meter.Peak() == 0 || meter.Live() != 0 {
		t.Fatalf("meter: %v", meter)
	}
	if !g.IsNewTransversal(w, partial) {
		t.Fatalf("invalid witness %v", w)
	}
	ok, attr, err := VerifyCertificate(g, partial, pi, ModeReplay, nil)
	if err != nil || !ok {
		t.Fatalf("VerifyCertificate: ok=%v err=%v", ok, err)
	}
	if !attr.T.Equal(w) {
		t.Fatal("certificate witness mismatch")
	}
	a, ok, err := PathNode(g, partial, pi, ModePipelined, nil)
	if err != nil || !ok || a.Mark.String() != "fail" {
		t.Fatalf("PathNode: %v ok=%v err=%v", a, ok, err)
	}
}

func TestFacadeMining(t *testing.T) {
	d := NewDataset(3)
	d.AddRow(0, 1)
	d.AddRow(0, 1)
	d.AddRow(2)
	b, err := ComputeBorders(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxFrequent.M() == 0 {
		t.Fatal("no maximal frequent sets found")
	}
	idRes, err := IdentifyBorders(d, 1, b.MinInfrequent, b.MaxFrequent)
	if err != nil || !idRes.Complete {
		t.Fatalf("IdentifyBorders: %v, %v", idRes, err)
	}
}

func TestFacadeKeys(t *testing.T) {
	r, err := NewRelation([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddRow("1", "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRow("2", "x"); err != nil {
		t.Fatal(err)
	}
	ks := MinimalKeys(r)
	if ks.M() != 1 {
		t.Fatalf("keys: %v", ks)
	}
	res, err := AdditionalKey(r, NewHypergraph(2))
	if err != nil || res.Complete {
		t.Fatalf("AdditionalKey: %v, %v", res, err)
	}
}

func TestFacadeCoteries(t *testing.T) {
	h := MustHypergraph(3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	c, err := NewCoterie(h)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := IsNonDominated(c)
	if err != nil || !nd {
		t.Fatalf("majority coterie: %v, %v", nd, err)
	}
}

func TestFacadeParallel(t *testing.T) {
	g := MustHypergraph(4, [][]int{{0, 1}, {2, 3}})
	h := MustHypergraph(4, [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	res, err := ExplainWith(context.Background(), g, h, Options{Engine: NewParallelEngine(2)})
	if err != nil || !res.Dual {
		t.Fatalf("parallel engine: %v, %v", res, err)
	}
}

func TestFacadeStructure(t *testing.T) {
	triangle := MustHypergraph(3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	if IsAcyclic(triangle) {
		t.Error("triangle reported acyclic")
	}
	if got := Degeneracy(triangle); got != 2 {
		t.Errorf("Degeneracy = %d, want 2", got)
	}
	star := MustHypergraph(4, [][]int{{0, 1}, {0, 2}, {0, 3}})
	if !IsAcyclic(star) {
		t.Error("star reported cyclic")
	}
}

func TestFacadeArmstrong(t *testing.T) {
	k := MustHypergraph(3, [][]int{{0}, {1, 2}})
	rel, err := ArmstrongRelation(k, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if !MinimalKeys(rel).EqualAsFamily(k) {
		t.Error("Armstrong relation keys do not round-trip")
	}
}

// TestEntryPointsHonourCancelledContext: every ctx-taking entry point, given
// an already-cancelled ctx on an input that reaches a duality check or an
// enumeration node, returns context.Canceled instead of an answer. The
// duality pair is one the precheck alone decides (its edges do not
// intersect), so a decision that runs the precheck before its first ctx
// poll answers it with a nil error.
func TestEntryPointsHonourCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := MustHypergraph(3, [][]int{{0, 1}})
	h := MustHypergraph(3, [][]int{{2}})

	d := NewDataset(3)
	d.AddRow(0, 1)
	d.AddRow(0, 1)
	d.AddRow(2)
	rel, err := NewRelation([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{{"1", "x"}, {"2", "x"}, {"2", "y"}} {
		if err := rel.AddRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	star, err := NewCoterie(MustHypergraph(3, [][]int{{0, 1}, {0, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	yield := func(Set) (bool, error) { return true, nil }

	cases := map[string]func() error{
		"EnumerateMinimalTransversals": func() error { return EnumerateMinimalTransversals(ctx, g, yield) },
		"itemsets.ComputeBordersStreamWith": func() error {
			_, err := itemsets.ComputeBordersStreamWith(ctx, d, 1, engine.NewSession(nil), nil)
			return err
		},
		"itemsets.IdentifyWith": func() error {
			_, err := itemsets.IdentifyWith(ctx, d, 1, NewHypergraph(3), MustHypergraph(3, [][]int{{0, 1}}), engine.Default())
			return err
		},
		"keys.AdditionalKeyWith": func() error {
			_, err := rel.AdditionalKeyWith(ctx, MustHypergraph(2, [][]int{{0, 1}}), engine.NewSession(nil))
			return err
		},
		"keys.EnumerateKeysIncrementallyWith": func() error {
			_, _, err := rel.EnumerateKeysIncrementallyWith(ctx, engine.NewSession(nil))
			return err
		},
		"coterie.IsNonDominatedWith": func() error {
			_, err := star.IsNonDominatedWith(ctx, engine.Default())
			return err
		},
		"coterie.FindDominatingWith": func() error {
			_, _, err := star.FindDominatingWith(ctx, engine.Default())
			return err
		},
		"transversal.EnumerateContext": func() error { return transversal.EnumerateContext(ctx, g, yield) },
		"transversal.CountContext": func() error {
			_, err := transversal.CountContext(ctx, g)
			return err
		},
		"core.Decider.DecideContext": func() error {
			_, err := core.NewDecider().DecideContext(ctx, g, h)
			return err
		},
		"core.Decider.DecideParallel": func() error {
			_, err := core.NewDecider().DecideParallel(ctx, g, h, 2)
			return err
		},
		"core.Decider.TrSubsetContext": func() error {
			_, err := core.NewDecider().TrSubsetContext(ctx, g, h)
			return err
		},
		"core.Decider.NewTransversal": func() error {
			_, _, err := core.NewDecider().NewTransversal(ctx, g, h)
			return err
		},
	}
	for _, name := range EngineNames() {
		eng, err := EngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases["ExplainWith/"+name] = func() error {
			_, err := ExplainWith(ctx, g, h, Options{Engine: eng})
			return err
		}
		cases["EngineSession/"+name] = func() error {
			_, err := NewEngineSession(eng).Decide(ctx, g, h)
			return err
		}
	}
	for name, call := range cases {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}
