package core_test

import (
	"math"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/hypergraph"
	"dualspace/internal/transversal"
)

func mustDecide(t *testing.T, g, h *hypergraph.Hypergraph) *core.Result {
	t.Helper()
	res, err := core.Decide(g, h)
	if err != nil {
		t.Fatalf("Decide error: %v", err)
	}
	return res
}

func TestConstants(t *testing.T) {
	n := 4
	bot := hypergraph.New(n)                          // ⊥: no edges
	top := hypergraph.MustFromEdges(n, [][]int{{}})   // ⊤: {∅}
	some := hypergraph.MustFromEdges(n, [][]int{{0}}) // a variable

	if !mustDecide(t, bot, top).Dual || !mustDecide(t, top, bot).Dual {
		t.Error("⊥/⊤ should be dual")
	}
	for _, pair := range [][2]*hypergraph.Hypergraph{
		{bot, bot}, {top, top}, {bot, some}, {some, top}, {top, some}, {some, bot},
	} {
		res := mustDecide(t, pair[0], pair[1])
		if res.Dual {
			t.Errorf("constant pair wrongly dual: %v / %v", pair[0], pair[1])
		}
		if res.Reason != core.ReasonConstantMismatch {
			t.Errorf("reason = %v, want constant mismatch", res.Reason)
		}
	}
}

func TestKnownDualPairs(t *testing.T) {
	cases := []struct {
		name string
		n    int
		g, h [][]int
	}{
		{"single variable", 1, [][]int{{0}}, [][]int{{0}}},
		{"and/or", 2, [][]int{{0, 1}}, [][]int{{0}, {1}}},
		{"matching-2", 4, [][]int{{0, 1}, {2, 3}}, [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}}},
		{"triangle self-dual", 3, [][]int{{0, 1}, {1, 2}, {0, 2}}, [][]int{{0, 1}, {1, 2}, {0, 2}}},
		{"path", 3, [][]int{{0, 1}, {1, 2}}, [][]int{{1}, {0, 2}}},
		{"threshold 2-of-4", 4,
			[][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
			[][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}},
	}
	for _, c := range cases {
		g := hypergraph.MustFromEdges(c.n, c.g)
		h := hypergraph.MustFromEdges(c.n, c.h)
		if res := mustDecide(t, g, h); !res.Dual {
			t.Errorf("%s: not recognized dual: %v", c.name, res)
		}
		// Symmetry.
		if res := mustDecide(t, h, g); !res.Dual {
			t.Errorf("%s (swapped): not recognized dual: %v", c.name, res)
		}
	}
}

func TestPreconditionReasons(t *testing.T) {
	n := 4
	g := hypergraph.MustFromEdges(n, [][]int{{0, 1}, {2, 3}})

	// Cross-intersection violation: {0,1} disjoint from {2,3}.
	h := hypergraph.MustFromEdges(n, [][]int{{0, 1}})
	res := mustDecide(t, g, h)
	if res.Dual || res.Reason != core.ReasonNotCrossIntersecting {
		t.Errorf("want cross-intersection violation, got %v", res)
	}

	// Non-minimal h-edge: {0,2,3} is a transversal but not minimal.
	h2 := hypergraph.MustFromEdges(n, [][]int{{0, 2, 3}})
	res = mustDecide(t, g, h2)
	if res.Dual || res.Reason != core.ReasonHEdgeNotMinimal {
		t.Errorf("want h-minimality violation, got %v", res)
	}
	if res.HEdge != 0 || res.RedundantVertex < 0 {
		t.Errorf("violation details: %+v", res)
	}

	// Non-minimal g-edge: h ⊆ tr(g) holds but a g-edge is a non-minimal
	// transversal of h. A = {{0,1},{2}}, B = {{0,2}}: B's edge is a minimal
	// transversal of A, while A's edge {0,1} has redundant vertex 1 w.r.t. B.
	a := hypergraph.MustFromEdges(3, [][]int{{0, 1}, {2}})
	b := hypergraph.MustFromEdges(3, [][]int{{0, 2}})
	res = mustDecide(t, a, b)
	if res.Dual || res.Reason != core.ReasonGEdgeNotMinimal {
		t.Errorf("want g-minimality violation, got %v", res)
	}
	if res.GEdge != 0 || res.RedundantVertex != 1 {
		t.Errorf("violation details: %+v", res)
	}

	// Incomplete h: missing minimal transversals.
	h3 := hypergraph.MustFromEdges(n, [][]int{{0, 2}, {0, 3}, {1, 2}})
	res = mustDecide(t, g, h3)
	if res.Dual || res.Reason != core.ReasonNewTransversal {
		t.Errorf("want new transversal, got %v", res)
	}
	if !g.IsNewTransversal(res.Witness, h3) {
		t.Errorf("witness %v is not a new transversal", res.Witness)
	}
	// The missing minimal transversal {1,3} must be inside the witness.
	if !bitset.FromSlice(n, []int{1, 3}).SubsetOf(res.Witness) {
		t.Errorf("witness %v does not contain the missing transversal {1,3}", res.Witness)
	}
}

func TestErrorCases(t *testing.T) {
	g := hypergraph.MustFromEdges(3, [][]int{{0, 1}})
	hWrongUniverse := hypergraph.MustFromEdges(4, [][]int{{0, 1}})
	if _, err := core.Decide(g, hWrongUniverse); err == nil {
		t.Error("universe mismatch accepted")
	}
	notSimple := hypergraph.MustFromEdges(3, [][]int{{0}, {0, 1}})
	if _, err := core.Decide(notSimple, g); err == nil {
		t.Error("non-simple g accepted")
	}
	if _, err := core.Decide(g, notSimple); err == nil {
		t.Error("non-simple h accepted")
	}
	if _, err := core.TrSubset(hypergraph.New(3), g); err == nil {
		t.Error("TrSubset accepted constant input")
	}
	disjoint := hypergraph.MustFromEdges(3, [][]int{{2}})
	if _, err := core.TrSubset(g, disjoint); err == nil {
		t.Error("TrSubset accepted non-cross-intersecting pair")
	}
}

func TestAgainstGroundTruth(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 120; i++ {
		n := 2 + r.Intn(7)
		g := randomSimple(r, n, 1+r.Intn(6))
		if g.HasEmptyEdge() {
			continue
		}
		tr := transversal.AsHypergraph(g)

		// Exact dual must be recognized.
		res := mustDecide(t, g, tr)
		if !res.Dual {
			t.Fatalf("g=%v tr=%v: Decide says %v", g, tr, res)
		}

		// Dropping any edge of the dual must be detected with a valid
		// witness containing the dropped transversal... (the witness must
		// witness *some* missing transversal; validate structurally).
		if tr.M() >= 2 {
			drop := r.Intn(tr.M())
			partial := hypergraph.New(n)
			for j := 0; j < tr.M(); j++ {
				if j != drop {
					partial.AddEdge(tr.Edge(j))
				}
			}
			res := mustDecide(t, g, partial)
			if res.Dual {
				t.Fatalf("dropped edge not detected: g=%v partial=%v", g, partial)
			}
			// Decide may legitimately stop at a precondition violation
			// (dropping a transversal can make g-edges non-minimal w.r.t.
			// partial). The tree stage, TrSubset, must always produce a
			// valid witness.
			tres, err := core.TrSubset(g, partial)
			if err != nil {
				t.Fatal(err)
			}
			if tres.Dual {
				t.Fatalf("TrSubset missed the dropped transversal: g=%v partial=%v", g, partial)
			}
			if !g.IsNewTransversal(tres.Witness, partial) {
				t.Fatalf("invalid witness %v for g=%v partial=%v", tres.Witness, g, partial)
			}
			// CoWitness property: complement is a new transversal of
			// partial w.r.t. g.
			if !partial.IsNewTransversal(tres.CoWitness, g) {
				t.Fatalf("invalid co-witness %v", tres.CoWitness)
			}
			// Minimalizing the witness yields a minimal transversal of g
			// that is not in partial.
			m := g.MinimalizeTransversal(tres.Witness)
			if partial.ContainsEdge(m) {
				t.Fatalf("minimalized witness %v already present", m)
			}
		}
	}
}

func TestDepthAndBranchingBounds(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 80; i++ {
		n := 2 + r.Intn(7)
		g := randomSimple(r, n, 1+r.Intn(6))
		if g.HasEmptyEdge() {
			continue
		}
		h := transversal.AsHypergraph(g)
		if h.M() == 0 || g.M() == 0 {
			continue
		}
		a, b := g, h
		if b.M() > a.M() {
			a, b = b, a
		}
		res, err := core.TrSubset(a, b)
		if err != nil {
			t.Fatal(err)
		}
		bound := floorLog2(b.M())
		if res.Stats.MaxDepth > bound {
			t.Fatalf("depth %d exceeds ⌊log₂|H|⌋=%d for |H|=%d (g=%v)", res.Stats.MaxDepth, bound, b.M(), a)
		}
		if res.Stats.MaxChildren > a.N()*a.M()+1 {
			t.Fatalf("branching %d exceeds |V||G|+1=%d", res.Stats.MaxChildren, a.N()*a.M()+1)
		}
	}
}

func floorLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(x))))
}

func TestBuildTreeMatchesDecide(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 40; i++ {
		n := 2 + r.Intn(6)
		g := randomSimple(r, n, 1+r.Intn(5))
		if g.HasEmptyEdge() {
			continue
		}
		h := transversal.AsHypergraph(g)
		if h.M() == 0 {
			continue
		}
		tree, err := core.BuildTree(g, h)
		if err != nil {
			t.Fatal(err)
		}
		done, fail := tree.CountMarks()
		if fail != 0 {
			t.Fatalf("dual instance has %d fail leaves (done=%d): g=%v", fail, done, g)
		}
		// Drop an edge: at least one fail leaf must appear.
		if h.M() >= 2 {
			partial := hypergraph.New(n)
			for j := 1; j < h.M(); j++ {
				partial.AddEdge(h.Edge(j))
			}
			tree2, err := core.BuildTree(g, partial)
			if err != nil {
				t.Fatal(err)
			}
			_, fail2 := tree2.CountMarks()
			if fail2 == 0 {
				t.Fatalf("non-dual instance has no fail leaf: g=%v partial=%v", g, partial)
			}
			// Every fail leaf's witness must be valid.
			tree2.Walk(func(node *core.TreeNode) {
				if node.Info.Mark == core.MarkFail {
					if !g.IsNewTransversal(node.Info.T, partial) {
						t.Fatalf("fail leaf %v has invalid witness %v", node.Label, node.Info.T)
					}
				}
			})
		}
	}
}

func TestClassifyDeterminism(t *testing.T) {
	g := hypergraph.MustFromEdges(6, [][]int{{0, 1}, {2, 3}, {4, 5}})
	h := hypergraph.MustFromEdges(6, [][]int{{0, 2, 4}, {0, 2, 5}, {0, 3, 4}})
	s := bitset.Full(6)
	a := core.Classify(g, h, s)
	b := core.Classify(g, h, s)
	if a.Kind != b.Kind || a.Mark != b.Mark || len(a.Children) != len(b.Children) {
		t.Fatal("Classify not deterministic")
	}
	for i := range a.Children {
		if !a.Children[i].Equal(b.Children[i]) {
			t.Fatal("child order not deterministic")
		}
	}
	// Children must be deduplicated.
	for i := range a.Children {
		for j := i + 1; j < len(a.Children); j++ {
			if a.Children[i].Equal(a.Children[j]) {
				t.Fatal("duplicate children")
			}
		}
	}
}

func TestNewTransversalOracle(t *testing.T) {
	// Enumerate tr(g) through the duality oracle and compare with direct
	// enumeration — the incremental pattern of §1 of the paper.
	oracle := func(g, partial *hypergraph.Hypergraph) (bitset.Set, bool, error) {
		if partial.M() == 0 {
			// Bootstrap: the full vertex set is a transversal; no edges yet
			// to avoid.
			return bitset.Full(g.N()), true, nil
		}
		return core.NewTransversal(g, partial)
	}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 50; i++ {
		n := 2 + r.Intn(7)
		g := randomSimple(r, n, 1+r.Intn(6))
		if g.HasEmptyEdge() {
			continue
		}
		got, err := transversal.ViaOracle(g, oracle)
		if err != nil {
			t.Fatalf("ViaOracle: %v (g=%v)", err, g)
		}
		want := transversal.AsHypergraph(g)
		if !got.EqualAsFamily(want) {
			t.Fatalf("oracle enumeration mismatch: got %v want %v (g=%v)", got, want, g)
		}
	}
}

func TestNewTransversalDegenerateShapes(t *testing.T) {
	// The shapes the tree stage excludes (constant g, empty h, ∅ ∈ h) are
	// answered directly, so no caller has to special-case them first.
	bottom := hypergraph.New(3)
	top := hypergraph.MustFromEdges(3, [][]int{{}})
	g := hypergraph.MustFromEdges(3, [][]int{{0, 1}, {1, 2}})
	h := hypergraph.MustFromEdges(3, [][]int{{0}})
	for _, c := range []struct {
		name   string
		g, h   *hypergraph.Hypergraph
		wantOK bool
	}{
		{"g=⊥ h={{0}}", bottom, h, true}, // tr(⊥) = {∅}, and ∅ ∉ h
		{"g=⊥ h=⊥", bottom, bottom, true},
		{"g=⊥ h=⊤", bottom, top, false},
		{"g=⊤ h={{0}}", top, h, false}, // tr(⊤) = ∅
		{"g=⊤ h=⊥", top, bottom, false},
		{"h=⊥", g, bottom, true},
		{"h=⊤", g, top, false},
	} {
		w, ok, err := core.NewTransversal(c.g, c.h)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.wantOK {
			t.Fatalf("%s: ok = %v, want %v", c.name, ok, c.wantOK)
		}
		if ok && !c.g.IsNewTransversal(w, c.h) {
			t.Fatalf("%s: %v is not a new transversal", c.name, w)
		}
	}
}

func TestSwappedWitnessOrientation(t *testing.T) {
	// Force a swap (|h| > |g|) on a non-dual pair and check witness
	// orientation survives the swap.
	g := hypergraph.MustFromEdges(6, [][]int{{0, 1}, {2, 3}, {4, 5}})
	full := transversal.AsHypergraph(g) // 8 minimal transversals
	partial := hypergraph.New(6)
	for j := 0; j < full.M()-1; j++ {
		partial.AddEdge(full.Edge(j))
	}
	// |partial| = 7 > |g| = 3, so Decide will swap internally.
	res := mustDecide(t, g, partial)
	if res.Dual {
		t.Fatal("should not be dual")
	}
	if !res.Swapped {
		t.Fatal("expected internal swap")
	}
	if !g.IsNewTransversal(res.Witness, partial) {
		t.Fatalf("witness %v not oriented to g", res.Witness)
	}
	if !partial.IsNewTransversal(res.CoWitness, g) {
		t.Fatalf("co-witness %v not oriented to h", res.CoWitness)
	}
}

func randomSimple(r *rand.Rand, n, m int) *hypergraph.Hypergraph {
	raw := hypergraph.New(n)
	for i := 0; i < m; i++ {
		e := bitset.New(n)
		for v := 0; v < n; v++ {
			if r.Intn(3) == 0 {
				e.Add(v)
			}
		}
		if e.IsEmpty() {
			e.Add(r.Intn(n))
		}
		raw.AddEdge(e)
	}
	return raw.Minimize()
}

func BenchmarkDecideMatching(b *testing.B) {
	k := 5
	edges := make([][]int, k)
	for i := range edges {
		edges[i] = []int{2 * i, 2*i + 1}
	}
	g := hypergraph.MustFromEdges(2*k, edges)
	h := transversal.AsHypergraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := core.Decide(g, h); err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}
