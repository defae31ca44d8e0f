package core_test

import (
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/hypergraph"
)

// TestCheckVerdict is the one table of verdict shapes: the range checks the
// peer wire and the verdict log used to copy, and the index, witness and
// fail-path bounds that neither had. The instance is the 2-matching
// against its dual: |V| = 4, |G| = 2, |H| = 4, so a fail path has at most
// ⌊log₂ 2⌋ = 1 entry, in [1, 16].
func TestCheckVerdict(t *testing.T) {
	g := hypergraph.MustFromEdges(4, [][]int{{0, 1}, {2, 3}})
	h := hypergraph.MustFromEdges(4, [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	set := func(n int, elems ...int) bitset.Set { return bitset.FromSlice(n, elems) }
	// verdict returns a result with every index at its -1 sentinel.
	verdict := func(dual bool, reason core.Reason) core.Result {
		return core.Result{Dual: dual, Reason: reason, GEdge: -1, HEdge: -1, RedundantVertex: -1}
	}
	with := func(r core.Result, edit func(*core.Result)) core.Result { edit(&r); return r }
	newTr := with(verdict(false, core.ReasonNewTransversal), func(r *core.Result) {
		r.Witness, r.CoWitness, r.FailPath, r.Swapped = set(4, 0, 2), set(4, 1, 3), []int{3}, true
	})
	cases := []struct {
		name string
		res  core.Result
		ok   bool
	}{
		{"dual", verdict(true, core.ReasonDual), true},
		{"constant mismatch", verdict(false, core.ReasonConstantMismatch), true},
		{"not cross-intersecting", with(verdict(false, core.ReasonNotCrossIntersecting), func(r *core.Result) { r.GEdge, r.HEdge = 1, 3 }), true},
		{"h-edge not minimal", with(verdict(false, core.ReasonHEdgeNotMinimal), func(r *core.Result) { r.HEdge, r.RedundantVertex = 0, 3 }), true},
		{"g-edge not minimal", with(verdict(false, core.ReasonGEdgeNotMinimal), func(r *core.Result) { r.GEdge, r.RedundantVertex = 1, 0 }), true},
		{"new transversal", newTr, true},
		{"new transversal, largest label", with(newTr, func(r *core.Result) { r.FailPath = []int{16} }), true},
		{"new transversal, empty co-witness", with(newTr, func(r *core.Result) { r.CoWitness = bitset.Set{} }), true},

		{"reason too large", verdict(false, 99), false},
		{"reason negative", verdict(false, -1), false},
		{"dual with a non-dual reason", verdict(true, core.ReasonNewTransversal), false},
		{"non-dual with the dual reason", verdict(false, core.ReasonDual), false},
		{"bad sentinel", with(verdict(true, core.ReasonDual), func(r *core.Result) { r.GEdge = -7 }), false},
		{"index on a reason that names none", with(verdict(true, core.ReasonDual), func(r *core.Result) { r.GEdge = 0 }), false},
		{"required index missing", with(verdict(false, core.ReasonNotCrossIntersecting), func(r *core.Result) { r.GEdge = 1 }), false},
		{"g_edge = |G|", with(verdict(false, core.ReasonNotCrossIntersecting), func(r *core.Result) { r.GEdge, r.HEdge = 2, 0 }), false},
		{"h_edge = |H|", with(verdict(false, core.ReasonNotCrossIntersecting), func(r *core.Result) { r.GEdge, r.HEdge = 0, 4 }), false},
		{"g_edge 5, h_edge -7", with(verdict(false, core.ReasonNotCrossIntersecting), func(r *core.Result) { r.GEdge, r.HEdge = 5, -7 }), false},
		{"redundant vertex = |V|", with(verdict(false, core.ReasonHEdgeNotMinimal), func(r *core.Result) { r.HEdge, r.RedundantVertex = 0, 4 }), false},
		{"redundant vertex huge", with(verdict(false, core.ReasonGEdgeNotMinimal), func(r *core.Result) { r.GEdge, r.RedundantVertex = 0, 1<<20 }), false},
		{"redundant vertex below the sentinel", with(verdict(false, core.ReasonGEdgeNotMinimal), func(r *core.Result) { r.GEdge, r.RedundantVertex = 0, -2 }), false},
		{"witness universe mismatch", with(newTr, func(r *core.Result) { r.Witness = set(64, 40) }), false},
		{"co-witness universe mismatch", with(newTr, func(r *core.Result) { r.CoWitness = set(5, 4) }), false},
		{"new transversal without a witness", with(newTr, func(r *core.Result) { r.Witness = bitset.Set{} }), false},
		{"fail path on another reason", with(verdict(false, core.ReasonConstantMismatch), func(r *core.Result) { r.FailPath = []int{1} }), false},
		{"fail path too long", with(newTr, func(r *core.Result) { r.FailPath = []int{1, 1} }), false},
		{"fail-path label 0", with(newTr, func(r *core.Result) { r.FailPath = []int{0} }), false},
		{"fail-path label past |V|·max(|G|,|H|)", with(newTr, func(r *core.Result) { r.FailPath = []int{17} }), false},
	}
	for _, tc := range cases {
		err := core.CheckVerdict(g, h, &tc.res)
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckVerdict = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// A constant instance has no tree, so no fail path fits it.
	bottom, top := hypergraph.New(4), hypergraph.MustFromEdges(4, [][]int{{}})
	if err := core.CheckVerdict(bottom, top, &newTr); err == nil {
		t.Error("fail path accepted on a constant instance")
	}
}

// TestCheckVerdictAllocFree: an accepted verdict costs no allocation, so
// the check can run on every cache hit.
func TestCheckVerdictAllocFree(t *testing.T) {
	g := hypergraph.MustFromEdges(4, [][]int{{0, 1}, {2, 3}})
	h := hypergraph.MustFromEdges(4, [][]int{{0, 2}, {1, 2}, {1, 3}})
	res, err := core.Decide(g, h)
	if err != nil || res.Dual {
		t.Fatalf("Decide: %+v, %v", res, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := core.CheckVerdict(g, h, res); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("CheckVerdict: %v allocs/op, want 0", allocs)
	}
}
