package experiments

import (
	"context"
	"fmt"
	"time"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/gen"
	"dualspace/internal/hypergraph"
	"dualspace/internal/keys"
	"dualspace/internal/transversal"
)

// E17Delay measures incremental enumeration delay — the concern behind the
// paper's §1 discussion: IS+ alone cannot be enumerated with (quasi-)
// polynomial delay unless NP collapses, but IS+ ∪ IS− can, with one
// DUAL-equivalent check per output. The experiment enumerates tr(G)
// through the duality oracle (one Boros–Makino run per output) and through
// plain DFS, recording the maximum inter-output delay of each.
func E17Delay() *Table {
	t := &Table{
		ID:      "E17",
		Claim:   "oracle-driven enumeration emits one output per duality call (§1, [3,26])",
		Columns: []string{"instance", "|tr(G)|", "oracle outputs", "oracle max delay", "dfs max delay", "families equal"},
		Pass:    true,
	}
	instances := []struct {
		name string
		g    *hypergraph.Hypergraph
	}{
		{"matching-4", gen.Matching(4)},
		{"matching-5", gen.Matching(5)},
		{"threshold-6-3", gen.Threshold(6, 3)},
		{"majority-5", gen.Majority(5)},
	}
	for _, inst := range instances {
		// DFS enumeration with per-output timestamps.
		var dfsMax time.Duration
		dfsCount := 0
		last := time.Now()
		dfsFam := hypergraph.New(inst.g.N())
		if err := transversal.EnumerateContext(context.Background(), inst.g, func(s bitset.Set) (bool, error) {
			now := time.Now()
			if d := now.Sub(last); d > dfsMax {
				dfsMax = d
			}
			last = now
			dfsCount++
			dfsFam.AddEdge(s)
			return true, nil
		}); err != nil {
			t.Pass = false
			continue
		}

		// Oracle-driven enumeration: each output costs exactly one duality
		// run plus a minimalization.
		var oracleMax time.Duration
		oracleCount := 0
		last = time.Now()
		oracleFam, err := transversal.ViaOracle(inst.g, func(g, partial *hypergraph.Hypergraph) (bitset.Set, bool, error) {
			var w bitset.Set
			var ok bool
			var err error
			if partial.M() == 0 {
				w, ok = bitset.Full(g.N()), true
			} else {
				w, ok, err = core.NewTransversal(g, partial)
			}
			now := time.Now()
			if d := now.Sub(last); d > oracleMax {
				oracleMax = d
			}
			last = now
			if ok {
				oracleCount++
			}
			return w, ok, err
		})
		if err != nil {
			t.Pass = false
			continue
		}
		equal := oracleFam.EqualAsFamily(dfsFam) && oracleCount == dfsCount
		if !equal {
			t.Pass = false
		}
		t.AddRow(inst.name, dfsCount, oracleCount, fmtDur(oracleMax), fmtDur(dfsMax), equal)
	}
	t.Notes = append(t.Notes,
		"the oracle path bounds the delay by one DUAL-engine run per output — the structural",
		"guarantee of [26]; DFS is usually faster in aggregate but offers no per-output bound")
	return t
}

// E18Armstrong exercises the Armstrong-relation construction the paper
// lists among the DUAL-equivalent database problems (§1, [7]): for every
// antichain K the constructed relation's minimal keys are exactly K, and
// the relation has 1 + |tr(K)| rows.
func E18Armstrong() *Table {
	t := &Table{
		ID:      "E18",
		Claim:   "Armstrong relation realizes any antichain K as the exact minimal-key set (§1, [7])",
		Columns: []string{"key family", "attrs", "|K|", "|tr(K)|", "rows", "keys match", "identification complete"},
		Pass:    true,
	}
	families := []struct {
		name string
		k    *hypergraph.Hypergraph
	}{
		{"one singleton", hypergraph.MustFromEdges(4, [][]int{{0}})},
		{"composite", hypergraph.MustFromEdges(4, [][]int{{0, 1}})},
		{"mixed", hypergraph.MustFromEdges(5, [][]int{{0}, {1, 2}, {3, 4}})},
		{"triangle", hypergraph.MustFromEdges(3, [][]int{{0, 1}, {1, 2}, {0, 2}})},
		{"matching-3 dual", gen.MatchingDual(3)},
		{"majority-5", gen.Majority(5)},
	}
	for _, f := range families {
		attrs := make([]string, f.k.N())
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		rel, err := keys.ArmstrongRelation(f.k, attrs)
		if err != nil {
			t.Pass = false
			continue
		}
		got := rel.MinimalKeys()
		match := got.EqualAsFamily(f.k)
		res, err := rel.AdditionalKeyWith(context.Background(), f.k, engine.NewSessionMemo(nil, -1))
		if err != nil {
			t.Pass = false
			continue
		}
		if !match || !res.Complete {
			t.Pass = false
		}
		trK, err := transversal.CountContext(context.Background(), f.k)
		if err != nil {
			t.Pass = false
			continue
		}
		t.AddRow(f.name, f.k.N(), f.k.M(), trK, rel.NumRows(), match, res.Complete)
	}
	t.Notes = append(t.Notes,
		"rows = 1 + |tr(K)|: one baseline plus one row per antikey (complement of a minimal transversal)")
	return t
}
