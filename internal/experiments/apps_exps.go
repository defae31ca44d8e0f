package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"dualspace/internal/coterie"
	"dualspace/internal/engine"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
	"dualspace/internal/keys"
)

// E10Mining exercises Proposition 1.1: the dualize-and-advance border
// miner and the identification problem against the Apriori and brute-force
// baselines, across thresholds and datasets.
func E10Mining() *Table {
	t := &Table{
		ID:      "E10",
		Claim:   "MaxFreq-MinInfreq-Identification ⟺ DUAL (Prop 1.1)",
		Columns: []string{"dataset", "items", "rows", "z", "|IS+|", "|IS−|", "dual checks", "=apriori", "=brute", "identity", "identify"},
		Pass:    true,
	}
	r := rand.New(rand.NewSource(suiteSeed))
	datasets := []struct {
		name string
		d    *itemsets.Dataset
	}{
		{"planted-8x60", itemsets.GeneratePlanted(r, 8, 60, [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}}, 0.15, 0.05)},
		{"random-7x40", itemsets.GenerateRandom(r, 7, 40, 0.35)},
		{"random-9x30", itemsets.GenerateRandom(r, 9, 30, 0.25)},
	}
	for _, ds := range datasets {
		for _, z := range []int{ds.d.NumRows() / 10, ds.d.NumRows() / 4, ds.d.NumRows() / 2} {
			if z <= 0 {
				z = 1
			}
			da, err := itemsets.ComputeBordersStreamWith(context.Background(), ds.d, z, engine.NewSession(nil), nil)
			if err != nil {
				t.Pass = false
				continue
			}
			ap, err := itemsets.BordersApriori(ds.d, z)
			if err != nil {
				t.Pass = false
				continue
			}
			br, err := itemsets.BordersBrute(ds.d, z)
			if err != nil {
				t.Pass = false
				continue
			}
			eqAp := da.MaxFrequent.EqualAsFamily(ap.MaxFrequent) && da.MinInfrequent.EqualAsFamily(ap.MinInfrequent)
			eqBr := da.MaxFrequent.EqualAsFamily(br.MaxFrequent) && da.MinInfrequent.EqualAsFamily(br.MinInfrequent)
			identity, err := itemsets.VerifyBorderIdentity(da)
			if err != nil {
				t.Pass = false
				continue
			}
			idRes, err := itemsets.IdentifyWith(context.Background(), ds.d, z, da.MinInfrequent, da.MaxFrequent, engine.Default())
			if err != nil {
				t.Pass = false
				continue
			}
			// And an incomplete claim must be rejected with a witness.
			identOK := idRes.Complete
			if da.MaxFrequent.M() >= 2 {
				partial := hypergraph.New(ds.d.NumItems())
				for j := 1; j < da.MaxFrequent.M(); j++ {
					partial.AddEdge(da.MaxFrequent.Edge(j))
				}
				inc, err := itemsets.IdentifyWith(context.Background(), ds.d, z, da.MinInfrequent, partial, engine.Default())
				if err != nil || inc.Complete || (inc.NewMaxFrequent == nil && inc.NewMinInfrequent == nil) {
					identOK = false
				}
			}
			if !eqAp || !eqBr || !identity || !identOK {
				t.Pass = false
			}
			t.AddRow(ds.name, ds.d.NumItems(), ds.d.NumRows(), z,
				da.MaxFrequent.M(), da.MinInfrequent.M(), da.DualityChecks, eqAp, eqBr, identity, identOK)
		}
	}
	t.Notes = append(t.Notes,
		"identity: IS− = tr((IS+)ᶜ) re-verified through the duality engine (Gunopulos et al.)",
		"identify: complete claims accepted and one-short claims rejected with a concrete witness")
	return t
}

// E11Keys exercises Proposition 1.2 on synthetic relations: enumeration
// through additional-key calls matches brute force, with one duality call
// per key plus one.
func E11Keys() *Table {
	t := &Table{
		ID:      "E11",
		Claim:   "additional-key-for-instance ⟺ DUAL (Prop 1.2)",
		Columns: []string{"relation", "attrs", "rows", "keys", "dual calls", "=brute", "drop-one detected"},
		Pass:    true,
	}
	r := rand.New(rand.NewSource(suiteSeed + 1))
	for trial := 0; trial < 6; trial++ {
		nAttrs := 3 + trial%4
		nRows := 4 + 2*trial
		rel := randomRelation(r, nAttrs, nRows, 2+trial%2)
		brute := rel.MinimalKeysBrute()
		got, calls, err := rel.EnumerateKeysIncrementallyWith(context.Background(), engine.NewSession(nil))
		if err != nil {
			t.Pass = false
			continue
		}
		eq := got.EqualAsFamily(brute)

		dropDetected := true
		if brute.M() >= 1 {
			partial := hypergraph.New(nAttrs)
			for j := 1; j < brute.M(); j++ {
				partial.AddEdge(brute.Edge(j))
			}
			res, err := rel.AdditionalKeyWith(context.Background(), partial, engine.NewSessionMemo(nil, -1))
			if err != nil || res.Complete || !rel.IsMinimalKey(res.NewKey) {
				dropDetected = false
			}
		}
		if !eq || !dropDetected || calls != brute.M()+1 {
			t.Pass = false
		}
		t.AddRow(fmt.Sprintf("rand-%dx%d", nAttrs, nRows), nAttrs, nRows, brute.M(), calls, eq, dropDetected)
	}
	t.Notes = append(t.Notes, "dual calls = |keys| + 1: one witness per key, one final completeness check")
	return t
}

func randomRelation(r *rand.Rand, nAttrs, nRows, domain int) *keys.Relation {
	attrs := make([]string, nAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	rel := keys.MustNewRelation(attrs)
	for i := 0; i < nRows; i++ {
		row := make([]string, nAttrs)
		for j := range row {
			row[j] = fmt.Sprintf("v%d", r.Intn(domain))
		}
		if err := rel.AddRow(row...); err != nil {
			panic(err)
		}
	}
	return rel
}

// E12Coteries exercises Proposition 1.3 on the classical constructions and
// random coteries: the self-duality verdict must complement the
// brute-force domination search everywhere.
func E12Coteries() *Table {
	t := &Table{
		ID:      "E12",
		Claim:   "coterie non-dominated ⟺ tr(H) = H (Prop 1.3)",
		Columns: []string{"coterie", "nodes", "quorums", "self-dual", "brute dominated", "consistent", "improvable"},
		Pass:    true,
	}
	cases := []struct {
		name string
		c    *coterie.Coterie
	}{
		{"majority-3", coterie.Majority(3)},
		{"majority-5", coterie.Majority(5)},
		{"majority-7", coterie.Majority(7)},
		{"singleton-5", coterie.Singleton(5, 0)},
		{"star-5", coterie.Star(5, 0)},
		{"star-7", coterie.Star(7, 3)},
		{"wheel-5", coterie.Wheel(5)},
		{"wheel-6", coterie.Wheel(6)},
		{"grid-2x2", coterie.Grid(2, 2)},
		{"grid-3x3", coterie.Grid(3, 3)},
	}
	r := rand.New(rand.NewSource(suiteSeed + 2))
	for i := 0; len(cases) < 14; i++ {
		h := randomCoterieCandidate(r)
		if c, err := coterie.New(h); err == nil {
			cases = append(cases, struct {
				name string
				c    *coterie.Coterie
			}{fmt.Sprintf("random-%d", i), c})
		}
	}
	for _, cs := range cases {
		nd, err := cs.c.IsNonDominatedWith(context.Background(), engine.Default())
		if err != nil {
			t.Pass = false
			continue
		}
		dominated := cs.c.IsDominatedBrute()
		consistent := nd != dominated
		improvable := "-"
		if dominated {
			dom, found, err := cs.c.FindDominatingWith(context.Background(), engine.Default())
			if err != nil || !found || !dom.Dominates(cs.c) {
				consistent = false
			} else {
				improvable = "yes"
			}
		}
		if !consistent {
			t.Pass = false
		}
		t.AddRow(cs.name, cs.c.Universe(), cs.c.NumQuorums(), nd, dominated, consistent, improvable)
	}
	return t
}

func randomCoterieCandidate(r *rand.Rand) *hypergraph.Hypergraph {
	n := 4 + r.Intn(3)
	h := hypergraph.New(n)
	m := 2 + r.Intn(3)
	for i := 0; i < m; i++ {
		var e []int
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				e = append(e, v)
			}
		}
		if len(e) == 0 {
			e = append(e, r.Intn(n))
		}
		h.AddEdgeElems(e...)
	}
	return h.Minimize()
}
