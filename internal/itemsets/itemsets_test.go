package itemsets

import (
	"context"
	"dualspace/internal/engine"
	"errors"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
)

// computeBorders mines on one fresh session under a background context.
func computeBorders(d *Dataset, z int) (*Borders, error) {
	return ComputeBordersStreamWith(context.Background(), d, z, engine.NewSession(nil), nil)
}

// identify decides on the default portfolio under a background context.
func identify(d *Dataset, z int, g, h *hypergraph.Hypergraph) (*IdentifyResult, error) {
	return IdentifyWith(context.Background(), d, z, g, h, engine.Default())
}

// tinyDataset is the worked example used across the tests:
// items {0,1,2,3}, 6 rows.
func tinyDataset() *Dataset {
	d := NewDataset(4)
	d.AddRow(0, 1, 2)
	d.AddRow(0, 1)
	d.AddRow(0, 1, 3)
	d.AddRow(2, 3)
	d.AddRow(0, 2)
	d.AddRow(1, 2, 3)
	return d
}

func TestFrequency(t *testing.T) {
	d := tinyDataset()
	mk := func(items ...int) bitset.Set { return bitset.FromSlice(4, items) }
	cases := []struct {
		u    bitset.Set
		want int
	}{
		{mk(), 6},
		{mk(0), 4},
		{mk(0, 1), 3},
		{mk(0, 1, 2), 1},
		{mk(3), 3},
		{mk(0, 3), 1},
		{mk(0, 1, 2, 3), 0},
	}
	for i, c := range cases {
		if got := d.Frequency(c.u); got != c.want {
			t.Errorf("case %d: f(%v) = %d, want %d", i, c.u, got, c.want)
		}
	}
	// Strict threshold semantics: frequent iff f(U) > z.
	if !d.IsFrequent(mk(0), 3) {
		t.Error("f=4 > z=3 should be frequent")
	}
	if d.IsFrequent(mk(0), 4) {
		t.Error("f=4 > z=4 is false; must be infrequent")
	}
}

func TestBorderPredicates(t *testing.T) {
	d := tinyDataset()
	z := 2
	mk := func(items ...int) bitset.Set { return bitset.FromSlice(4, items) }
	// f({0,1}) = 3 > 2 frequent; adding any item drops below.
	if !d.IsMaximalFrequent(mk(0, 1), z) {
		t.Error("{0,1} should be maximal frequent at z=2")
	}
	if d.IsMaximalFrequent(mk(0), z) {
		t.Error("{0} is frequent but not maximal")
	}
	if d.IsMaximalFrequent(mk(0, 3), z) {
		t.Error("{0,3} is infrequent")
	}
	// f({0,3}) = 1 ≤ 2 infrequent; {0} and {3} both frequent.
	if !d.IsMinimalInfrequent(mk(0, 3), z) {
		t.Error("{0,3} should be minimal infrequent")
	}
	if d.IsMinimalInfrequent(mk(0, 1, 3), z) {
		t.Error("{0,1,3} contains infrequent {0,3}")
	}
}

func TestThresholdValidation(t *testing.T) {
	d := tinyDataset()
	for _, z := range []int{0, -1, 7} {
		if _, err := computeBorders(d, z); err == nil {
			t.Errorf("threshold %d accepted", z)
		}
		if _, err := BordersApriori(d, z); err == nil {
			t.Errorf("apriori threshold %d accepted", z)
		}
		if _, err := identify(d, z, hypergraph.New(4), hypergraph.New(4)); err == nil {
			t.Errorf("identify threshold %d accepted", z)
		}
	}
}

func TestBordersAgreeTiny(t *testing.T) {
	d := tinyDataset()
	for z := 1; z <= 6; z++ {
		brute, err := BordersBrute(d, z)
		if err != nil {
			t.Fatal(err)
		}
		da, err := computeBorders(d, z)
		if err != nil {
			t.Fatalf("z=%d: %v", z, err)
		}
		ap, err := BordersApriori(d, z)
		if err != nil {
			t.Fatal(err)
		}
		if !da.MaxFrequent.EqualAsFamily(brute.MaxFrequent) {
			t.Errorf("z=%d: D&A IS+ %v != brute %v", z, da.MaxFrequent, brute.MaxFrequent)
		}
		if !da.MinInfrequent.EqualAsFamily(brute.MinInfrequent) {
			t.Errorf("z=%d: D&A IS− %v != brute %v", z, da.MinInfrequent, brute.MinInfrequent)
		}
		if !ap.MaxFrequent.EqualAsFamily(brute.MaxFrequent) || !ap.MinInfrequent.EqualAsFamily(brute.MinInfrequent) {
			t.Errorf("z=%d: apriori disagrees with brute", z)
		}
	}
}

func TestBordersRandom(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(5)
		rows := 4 + r.Intn(10)
		d := GenerateRandom(r, n, rows, 0.3+r.Float64()*0.4)
		z := 1 + r.Intn(rows)
		brute, err := BordersBrute(d, z)
		if err != nil {
			t.Fatal(err)
		}
		da, err := computeBorders(d, z)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !da.MaxFrequent.EqualAsFamily(brute.MaxFrequent) || !da.MinInfrequent.EqualAsFamily(brute.MinInfrequent) {
			t.Fatalf("trial %d (n=%d rows=%d z=%d): D&A disagrees with brute", trial, n, rows, z)
		}
		// The fundamental identity IS− = tr((IS+)ᶜ).
		okID, err := VerifyBorderIdentity(da)
		if err != nil {
			t.Fatal(err)
		}
		if !okID {
			t.Fatalf("trial %d: border identity violated", trial)
		}
		// Oracle-call accounting: 1 + |IS+| + |IS−| checks suffice... allow
		// the +1 bootstrap slack.
		if da.DualityChecks > da.MaxFrequent.M()+da.MinInfrequent.M()+2 {
			t.Errorf("trial %d: %d duality checks for %d border elements",
				trial, da.DualityChecks, da.MaxFrequent.M()+da.MinInfrequent.M())
		}
	}
}

func TestBordersDegenerate(t *testing.T) {
	// Every row empty: nothing nonempty is frequent; ∅ is frequent iff
	// z < rows.
	d := NewDataset(3)
	d.AddRow()
	d.AddRow()
	b, err := computeBorders(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	// f(∅)=2 > 1: frequent; every singleton has f=0: infrequent.
	if b.MaxFrequent.M() != 1 || !b.MaxFrequent.Edge(0).IsEmpty() {
		t.Errorf("IS+ = %v, want {∅}", b.MaxFrequent)
	}
	if b.MinInfrequent.M() != 3 {
		t.Errorf("IS− = %v, want the three singletons", b.MinInfrequent)
	}
	// z = rows: nothing frequent, IS− = {∅}.
	b2, err := computeBorders(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b2.MaxFrequent.M() != 0 || b2.MinInfrequent.M() != 1 || !b2.MinInfrequent.Edge(0).IsEmpty() {
		t.Errorf("degenerate borders: %v / %v", b2.MaxFrequent, b2.MinInfrequent)
	}

	// Full itemset frequent: IS+ = {full}, IS− = ∅.
	full := NewDataset(3)
	full.AddRow(0, 1, 2)
	full.AddRow(0, 1, 2)
	b3, err := computeBorders(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b3.MaxFrequent.M() != 1 || b3.MaxFrequent.Edge(0).Len() != 3 || b3.MinInfrequent.M() != 0 {
		t.Errorf("full-set borders: %v / %v", b3.MaxFrequent, b3.MinInfrequent)
	}
}

func TestIdentify(t *testing.T) {
	d := tinyDataset()
	z := 2
	brute, err := BordersBrute(d, z)
	if err != nil {
		t.Fatal(err)
	}

	// Complete claims verify.
	res, err := identify(d, z, brute.MinInfrequent, brute.MaxFrequent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("complete borders not recognized: %+v", res)
	}

	// Remove one maximal frequent set: incomplete with a concrete witness.
	if brute.MaxFrequent.M() >= 2 {
		partial := hypergraph.New(4)
		for j := 1; j < brute.MaxFrequent.M(); j++ {
			partial.AddEdge(brute.MaxFrequent.Edge(j))
		}
		res, err := identify(d, z, brute.MinInfrequent, partial)
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete {
			t.Fatal("incomplete IS+ accepted")
		}
		if res.NewMaxFrequent == nil && res.NewMinInfrequent == nil {
			t.Fatalf("no witness produced: %+v", res)
		}
		if res.NewMaxFrequent != nil {
			if !d.IsMaximalFrequent(*res.NewMaxFrequent, z) {
				t.Error("witness is not maximal frequent")
			}
			if partial.ContainsEdge(*res.NewMaxFrequent) {
				t.Error("witness already claimed")
			}
		}
		if res.NewMinInfrequent != nil {
			if !d.IsMinimalInfrequent(*res.NewMinInfrequent, z) {
				t.Error("witness is not minimal infrequent")
			}
			if brute.MinInfrequent.ContainsEdge(*res.NewMinInfrequent) {
				t.Error("IS− witness already known — claims were complete on that side")
			}
		}
	}

	// Bogus claims are flagged.
	bogusMax := hypergraph.MustFromEdges(4, [][]int{{0, 3}}) // infrequent
	res, err = identify(d, z, hypergraph.New(4), bogusMax)
	if err != nil {
		t.Fatal(err)
	}
	if res.BadMaxClaim != 0 {
		t.Errorf("bogus IS+ claim not flagged: %+v", res)
	}
	bogusMin := hypergraph.MustFromEdges(4, [][]int{{0}}) // frequent
	res, err = identify(d, z, bogusMin, hypergraph.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BadMinClaim != 0 {
		t.Errorf("bogus IS− claim not flagged: %+v", res)
	}
}

func TestIdentifyRandomIncremental(t *testing.T) {
	// Drive identification as the paper describes: start from partial
	// borders, repeatedly ask Identify, add its witness, and verify the
	// loop closes exactly at the brute-force borders.
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(4)
		rows := 4 + r.Intn(8)
		d := GenerateRandom(r, n, rows, 0.4)
		z := 1 + r.Intn(rows)
		brute, err := BordersBrute(d, z)
		if err != nil {
			t.Fatal(err)
		}
		g := hypergraph.New(n)
		h := hypergraph.New(n)
		steps := 0
		for {
			res, err := identify(d, z, g, h)
			if err != nil {
				t.Fatal(err)
			}
			if res.BadMaxClaim >= 0 || res.BadMinClaim >= 0 {
				t.Fatalf("trial %d: valid incremental claim flagged: %+v", trial, res)
			}
			if res.Complete {
				break
			}
			switch {
			case res.NewMaxFrequent != nil:
				h.AddEdge(*res.NewMaxFrequent)
			case res.NewMinInfrequent != nil:
				g.AddEdge(*res.NewMinInfrequent)
			default:
				t.Fatalf("trial %d: incomplete but no witness", trial)
			}
			steps++
			if steps > 1<<uint(n+1) {
				t.Fatalf("trial %d: loop does not converge", trial)
			}
		}
		if !h.EqualAsFamily(brute.MaxFrequent) || !g.EqualAsFamily(brute.MinInfrequent) {
			t.Fatalf("trial %d: incremental loop converged to wrong borders", trial)
		}
	}
}

func TestGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	d := GenerateRandom(r, 10, 50, 0.3)
	if d.NumItems() != 10 || d.NumRows() != 50 {
		t.Fatal("GenerateRandom shape wrong")
	}
	p := GeneratePlanted(r, 10, 100, [][]int{{0, 1, 2}, {5, 6}}, 0.1, 0.05)
	if p.NumRows() != 100 {
		t.Fatal("GeneratePlanted shape wrong")
	}
	// Planted patterns should be much more frequent than random triples.
	pat := bitset.FromSlice(10, []int{0, 1, 2})
	other := bitset.FromSlice(10, []int{3, 4, 7})
	if p.Frequency(pat) <= p.Frequency(other) {
		t.Errorf("planted pattern freq %d not above background %d", p.Frequency(pat), p.Frequency(other))
	}
}

func TestItemNames(t *testing.T) {
	d := NewDataset(2)
	if d.ItemName(1) != "i1" {
		t.Error("default names wrong")
	}
	if err := d.SetItemNames([]string{"milk"}); err == nil {
		t.Error("name arity accepted")
	}
	if err := d.SetItemNames([]string{"milk", "bread"}); err != nil {
		t.Fatal(err)
	}
	if d.ItemName(1) != "bread" {
		t.Error("names not applied")
	}
}

// Regression: IdentifyWith's claim-verification loops run before any engine
// dispatch and must honour cancellation themselves. The claimed maximal
// frequent set below is bogus, so an unpolled loop would report it
// (res.BadMaxClaim = 0, nil error) instead of failing with the context's
// error — the engine never gets a chance to notice the dead context.
func TestIdentifyWithCancelledContext(t *testing.T) {
	d := tinyDataset()
	z := 2
	brute, err := BordersBrute(d, z)
	if err != nil {
		t.Fatal(err)
	}
	bogus := hypergraph.New(4)
	bogus.AddEdge(bitset.Full(4)) // the full itemset is infrequent at z=2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := IdentifyWith(ctx, d, z, brute.MinInfrequent, bogus, engine.Default()); !errors.Is(err, context.Canceled) {
		t.Fatalf("IdentifyWith with cancelled ctx: got err %v, want context.Canceled", err)
	}
}
