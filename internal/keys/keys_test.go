package keys_test

import (
	"context"
	"dualspace/internal/engine"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
	"dualspace/internal/keys"
)

// employees is the worked example: name is a key, (dept, room) is a key.
func employees() *keys.Relation {
	r := keys.MustNewRelation([]string{"name", "dept", "room", "city"})
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(r.AddRow("ann", "sales", "101", "york"))
	must(r.AddRow("bob", "sales", "102", "york"))
	must(r.AddRow("cyd", "eng", "101", "york"))
	must(r.AddRow("dee", "eng", "102", "leeds"))
	return r
}

func TestRelationValidation(t *testing.T) {
	if _, err := keys.NewRelation(nil); err == nil {
		t.Error("empty attribute list accepted")
	}
	if _, err := keys.NewRelation([]string{"a", "a"}); err == nil {
		t.Error("duplicate attributes accepted")
	}
	if _, err := keys.NewRelation([]string{""}); err == nil {
		t.Error("empty attribute name accepted")
	}
	r := keys.MustNewRelation([]string{"a", "b"})
	if err := r.AddRow("1"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if r.AttrIndex("b") != 1 || r.AttrIndex("zz") != -1 {
		t.Error("AttrIndex wrong")
	}
	if r.AttrName(0) != "a" {
		t.Error("AttrName wrong")
	}
}

func TestIsKey(t *testing.T) {
	r := employees()
	mk := func(names ...string) bitset.Set {
		s := bitset.New(r.NumAttrs())
		for _, n := range names {
			s.Add(r.AttrIndex(n))
		}
		return s
	}
	if !r.IsKey(mk("name")) {
		t.Error("name should be a key")
	}
	if r.IsKey(mk("dept")) {
		t.Error("dept is not a key")
	}
	if !r.IsKey(mk("dept", "room")) {
		t.Error("dept+room should be a key")
	}
	if !r.IsKey(mk("name", "city")) {
		t.Error("superset of a key is a key")
	}
	if r.IsKey(mk()) {
		t.Error("empty set is not a key of a 4-row relation")
	}
	if !r.IsMinimalKey(mk("name")) || r.IsMinimalKey(mk("name", "city")) {
		t.Error("minimality wrong")
	}
}

func TestMinimalKeysAgainstBrute(t *testing.T) {
	r := employees()
	got := r.MinimalKeys()
	want := r.MinimalKeysBrute()
	if !got.EqualAsFamily(want) {
		t.Fatalf("MinimalKeys %v != brute %v", got, want)
	}
	// Reduction consistency: keys are exactly the transversals of the
	// difference sets.
	d := r.DifferenceSets()
	for mask := 0; mask < 1<<uint(r.NumAttrs()); mask++ {
		k := bitset.New(r.NumAttrs())
		for a := 0; a < r.NumAttrs(); a++ {
			if mask&(1<<uint(a)) != 0 {
				k.Add(a)
			}
		}
		if r.IsKey(k) != d.IsTransversal(k) {
			t.Fatalf("key/transversal mismatch at %v", k)
		}
	}
	// Agree sets are the complements of difference sets.
	if !r.AgreeSets().ComplementEdges().EqualAsFamily(d) {
		t.Error("agree/difference complement identity broken")
	}
}

func TestAdditionalKey(t *testing.T) {
	r := employees()
	all := r.MinimalKeysBrute()

	// Complete claims.
	res, err := r.AdditionalKey(all)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("complete key set not recognized: %+v", res)
	}

	// Drop each key in turn: must find a new minimal key each time.
	for drop := 0; drop < all.M(); drop++ {
		partial := hypergraph.New(all.N())
		for j := 0; j < all.M(); j++ {
			if j != drop {
				partial.AddEdge(all.Edge(j))
			}
		}
		res, err := r.AdditionalKey(partial)
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete || !res.FoundNew {
			t.Fatalf("drop %d: missing key not detected: %+v", drop, res)
		}
		if !r.IsMinimalKey(res.NewKey) {
			t.Fatalf("drop %d: new key %v not a minimal key", drop, res.NewKey)
		}
		if partial.ContainsEdge(res.NewKey) {
			t.Fatalf("drop %d: new key already known", drop)
		}
	}

	// Invalid claims are rejected.
	bogus := hypergraph.MustFromEdges(4, [][]int{{1}}) // dept alone is no key
	if _, err := r.AdditionalKey(bogus); err == nil {
		t.Error("non-key claim accepted")
	}
	wrong := hypergraph.MustFromEdges(5, [][]int{{0}})
	if _, err := r.AdditionalKey(wrong); err == nil {
		t.Error("universe mismatch accepted")
	}
}

func TestDegenerateRelations(t *testing.T) {
	// Single row: the empty key.
	r1 := keys.MustNewRelation([]string{"a", "b"})
	if err := r1.AddRow("x", "y"); err != nil {
		t.Fatal(err)
	}
	res, err := r1.AdditionalKey(hypergraph.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || !res.NewKey.IsEmpty() {
		t.Fatalf("single row: %+v", res)
	}
	complete := hypergraph.New(2)
	complete.AddEdgeElems()
	res, err = r1.AdditionalKey(complete)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("single row with ∅ claimed: %+v", res)
	}

	// Duplicate rows: no keys; the empty claim set is complete.
	r2 := keys.MustNewRelation([]string{"a"})
	if err := r2.AddRow("x"); err != nil {
		t.Fatal(err)
	}
	if err := r2.AddRow("x"); err != nil {
		t.Fatal(err)
	}
	res, err = r2.AdditionalKey(hypergraph.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("duplicate rows: %+v", res)
	}
	if r2.MinimalKeys().M() != 0 {
		t.Error("duplicate rows should have no keys")
	}
}

func TestEnumerateKeysIncrementally(t *testing.T) {
	r := employees()
	got, calls, err := r.EnumerateKeysIncrementally()
	if err != nil {
		t.Fatal(err)
	}
	want := r.MinimalKeysBrute()
	if !got.EqualAsFamily(want) {
		t.Fatalf("incremental keys %v != brute %v", got, want)
	}
	if calls != want.M()+1 {
		t.Errorf("calls = %d, want %d", calls, want.M()+1)
	}
}

func TestRandomRelations(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		nAttrs := 2 + r.Intn(5)
		nRows := 2 + r.Intn(6)
		domain := 2 + r.Intn(2)
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
				t.Fatal(err)
			}
		}
		want := rel.MinimalKeysBrute()
		if got := rel.MinimalKeys(); !got.EqualAsFamily(want) {
			t.Fatalf("trial %d: MinimalKeys %v != brute %v", trial, got, want)
		}
		got, _, err := rel.EnumerateKeysIncrementally()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.EqualAsFamily(want) {
			t.Fatalf("trial %d: incremental %v != brute %v", trial, got, want)
		}
	}
}

// Regression: AdditionalKeyWith verifies every claimed key before the tree
// search starts; that loop must honour cancellation rather than burning
// through the whole claim list on a dead context. The full attribute set
// is a key but not minimal, so an unpolled loop would surface the
// "not a minimal key" claim error instead of the context's error.
func TestAdditionalKeyWithCancelledContext(t *testing.T) {
	r := employees()
	bogus := hypergraph.New(4)
	bogus.AddEdge(bitset.Full(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.AdditionalKeyWith(ctx, bogus, engine.NewSession(nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("AdditionalKeyWith with cancelled ctx: got err %v, want context.Canceled", err)
	}
}
