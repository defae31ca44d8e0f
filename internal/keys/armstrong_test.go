package keys_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
	"dualspace/internal/keys"
)

func attrNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("a%d", i)
	}
	return out
}

func TestArmstrongKnown(t *testing.T) {
	cases := []struct {
		name string
		n    int
		keys [][]int
	}{
		{"single key", 3, [][]int{{0}}},
		{"two singleton keys", 3, [][]int{{0}, {1}}},
		{"composite key", 4, [][]int{{0, 1}}},
		{"mixed", 4, [][]int{{0}, {1, 2}}},
		{"triangle keys", 3, [][]int{{0, 1}, {1, 2}, {0, 2}}},
		{"full key only", 3, [][]int{{0, 1, 2}}},
	}
	for _, c := range cases {
		k := hypergraph.MustFromEdges(c.n, c.keys)
		rel, err := keys.ArmstrongRelation(k, attrNames(c.n))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := rel.MinimalKeys()
		if !got.EqualAsFamily(k) {
			t.Errorf("%s: Armstrong relation has keys %v, want %v (relation rows=%d)",
				c.name, got, k, rel.NumRows())
		}
	}
}

func TestArmstrongEmptyKey(t *testing.T) {
	k := hypergraph.New(3)
	k.AddEdgeElems() // ∅ is the unique minimal key
	rel, err := keys.ArmstrongRelation(k, attrNames(3))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", rel.NumRows())
	}
	if !rel.MinimalKeys().EqualAsFamily(k) {
		t.Error("single-row relation should have the empty key")
	}
}

func TestArmstrongValidation(t *testing.T) {
	if _, err := keys.ArmstrongRelation(hypergraph.New(3), attrNames(3)); err == nil {
		t.Error("empty key family accepted")
	}
	notAntichain := hypergraph.MustFromEdges(3, [][]int{{0}, {0, 1}})
	if _, err := keys.ArmstrongRelation(notAntichain, attrNames(3)); err == nil {
		t.Error("non-antichain accepted")
	}
	k := hypergraph.MustFromEdges(3, [][]int{{0}})
	if _, err := keys.ArmstrongRelation(k, attrNames(2)); err == nil {
		t.Error("attribute count mismatch accepted")
	}
}

func TestArmstrongRandomRoundTrip(t *testing.T) {
	// Random antichains → Armstrong relation → minimal keys must round-trip
	// exactly. This is the dualization identity tr(tr(K)) = K in action.
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(5)
		raw := hypergraph.New(n)
		m := 1 + r.Intn(4)
		for i := 0; i < m; i++ {
			e := bitset.New(n)
			for v := 0; v < n; v++ {
				if r.Intn(2) == 0 {
					e.Add(v)
				}
			}
			if e.IsEmpty() {
				e.Add(r.Intn(n))
			}
			raw.AddEdge(e)
		}
		k := raw.Minimize()
		rel, err := keys.ArmstrongRelation(k, attrNames(n))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := rel.MinimalKeys()
		if !got.EqualAsFamily(k) {
			t.Fatalf("trial %d: round trip failed: got %v want %v", trial, got, k)
		}
		// The additional-key machinery agrees: K claimed on its own
		// Armstrong relation is complete.
		res, err := additionalKey(rel, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Complete {
			t.Fatalf("trial %d: Armstrong keys reported incomplete", trial)
		}
	}
}
