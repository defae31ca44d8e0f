package transversal

import (
	"context"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
)

func trEqual(t *testing.T, got, want *hypergraph.Hypergraph, label string) {
	t.Helper()
	if !got.EqualAsFamily(want) {
		t.Errorf("%s: got %v, want %v", label, got, want)
	}
}

func TestConventions(t *testing.T) {
	// tr(∅) = {∅}
	empty := hypergraph.New(4)
	wantEmpty := hypergraph.MustFromEdges(4, [][]int{{}})
	trEqual(t, Berge(empty), wantEmpty, "Berge tr(∅)")
	trEqual(t, AsHypergraph(empty), wantEmpty, "Enumerate tr(∅)")
	trEqual(t, BruteForce(empty), wantEmpty, "BruteForce tr(∅)")

	// tr({∅}) = ∅
	withEmpty := hypergraph.MustFromEdges(4, [][]int{{}})
	wantNone := hypergraph.New(4)
	trEqual(t, Berge(withEmpty), wantNone, "Berge tr({∅})")
	trEqual(t, AsHypergraph(withEmpty), wantNone, "Enumerate tr({∅})")
	trEqual(t, BruteForce(withEmpty), wantNone, "BruteForce tr({∅})")
}

func TestKnownDuals(t *testing.T) {
	cases := []struct {
		name string
		n    int
		h    [][]int
		want [][]int
	}{
		{
			name: "single edge",
			n:    3,
			h:    [][]int{{0, 1, 2}},
			want: [][]int{{0}, {1}, {2}},
		},
		{
			name: "singletons",
			n:    3,
			h:    [][]int{{0}, {1}, {2}},
			want: [][]int{{0, 1, 2}},
		},
		{
			name: "matching of 2",
			n:    4,
			h:    [][]int{{0, 1}, {2, 3}},
			want: [][]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}},
		},
		{
			name: "triangle (self-dual)",
			n:    3,
			h:    [][]int{{0, 1}, {1, 2}, {0, 2}},
			want: [][]int{{0, 1}, {1, 2}, {0, 2}},
		},
		{
			name: "path P3",
			n:    3,
			h:    [][]int{{0, 1}, {1, 2}},
			want: [][]int{{1}, {0, 2}},
		},
		{
			name: "threshold 2-of-4",
			n:    4,
			h:    [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
			want: [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}},
		},
	}
	for _, c := range cases {
		h := hypergraph.MustFromEdges(c.n, c.h)
		want := hypergraph.MustFromEdges(c.n, c.want)
		trEqual(t, Berge(h), want, c.name+"/Berge")
		trEqual(t, AsHypergraph(h), want, c.name+"/Enumerate")
		trEqual(t, BruteForce(h), want, c.name+"/BruteForce")
	}
}

func TestInvolution(t *testing.T) {
	// tr(tr(H)) = H for simple H.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		h := randomSimple(r, 2+r.Intn(8), 1+r.Intn(6))
		tr1 := AsHypergraph(h)
		tr2 := AsHypergraph(tr1)
		if !tr2.EqualAsFamily(h) {
			t.Fatalf("tr(tr(H)) != H: H=%v tr=%v trtr=%v", h, tr1, tr2)
		}
	}
}

func TestMethodsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 80; i++ {
		n := 2 + r.Intn(9)
		h := randomSimple(r, n, 1+r.Intn(8))
		b := Berge(h)
		e := AsHypergraph(h)
		bf := BruteForce(h)
		if !b.EqualAsFamily(bf) {
			t.Fatalf("Berge != BruteForce for %v: %v vs %v", h, b, bf)
		}
		if !e.EqualAsFamily(bf) {
			t.Fatalf("Enumerate != BruteForce for %v: %v vs %v", h, e, bf)
		}
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		h := randomSimple(r, 2+r.Intn(10), 1+r.Intn(10))
		seen := map[string]bool{}
		err := EnumerateContext(context.Background(), h, func(s bitset.Set) (bool, error) {
			k := s.Key()
			if seen[k] {
				t.Fatalf("duplicate transversal %v for %v", s, h)
			}
			seen[k] = true
			if !h.IsMinimalTransversal(s) {
				t.Fatalf("emitted non-minimal %v for %v", s, h)
			}
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	h := hypergraph.MustFromEdges(6, [][]int{{0, 1}, {2, 3}, {4, 5}})
	count := 0
	if err := EnumerateContext(context.Background(), h, func(bitset.Set) (bool, error) {
		count++
		return count < 3, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("early stop yielded %d, want 3", count)
	}
	if got := countTr(h); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
}

func TestMatchingGrowth(t *testing.T) {
	// Matching with k edges has exactly 2^k minimal transversals.
	for k := 1; k <= 6; k++ {
		edges := make([][]int, k)
		for i := range edges {
			edges[i] = []int{2 * i, 2*i + 1}
		}
		h := hypergraph.MustFromEdges(2*k, edges)
		if got, want := countTr(h), 1<<uint(k); got != want {
			t.Errorf("matching k=%d: Count = %d, want %d", k, got, want)
		}
	}
}

func TestViaOracleBruteBacked(t *testing.T) {
	// Use a brute-force oracle: find any minimal transversal of g not in
	// partial; report completion when none exists.
	oracle := func(g, partial *hypergraph.Hypergraph) (bitset.Set, bool, error) {
		for _, mt := range All(g) {
			if !partial.ContainsEdge(mt) {
				return mt, true, nil
			}
		}
		return bitset.Set{}, false, nil
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		g := randomSimple(r, 2+r.Intn(7), 1+r.Intn(6))
		got, err := ViaOracle(g, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsFamily(AsHypergraph(g)) {
			t.Fatalf("ViaOracle mismatch for %v", g)
		}
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

func BenchmarkBergeThreshold(b *testing.B) {
	h := threshold(12, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Berge(h)
	}
}

func BenchmarkEnumerateThreshold(b *testing.B) {
	h := threshold(12, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		countTr(h)
	}
}

// threshold returns the hypergraph of all k-subsets of [0,n).
func threshold(n, k int) *hypergraph.Hypergraph {
	h := hypergraph.New(n)
	var build func(start int, cur []int)
	build = func(start int, cur []int) {
		if len(cur) == k {
			h.AddEdgeElems(cur...)
			return
		}
		for v := start; v < n; v++ {
			build(v+1, append(cur, v))
		}
	}
	build(0, nil)
	return h
}
