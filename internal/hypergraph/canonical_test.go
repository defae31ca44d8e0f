package hypergraph

import (
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
)

// subsets returns every k-subset of [0, n) in lexicographic order.
func subsets(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := start; v < n; v++ {
			rec(v+1, append(cur, v))
		}
	}
	rec(0, nil)
	return out
}

// goldenPairs are fixed instance pairs with the hex fingerprints of their
// canonical forms. Verdict-log records on disk and cluster keys address
// verdicts by these values, so a replica that computed different ones
// would miss every record its peers and its own log hold: they must never
// change.
var goldenPairs = []struct {
	name   string
	n      int
	g, h   [][]int
	fg, fh string
}{
	{"matching-3", 6,
		[][]int{{4, 5}, {0, 1}, {2, 3}},
		[][]int{{1, 3, 5}, {0, 2, 4}, {0, 2, 5}, {0, 3, 4}, {0, 3, 5}, {1, 2, 4}, {1, 2, 5}, {1, 3, 4}},
		"67b72cc743868f7da4aadb4cbed15c2f173560dc034f2169dcb786dc8fbb5e86",
		"963467a34a0f8169259f243c77582dad50fc0ae7def26cab64d0ce55cdec73b6"},
	{"threshold-5-2", 5, subsets(5, 2), subsets(5, 4),
		"2923c87f4cde6017b2e789c7f2d18516dada447decc4233152682e86a5b65eb4",
		"9007aee38476f8f60b74c9c9bc6e39bbc9a36d65888c70c1dcb6af5abed20203"},
	{"majority-5", 5, subsets(5, 3), subsets(5, 3),
		"f268aa00f903c24ecaf19e7989e1601757c8e1e20f6563a008c94bf417820ece",
		"f268aa00f903c24ecaf19e7989e1601757c8e1e20f6563a008c94bf417820ece"},
	{"duplicates", 4,
		[][]int{{0, 1}, {2, 3}, {0, 1}, {2, 3}, {0, 1}},
		[][]int{{0, 2}, {1, 3}, {0, 3}, {1, 2}, {0, 2}},
		"f2065a09e4fe94831613722d495c8db3c6df71823f6faedcb3e50b42fb694965",
		"9a2c1b61859d75f4a63201633cfde81c8a72a4bb9a4f253b8e52a3cc2515f210"},
	{"empty-edge", 3, [][]int{{}, {0, 1}, {}}, nil,
		"2ab1413d1fe8413060841ff349fc147a38b2a4eac31354b996c430c87f8d3741",
		"59d5966c96af7ecad5c9d2918d6582d102b2c67f6b765ea28ac24371ab4f93be"},
	{"wide-universe", 70,
		[][]int{{0, 65}, {1, 66}, {69}},
		[][]int{{65, 66, 69}, {0, 1, 69}, {0, 66, 69}, {65, 1, 69}},
		"8f61947c1b8ce71e0a2c209a38a0536e5aa49866d2c500cbc05e9c4515e70c66",
		"0d0cb760839ef3d343240d9c7877968b516524a01b4288e32977d2ca57f292e5"},
}

func TestCanonicalFingerprintsGolden(t *testing.T) {
	for _, p := range goldenPairs {
		fg := MustFromEdges(p.n, p.g).Canonical().Fingerprint().String()
		fh := MustFromEdges(p.n, p.h).Canonical().Fingerprint().String()
		if fg != p.fg || fh != p.fh {
			t.Errorf("%s: fingerprints %s / %s, want %s / %s", p.name, fg, fh, p.fg, p.fh)
		}
	}
}

// canonicalRef is the map-and-Key Canonical: keep the first copy of each
// edge, then sort.
func canonicalRef(h *Hypergraph) *Hypergraph {
	seen := make(map[string]bool, len(h.edges))
	out := New(h.n)
	for _, e := range h.edges {
		if k := e.Key(); !seen[k] {
			seen[k] = true
			out.edges = append(out.edges, e.Clone())
		}
	}
	bitset.SortSets(out.edges)
	return out
}

func TestCanonicalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var prev *Hypergraph
	for iter := 0; iter < 2000; iter++ {
		n := r.Intn(140)
		if iter%2 == 1 {
			n = prev.N() // same universe, so EqualAsFamily can hold
		}
		h := New(n)
		for m := r.Intn(12); m > 0; m-- {
			switch {
			case r.Intn(6) == 0:
				h.AddEdgeElems() // the empty edge
			case h.M() > 0 && r.Intn(3) == 0:
				h.AddEdge(h.Edge(r.Intn(h.M()))) // a duplicate
			case n > 0:
				var vs []int
				for k := r.Intn(4) + 1; k > 0; k-- {
					vs = append(vs, r.Intn(n))
				}
				h.AddEdgeElems(vs...)
			}
		}
		got, want := h.Canonical(), canonicalRef(h)
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("%v: Canonical %v, reference %v", h, got, want)
		}
		for i := range want.edges {
			if !got.Edge(i).Equal(want.Edge(i)) {
				t.Fatalf("%v: Canonical %v, reference %v", h, got, want)
			}
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%v: fingerprints differ", h)
		}
		// EqualAsFamily is Canonical equality; check it against the
		// reference on this instance and on the previous one.
		if !h.EqualAsFamily(want) {
			t.Fatalf("%v: not EqualAsFamily to its own canonical form", h)
		}
		if prev != nil {
			ref := prev.N() == h.N() && canonicalRef(prev).String() == want.String()
			if prev.EqualAsFamily(h) != ref {
				t.Fatalf("%v vs %v: EqualAsFamily %v, reference %v", prev, h, !ref, ref)
			}
		}
		prev = h
	}
}

func BenchmarkCanonical(b *testing.B) {
	h := MustFromEdges(10, append(subsets(10, 2)[:20], subsets(10, 2)[:5]...))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Canonical()
	}
}
