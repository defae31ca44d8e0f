package core

// The flattened verdict and its one check. A verdict that was not computed
// for the request it answers — a peer replica's answer, a verdict-log
// record replayed into the cache — crosses a trust boundary. The peer wire
// (internal/cluster) and the verdict log (internal/verdictlog) share the
// flattened form below and only decode it; internal/batch runs
// CheckVerdict where such a verdict meets the instance it is to answer.

import (
	"fmt"
	"math/bits"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
)

// MaxUniverse bounds the vertex universe a flattened verdict may name, so
// that a corrupt N cannot drive a huge bitset allocation while decoding.
const MaxUniverse = 1 << 24

// Verdict is a Result flattened to plain ints: the peer wire's JSON (with
// these tags) and the verdict log's binary record carry the same fields. N
// is the vertex universe the witness elements refer to. Stats are dropped:
// they describe one search, not the instance.
type Verdict struct {
	N               int   `json:"n"`
	Dual            bool  `json:"dual"`
	Reason          int   `json:"reason"`
	Witness         []int `json:"witness,omitempty"`
	CoWitness       []int `json:"co_witness,omitempty"`
	GEdge           int   `json:"g_edge"`
	HEdge           int   `json:"h_edge"`
	RedundantVertex int   `json:"redundant_vertex"`
	FailPath        []int `json:"fail_path,omitempty"`
	Swapped         bool  `json:"swapped"`
}

// Flatten flattens res over the vertex universe n; the fail path aliases
// res's.
func Flatten(res *Result, n int) Verdict {
	v := Verdict{
		N: n, Dual: res.Dual, Reason: int(res.Reason),
		GEdge: res.GEdge, HEdge: res.HEdge, RedundantVertex: res.RedundantVertex,
		FailPath: res.FailPath, Swapped: res.Swapped,
	}
	if !res.Witness.IsEmpty() {
		v.Witness = res.Witness.Elems()
	}
	if !res.CoWitness.IsEmpty() {
		v.CoWitness = res.CoWitness.Elems()
	}
	return v
}

// Result decodes v into a detached Result. It checks only what decoding
// needs: N within MaxUniverse, and each witness listed in increasing order
// within [0, N), the form Flatten writes. Whether the verdict fits an
// instance is CheckVerdict's question.
func (v *Verdict) Result() (*Result, error) {
	if v.N < 0 || v.N > MaxUniverse {
		return nil, fmt.Errorf("core: verdict universe %d outside [0,%d]", v.N, MaxUniverse)
	}
	var sets [2]bitset.Set
	for i, elems := range [2][]int{v.Witness, v.CoWitness} {
		for j, e := range elems {
			if e < 0 || e >= v.N || (j > 0 && e <= elems[j-1]) {
				return nil, fmt.Errorf("core: verdict set element %d is not increasing within [0,%d)", e, v.N)
			}
		}
		if len(elems) > 0 {
			sets[i] = bitset.FromSlice(v.N, elems)
		}
	}
	return &Result{
		Dual: v.Dual, Reason: Reason(v.Reason), Witness: sets[0], CoWitness: sets[1],
		GEdge: v.GEdge, HEdge: v.HEdge, RedundantVertex: v.RedundantVertex,
		FailPath: v.FailPath, Swapped: v.Swapped,
	}, nil
}

// verdictIndices says which of GEdge, HEdge and RedundantVertex a reason
// names; the others hold the -1 sentinel.
var verdictIndices = [...]struct{ g, h, v bool }{
	ReasonNotCrossIntersecting: {g: true, h: true},
	ReasonHEdgeNotMinimal:      {h: true, v: true},
	ReasonGEdgeNotMinimal:      {g: true, v: true},
	ReasonNewTransversal:       {},
}

// CheckVerdict checks that res is shaped to answer the instance (g, h):
//   - its reason is known and Dual agrees with it;
//   - GEdge, HEdge and RedundantVertex lie in [0,|G|), [0,|H|) and [0,|V|)
//     when the reason names them and are -1 otherwise;
//   - a witness or co-witness that is present is a set over V, and a new
//     transversal has a witness;
//   - a fail path, which only a new transversal carries, fits Theorem 5.1's
//     certificate: at most ⌊log₂ min(|G|,|H|)⌋ entries (the tree runs with
//     the smaller side as H), each in [1, |V|·max(|G|,|H|)].
//
// It does not check the claim itself. It runs in O(|fail path|) and
// allocates nothing unless it rejects, so it is cheap enough for every
// cache hit.
func CheckVerdict(g, h *hypergraph.Hypergraph, res *Result) error {
	n, mg, mh := g.N(), g.M(), h.M()
	if res.Reason < ReasonDual || res.Reason > ReasonNewTransversal {
		return fmt.Errorf("core: verdict reason %d unknown", int(res.Reason))
	}
	if res.Dual != (res.Reason == ReasonDual) {
		return fmt.Errorf("core: verdict dual=%v with reason %q", res.Dual, res.Reason)
	}
	want := verdictIndices[res.Reason]
	if !fits(res.GEdge, mg, want.g) || !fits(res.HEdge, mh, want.h) || !fits(res.RedundantVertex, n, want.v) {
		return fmt.Errorf("core: verdict %q names g_edge %d, h_edge %d, redundant vertex %d on |G|=%d, |H|=%d, |V|=%d",
			res.Reason, res.GEdge, res.HEdge, res.RedundantVertex, mg, mh, n)
	}
	wu, cu := res.Witness.Universe(), res.CoWitness.Universe()
	if (wu != 0 && wu != n) || (cu != 0 && cu != n) || (res.Reason == ReasonNewTransversal && wu != n) {
		return fmt.Errorf("core: verdict witness universes %d and %d on |V|=%d", wu, cu, n)
	}
	if len(res.FailPath) == 0 {
		return nil
	}
	maxLen, maxLabel := bits.Len(uint(min(mg, mh)))-1, n*max(mg, mh)
	if res.Reason != ReasonNewTransversal || len(res.FailPath) > maxLen {
		return fmt.Errorf("core: verdict %q has a fail path of %d entries, bound %d", res.Reason, len(res.FailPath), maxLen)
	}
	for _, l := range res.FailPath {
		if l < 1 || l > maxLabel {
			return fmt.Errorf("core: verdict fail-path entry %d outside [1,%d]", l, maxLabel)
		}
	}
	return nil
}

// fits reports whether index i is valid below m when named and the -1
// sentinel when not.
func fits(i, m int, named bool) bool {
	if named {
		return 0 <= i && i < m
	}
	return i == -1
}
