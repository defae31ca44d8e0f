package transversal

import (
	"context"
	"errors"
	"testing"

	"dualspace/internal/hypergraph"
)

// matching returns the k-edge perfect matching, whose 2^k minimal
// transversals make per-transversal allocation costs visible.
func matching(k int) *hypergraph.Hypergraph {
	h := hypergraph.New(2 * k)
	for i := 0; i < k; i++ {
		h.AddEdgeElems(2*i, 2*i+1)
	}
	return h
}

// countTr is CountContext under a background context, which cannot cancel.
func countTr(h *hypergraph.Hypergraph) int {
	c, _ := CountContext(context.Background(), h)
	return c
}

func TestCountMatchesEnumeration(t *testing.T) {
	for k := 1; k <= 8; k++ {
		h := matching(k)
		if got, want := countTr(h), 1<<k; got != want {
			t.Errorf("Count(matching %d) = %d, want %d", k, got, want)
		}
	}
	if got := countTr(hypergraph.New(3)); got != 1 {
		t.Errorf("Count(⊥) = %d, want 1 (tr(∅) = {∅})", got)
	}
	top := hypergraph.New(3)
	top.AddEdge(hypergraph.New(3).Vertices())
	if got := countTr(hypergraph.MustFromEdges(3, [][]int{{}})); got != 0 {
		t.Errorf("Count({∅}) = %d, want 0", got)
	}
}

// TestCountDoesNotMaterialize is the satellite regression guard: counting
// must cost only the enumerator's fixed setup, not one allocation per
// minimal transversal — doubling |tr(h)| from 256 to 1024 must not move the
// per-call allocation count.
func TestCountDoesNotMaterialize(t *testing.T) {
	small, large := matching(8), matching(10) // 256 vs 1024 transversals
	per := func(h *hypergraph.Hypergraph) float64 {
		return testing.AllocsPerRun(10, func() {
			if countTr(h) == 0 {
				t.Fatal("empty count")
			}
		})
	}
	ps, pl := per(small), per(large)
	// The setup cost may grow with the DFS depth (per-depth branch buffers:
	// +2 levels here) but must not grow with the 768 extra transversals —
	// the pre-fix implementation cloned each one.
	if pl > ps+12 {
		t.Errorf("Count allocations grow with |tr(h)|: %d transversals cost %.0f, %d cost %.0f",
			256, ps, 1024, pl)
	}
}

func TestCountContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := CountContext(ctx, matching(6))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled count err = %v", err)
	}
	if n != 0 {
		t.Errorf("count before first node = %d", n)
	}
}
