package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"dualspace/internal/core"
	"dualspace/internal/gen"
	"dualspace/internal/hypergraph"
)

// TestDecideContextPreCancelled: a context that is already cancelled aborts
// the tree stage before the first node — the strongest form of the
// "within one tree-node boundary" contract.
func TestDecideContextPreCancelled(t *testing.T) {
	g, h := gen.Matching(3), gen.MatchingDual(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := core.NewDecider().DecideContext(ctx, g, h)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Decider.DecideContext(cancelled) = %v, %v; want context.Canceled", res, err)
	}
	res, err = core.NewDecider().DecideParallel(ctx, g, h, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Decider.DecideParallel(cancelled) = %v, %v; want context.Canceled", res, err)
	}
	if _, _, err := core.NewDecider().NewTransversal(ctx, g, h); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decider.NewTransversal(cancelled) err = %v; want context.Canceled", err)
	}
}

// TestDecideContextBackgroundMatchesDecide: a pinned Decider under a
// background context agrees with the one-shot Decide.
func TestDecideContextBackgroundMatchesDecide(t *testing.T) {
	for _, p := range gen.Families(11) {
		want, err := core.Decide(p.G, p.H)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got, err := core.NewDecider().DecideContext(context.Background(), p.G, p.H)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got.Dual != want.Dual || got.Reason != want.Reason {
			t.Errorf("%s: context verdict %v/%v != %v/%v", p.Name, got.Dual, got.Reason, want.Dual, want.Reason)
		}
	}
}

// cancelMidWalk drives decide on a large dual instance (no fail leaf, so
// the search must visit the whole tree unless aborted) and cancels shortly
// after it starts. Growing instance sizes are tried so the test stays
// robust across machine speeds: on any realistic machine the k=14 instance
// (|H| = 16384) takes far longer than the cancellation delay.
func cancelMidWalk(t *testing.T, decide func(ctx context.Context, g, h *hypergraph.Hypergraph) error) {
	t.Helper()
	for k := 10; k <= 14; k += 2 {
		g, h := gen.Matching(k), gen.MatchingDual(k)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		err := decide(ctx, g, h)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			continue // machine finished the instance before the cancel; grow it
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v; want context.Canceled", k, err)
		}
		// The abort must be prompt: a full walk at these sizes visits a
		// huge number of nodes, while cancellation stops within one node
		// per walker (plus the un-cancellable validation prefix).
		if elapsed > 5*time.Second {
			t.Fatalf("k=%d: cancellation took %v", k, elapsed)
		}
		return
	}
	t.Fatal("no instance up to k=14 was cancelled mid-walk")
}

func TestDecideContextCancelMidWalk(t *testing.T) {
	cancelMidWalk(t, func(ctx context.Context, g, h *hypergraph.Hypergraph) error {
		_, err := core.NewDecider().DecideContext(ctx, g, h)
		return err
	})
}

func TestDecideParallelContextCancelMidWalk(t *testing.T) {
	cancelMidWalk(t, func(ctx context.Context, g, h *hypergraph.Hypergraph) error {
		_, err := core.NewDecider().DecideParallel(ctx, g, h, 4)
		return err
	})
}

// TestDecideParallelContextKeepsEarlyVerdict: when a fail leaf is found
// before the cancellation lands, the valid non-dual verdict survives.
func TestDecideParallelContextKeepsEarlyVerdict(t *testing.T) {
	g := gen.Matching(3)
	h := gen.DropEdge(gen.MatchingDual(3), 0) // non-dual: a witness exists
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := core.NewDecider().DecideParallel(ctx, g, h, 2)
	if err != nil || res.Dual {
		t.Fatalf("expected non-dual verdict, got %v, %v", res, err)
	}
	if !h.IsNewTransversal(res.Witness, g) && !g.IsNewTransversal(res.Witness, h) {
		// Witness orientation depends on Swapped; check the documented one.
		t.Errorf("witness %v is not a new transversal", res.Witness)
	}
}
