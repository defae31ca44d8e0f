package itemsets

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/engine"
	"dualspace/internal/hypergraph"
)

// randomDataset builds a small random transaction database.
func randomDataset(r *rand.Rand, items, rows int) *Dataset {
	d := NewDataset(items)
	for i := 0; i < rows; i++ {
		var row []int
		for v := 0; v < items; v++ {
			if r.Intn(2) == 0 {
				row = append(row, v)
			}
		}
		d.AddRow(row...)
	}
	return d
}

// TestComputeBordersStreamMatchesFinal: the streamed events, accumulated,
// must be exactly the returned borders — same elements, same order of
// discovery as the hypergraph edge order, non-decreasing check counter.
func TestComputeBordersStreamMatchesFinal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r, 4+int(seed%3), 6)
		z := 1 + r.Intn(d.NumRows())

		gotMax := hypergraph.New(d.NumItems())
		gotMin := hypergraph.New(d.NumItems())
		lastCheck := 0
		b, err := ComputeBordersStreamWith(context.Background(), d, z, engine.Default(),
			func(ev BorderEvent) error {
				if ev.DualityChecks < lastCheck {
					t.Fatalf("seed %d: check counter regressed %d -> %d", seed, lastCheck, ev.DualityChecks)
				}
				lastCheck = ev.DualityChecks
				if ev.MaxFrequent {
					gotMax.AddEdge(ev.Set.Clone())
				} else {
					gotMin.AddEdge(ev.Set.Clone())
				}
				return nil
			})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !gotMax.EqualAsFamily(b.MaxFrequent) || !gotMin.EqualAsFamily(b.MinInfrequent) {
			t.Fatalf("seed %d: streamed borders differ from returned borders", seed)
		}
		// And from the brute-force oracle.
		want, err := BordersBrute(d, z)
		if err != nil {
			t.Fatal(err)
		}
		if !gotMax.Canonical().EqualAsFamily(want.MaxFrequent) ||
			!gotMin.Canonical().EqualAsFamily(want.MinInfrequent) {
			t.Fatalf("seed %d: streamed borders differ from brute force", seed)
		}
	}
}

// TestComputeBordersStreamAbort: a callback error aborts the mining and
// surfaces unchanged.
func TestComputeBordersStreamAbort(t *testing.T) {
	d := NewDataset(4)
	d.AddRow(0, 1)
	d.AddRow(0, 1)
	d.AddRow(2, 3)
	sentinel := errors.New("stop here")
	calls := 0
	_, err := ComputeBordersStreamWith(context.Background(), d, 1, engine.Default(),
		func(BorderEvent) error {
			calls++
			return sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after aborting", calls)
	}
}

// TestComputeBordersStreamCancel: a context cancelled from inside onFound
// stops the loop before its next duality check, even when every check
// would be settled by a precheck that never polls ctx.
func TestComputeBordersStreamCancel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := randomDataset(r, 8, 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, err := ComputeBordersStreamWith(ctx, d, 2, engine.Default(),
		func(BorderEvent) error {
			calls++
			cancel()
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("onFound ran %d times after cancellation", calls)
	}
}

// TestComputeBordersStreamDegenerate: the empty-itemset-infrequent case
// still streams its single border element.
func TestComputeBordersStreamDegenerate(t *testing.T) {
	d := NewDataset(3)
	d.AddRow(0)
	var events []BorderEvent
	b, err := ComputeBordersStreamWith(context.Background(), d, 1, engine.Default(),
		func(ev BorderEvent) error {
			events = append(events, BorderEvent{ev.MaxFrequent, ev.Set.Clone(), ev.DualityChecks})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].MaxFrequent || !events[0].Set.Equal(bitset.New(3)) {
		t.Fatalf("events = %+v", events)
	}
	if b.MinInfrequent.M() != 1 || b.MaxFrequent.M() != 0 {
		t.Fatalf("borders = %d/%d", b.MaxFrequent.M(), b.MinInfrequent.M())
	}
}
