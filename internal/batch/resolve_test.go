package batch

import (
	"context"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/engine"
)

// TestResolveCacheHitAllocFree pins the hot path every repeated verdict
// takes: a cache hit answers before the flight stage and allocates nothing.
func TestResolveCacheHitAllocFree(t *testing.T) {
	s := NewScheduler(Config{Pool: engine.NewSessionPool(nil, 1, 0), Cache: NewCache(16, 0)})
	inst := matchingInstance(3, true)
	g, h := parsePair(t, inst.g, inst.h)
	q := Query{Engine: mustEngine(t, "core"), G: g.Canonical(), H: h.Canonical()}
	q.Key = NewKey("core", q.G.Fingerprint(), q.H.Fingerprint())
	ctx := context.Background()
	if out, err := s.Resolve(ctx, q); err != nil || out.Source != SourceComputed || !out.Res.Dual {
		t.Fatalf("first resolve: %+v, %v", out, err)
	}
	var out Outcome
	allocs := testing.AllocsPerRun(100, func() { out, _ = s.Resolve(ctx, q) })
	if out.Source != SourceCache {
		t.Fatalf("repeat resolved from %v, want the cache", out.Source)
	}
	if allocs != 0 {
		t.Errorf("cache-hit Resolve: %v allocs/op, want 0", allocs)
	}
}

// TestRejectedHitCountsAsShardMiss: a cached verdict that does not fit its
// instance is answered as a miss, and the shard counters must say so — the
// shard hits summed over the cache equal the hits actually served.
func TestRejectedHitCountsAsShardMiss(t *testing.T) {
	cache := NewCache(16, 0)
	s := NewScheduler(Config{Pool: engine.NewSessionPool(nil, 1, 0), Cache: cache})
	inst := matchingInstance(3, true)
	g, h := parsePair(t, inst.g, inst.h)
	q := Query{Engine: mustEngine(t, "core"), G: g.Canonical(), H: h.Canonical()}
	q.Key = NewKey("core", q.G.Fingerprint(), q.H.Fingerprint())
	// Decodes cleanly but names edges the instance does not have.
	cache.Add(q.Key, &core.Result{Reason: core.ReasonNotCrossIntersecting, GEdge: 5, HEdge: -7, RedundantVertex: -1})

	ctx := context.Background()
	served := 0
	for i := 0; i < 3; i++ {
		out, err := s.Resolve(ctx, q)
		if err != nil || !out.Res.Dual {
			t.Fatalf("resolve %d: %+v, %v", i, out, err)
		}
		if out.Source == SourceCache {
			served++
		}
	}
	if served != 2 {
		t.Fatalf("served %d cache hits, want 2 (the planted entry is recomputed once)", served)
	}
	if got := s.Stats().InvalidHits; got != 1 {
		t.Errorf("InvalidHits = %d, want 1", got)
	}
	var hits, misses int64
	for _, st := range cache.Stats() {
		hits += st.Hits
		misses += st.Misses
	}
	if hits != int64(served) || misses != 1 {
		t.Errorf("shard hits/misses = %d/%d, want %d/1", hits, misses, served)
	}
}
