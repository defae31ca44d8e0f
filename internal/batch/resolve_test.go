package batch

import (
	"context"
	"testing"

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
