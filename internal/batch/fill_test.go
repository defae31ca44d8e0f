package batch

import (
	"context"
	"sync"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/engine"
)

// TestSchedulerFillHook: a Fill that answers every entry means zero engine
// decisions, PeerFills per distinct instance, cached responses for all
// rows, and one OnStore per filled entry.
func TestSchedulerFillHook(t *testing.T) {
	pool := engine.NewSessionPool(nil, 2, 0)
	cache := NewCache(64, 0)
	eng, err := engine.ByName("core")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	fills, stores := 0, 0
	var storedN []int
	s := NewScheduler(Config{
		Pool:  pool,
		Cache: cache,
		Fill: func(ctx context.Context, key Key, rawG, rawH string) (*core.Verdict, bool) {
			mu.Lock()
			fills++
			mu.Unlock()
			if rawG == "" || rawH == "" {
				t.Errorf("fill for %v received empty raw texts", key)
			}
			return &core.Verdict{N: 4, Dual: true, GEdge: -1, HEdge: -1, RedundantVertex: -1}, true
		},
		OnStore: func(key Key, res *core.Result, n int) {
			mu.Lock()
			stores++
			storedN = append(storedN, n)
			mu.Unlock()
		},
	})

	inst := matchingInstance(2, true)
	reqs := make(chan Request)
	go func() {
		defer close(reqs)
		for i := 0; i < 6; i++ {
			g, h := parsePair(t, inst.g, inst.h)
			reqs <- Request{
				Index: i, EngineName: "core", Engine: eng,
				G: g, H: h, RawG: inst.g, RawH: inst.h,
			}
		}
	}()
	var cachedRows int
	rs := s.Run(context.Background(), reqs, func(resp Response) {
		if resp.Err != nil {
			t.Errorf("row %d: %v", resp.Index, resp.Err)
		}
		if resp.Source != SourceComputed {
			cachedRows++
		}
	})
	if rs.Decisions != 0 {
		t.Fatalf("fill hook did not preempt engine runs: %+v", rs)
	}
	if rs.PeerFills != 1 || rs.Unique != 1 {
		t.Fatalf("expected 1 peer fill for 1 unique instance: %+v", rs)
	}
	mu.Lock()
	defer mu.Unlock()
	if fills != 1 || stores != 1 {
		t.Fatalf("fills=%d stores=%d, want 1/1", fills, stores)
	}
	if len(storedN) != 1 || storedN[0] <= 0 {
		t.Fatalf("OnStore universe = %v", storedN)
	}
	if cachedRows != 6 {
		t.Fatalf("peer-filled rows reported cached=%d of 6", cachedRows)
	}
	if st := s.Stats(); st.PeerFills != 1 {
		t.Fatalf("lifetime PeerFills = %d", st.PeerFills)
	}
}

// TestSchedulerFillDeclined: a declining Fill leaves behavior identical to
// no Fill at all — the engine decides, OnStore still observes the stored
// verdict.
func TestSchedulerFillDeclined(t *testing.T) {
	pool := engine.NewSessionPool(nil, 2, 0)
	eng, err := engine.ByName("core")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	stores := 0
	s := NewScheduler(Config{
		Pool:  pool,
		Cache: NewCache(64, 0),
		Fill: func(ctx context.Context, key Key, rawG, rawH string) (*core.Verdict, bool) {
			return nil, false
		},
		OnStore: func(key Key, res *core.Result, n int) {
			mu.Lock()
			stores++
			mu.Unlock()
		},
	})
	inst := matchingInstance(2, true)
	reqs := make(chan Request, 1)
	g, h := parsePair(t, inst.g, inst.h)
	reqs <- Request{EngineName: "core", Engine: eng, G: g, H: h, RawG: inst.g, RawH: inst.h}
	close(reqs)
	rs := s.Run(context.Background(), reqs, func(resp Response) {
		if resp.Err != nil {
			t.Errorf("row error: %v", resp.Err)
		}
		if !resp.Res.Dual {
			t.Error("2-matching verdict should be dual")
		}
	})
	if rs.Decisions != 1 || rs.PeerFills != 0 {
		t.Fatalf("declined fill changed scheduling: %+v", rs)
	}
	mu.Lock()
	defer mu.Unlock()
	if stores != 1 {
		t.Fatalf("OnStore fired %d times for 1 computed verdict", stores)
	}
}
