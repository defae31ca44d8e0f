// Lock-scope fixture: mutexes held across decisions and channel sends.
// The engine/session types are the real ones, imported from the module, so
// the receiver-type matching under test is the production configuration.
package fixture

import (
	"context"
	"sync"

	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hypergraph"
)

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]int
}

func decideUnderLock(ctx context.Context, s *cacheShard, ses *engine.Session, g, h *hypergraph.Hypergraph) error {
	s.mu.Lock()
	_, err := ses.Decide(ctx, g, h) // want `Session.Decide called while holding s.mu`
	s.mu.Unlock()
	return err
}

func decideUnderDeferredLock(ctx context.Context, s *cacheShard, eng engine.Engine, g, h *hypergraph.Hypergraph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := eng.Decide(ctx, g, h) // want `Engine.Decide called while holding s.mu`
	return err
}

func searchUnderLock(ctx context.Context, s *cacheShard, d *core.Decider, g, h *hypergraph.Hypergraph, search core.TreeSearch) error {
	s.mu.Lock()
	_, err := d.DecideSearch(ctx, g, h, search) // want `Decider.DecideSearch called while holding s.mu`
	s.mu.Unlock()
	return err
}

func parallelUnderLock(ctx context.Context, s *cacheShard, d *core.Decider, g, h *hypergraph.Hypergraph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := d.DecideParallel(ctx, g, h, 2) // want `Decider.DecideParallel called while holding s.mu`
	return err
}

func sendUnderLock(s *cacheShard, ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `channel send while holding s.mu`
	s.mu.Unlock()
}

func lockDroppedFirst(ctx context.Context, s *cacheShard, ses *engine.Session, g, h *hypergraph.Hypergraph) error {
	s.mu.Lock()
	s.entries["k"] = 1
	s.mu.Unlock()
	_, err := ses.Decide(ctx, g, h) // lock released: clean
	return err
}

func branchBalanced(ctx context.Context, s *cacheShard, ses *engine.Session, g, h *hypergraph.Hypergraph, cached bool) error {
	if cached {
		s.mu.Lock()
		s.entries["k"]++
		s.mu.Unlock()
	}
	_, err := ses.Decide(ctx, g, h) // branch released its lock: clean
	return err
}

func sendAfterUnlockInSelect(s *cacheShard, ch chan int, done chan struct{}) {
	s.mu.Lock()
	v := s.entries["k"]
	s.mu.Unlock()
	select {
	case ch <- v: // clean
	case <-done:
	}
}

func suppressedHandoff(ctx context.Context, s *cacheShard, ses *engine.Session, g, h *hypergraph.Hypergraph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := ses.Decide(ctx, g, h) //dual:allow(lockscope: single-threaded test shard)
	return err
}

func goroutineBody(s *cacheShard, ch chan int) {
	go func() {
		s.mu.Lock()
		ch <- 1 // want `channel send while holding s.mu`
		s.mu.Unlock()
	}()
}

// Resilience code shapes (PR 9): a session pool that swaps poisoned
// sessions for fresh ones under its roster lock. The slot hand-back is a
// channel send — holding the roster lock across it couples the lock to
// pool-channel backpressure (every Acquire would contend on a send that
// may never complete), so the send must happen after Unlock, exactly as
// engine.SessionPool.Release does.
type sessionRoster struct {
	mu    sync.Mutex
	all   []*engine.Session
	slots chan *engine.Session
}

func replaceUnderLock(p *sessionRoster, fresh *engine.Session) {
	p.mu.Lock()
	p.all[0] = fresh
	p.slots <- fresh // want `channel send while holding p.mu`
	p.mu.Unlock()
}

func replaceThenRelease(p *sessionRoster, fresh *engine.Session) {
	p.mu.Lock()
	p.all[0] = fresh
	p.mu.Unlock()
	p.slots <- fresh // roster updated under the lock, slot handed back outside: clean
}

func decideDuringSwap(ctx context.Context, p *sessionRoster, ses *engine.Session, g, h *hypergraph.Hypergraph) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := ses.Decide(ctx, g, h) // want `Session.Decide called while holding p.mu`
	return err
}
