package batch

// Resolve: the one verdict-resolution pipeline. Every verdict the service
// hands out — /v1/decide, /v1/cluster/verdict and every /v1/batch entry —
// comes out of the same stage chain:
//
//	cache lookup → flight join → peer fill → admission → guarded compute → store
//
// so every path gets the same cache-fault degradation, singleflight
// coalescing, peer fill, admission control, panic containment, stage timing
// and verdict logging. The batch producer answers cache hits inline through
// the lookup stage; its drain workers run the rest (resolveMiss).

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/faultinject"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
)

// Source says where a resolved verdict came from.
type Source uint8

const (
	// SourceComputed: an engine ran on a pooled session for this request.
	SourceComputed Source = iota
	// SourceCache: the shared verdict cache held the verdict.
	SourceCache
	// SourceCoalesced: another request's in-flight resolution of the same
	// key produced it.
	SourceCoalesced
	// SourcePeer: Config.Fill obtained it from a peer replica.
	SourcePeer
)

var sourceNames = [...]string{"computed", "cache_hit", "coalesced", "peer_fill"}

// String returns the source's access-log outcome name.
func (s Source) String() string { return sourceNames[s] }

// Query is one verdict to resolve. G and H must be canonical and Key their
// key.
type Query struct {
	Key    Key
	Engine engine.Engine
	G, H   *hypergraph.Hypergraph
	// RawG and RawH are the request texts Config.Fill sends to a peer (see
	// Request.RawG); leaving either empty skips peer fill, which is how a
	// request that is itself a peer's fill never fans out again.
	RawG, RawH string
	// Parse and Canon are the caller's own stage times, folded into the
	// stage histograms of a computed verdict.
	Parse, Canon time.Duration
	lookup       time.Duration
}

// Outcome is one resolved verdict. Res is detached and immutable (shared
// with the cache and every coalesced request). On error, Source is
// SourceCoalesced when the error was shared from another request's compute
// step.
type Outcome struct {
	Res    *core.Result
	Source Source
	// Lookup is the cache probe's time; Stages the stage timings of a
	// computed verdict (zero for every other source).
	Lookup time.Duration
	Stages obs.StageTimings
}

// Resolve answers q from the cache when it can and otherwise runs the miss
// path: coalesce with an identical in-flight resolution, or lead one. The
// cache-hit path takes no lock beyond the cache shard's and allocates
// nothing.
func (s *Scheduler) Resolve(ctx context.Context, q Query) (Outcome, error) {
	out, hit := s.lookup(ctx, &q)
	if hit {
		return out, nil
	}
	q.lookup = out.Lookup
	out, err := s.resolveMiss(ctx, &q)
	out.Lookup = q.lookup
	return out, err
}

// lookup is the cache stage. An injected cache fault degrades to a miss: a
// broken cache costs computation, never correctness or availability. So
// does a cached verdict that does not fit q's instance (say, a corrupt log
// record replayed into the cache); the recompute replaces the entry.
func (s *Scheduler) lookup(ctx context.Context, q *Query) (out Outcome, hit bool) {
	t0 := time.Now()
	out.Source = SourceCache
	if s.cfg.Cache != nil && faultinject.Fire(ctx, faultinject.PointCacheLookup) == nil {
		// The shard counts the lookup only after the check, so a rejected
		// entry shows as the miss it is answered as.
		res, shard := s.cfg.Cache.peek(q.Key)
		if res != nil && core.CheckVerdict(q.G, q.H, res) != nil {
			s.badHits.Add(1)
			res = nil
		}
		shard.count(res != nil)
		out.Res, hit = res, res != nil
	}
	out.Lookup = time.Since(t0)
	return out, hit
}

// resolveMiss is the flight stage: the first request for a key leads its
// resolution, later ones wait for the leader's outcome instead of running a
// duplicate. A waiter whose own context ends stops waiting; when the
// leader's own client or budget ended its run, the waiters race for
// leadership again.
func (s *Scheduler) resolveMiss(ctx context.Context, q *Query) (Outcome, error) {
	for {
		f, leader := s.flights.join(q.Key)
		if leader {
			return s.lead(ctx, q, f)
		}
		f.waiters.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			f.waiters.Add(-1)
			return Outcome{}, context.Cause(ctx)
		}
		f.waiters.Add(-1)
		switch {
		case f.retry:
		case f.err == nil || f.shared:
			// A verdict, or a compute error identical inputs would repeat.
			return Outcome{Res: f.res, Source: SourceCoalesced}, f.err
		default:
			// The leader was refused admission: so is this request.
			return Outcome{}, f.err
		}
	}
}

// lead runs the stages behind the flight — peer fill, admission, guarded
// compute, store — and publishes the outcome to the followers, success or
// not: a flight left open would strand every waiter.
func (s *Scheduler) lead(ctx context.Context, q *Query, f *flight) (out Outcome, err error) {
	admitted := false
	defer func() {
		// A failure after the leader's own context ended says nothing about
		// the instance, so the followers retry rather than share it.
		f.res, f.err = out.Res, err
		f.retry = err != nil && ctx.Err() != nil
		f.shared = admitted
		s.flights.finish(q.Key, f)
	}()
	if err := ctx.Err(); err != nil {
		return Outcome{}, context.Cause(ctx)
	}
	n := q.G.N()
	if s.cfg.Fill != nil && q.RawG != "" && q.RawH != "" {
		if v, ok := s.cfg.Fill(ctx, q.Key, q.RawG, q.RawH); ok {
			// A peer's verdict must decode, name q's universe and fit
			// q's instance; one that fails any of these is counted and
			// computed locally.
			if res, err := v.Result(); err == nil && v.N == n && core.CheckVerdict(q.G, q.H, res) == nil {
				s.fills.Add(1)
				s.store(q.Key, res, n)
				return Outcome{Res: res, Source: SourcePeer}, nil
			}
			s.badFills.Add(1)
		}
	}
	sess, err := s.cfg.Acquire(ctx)
	if err != nil {
		return Outcome{}, err
	}
	admitted = true
	out, err = s.compute(ctx, sess, q)
	s.cfg.Pool.Release(sess)
	if err == nil {
		s.store(q.Key, out.Res, n)
	}
	return out, err
}

// compute is the guarded compute step: the decide fault point and one
// decision on a held session, behind the pipeline's only recover()
// boundary, timed into Config.Metrics. containPanic is installed as a
// deferred method call, not a closure: a deferred method whose pointer
// arguments stay within this frame keeps the happy path allocation-free
// where a capturing func literal would not.
//
//dual:allocfree
func (s *Scheduler) compute(ctx context.Context, sess *engine.Session, q *Query) (out Outcome, err error) {
	defer s.containPanic(sess, &out, &err)
	// The fault point fires behind the recover boundary on the held
	// session, so an injected panic exercises the same poison-and-replace
	// path a real kernel panic would.
	if err := faultinject.Fire(ctx, faultinject.PointDecide); err != nil {
		return out, err
	}
	rec := sess.Recorder()
	rec.Reset()
	t0 := time.Now()
	r, err := sess.DecideWith(ctx, q.Engine, q.G, q.H)
	wall := time.Since(t0)
	rec.Add(obs.StageParse, q.Parse)
	rec.Add(obs.StageCanon, q.Canon)
	rec.Add(obs.StageCacheLookup, q.lookup)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Observe(q.Key.Engine, wall, rec)
	}
	if err != nil {
		return out, err
	}
	out.Stages = rec.Timings()
	// Session results alias the session's pinned scratch; the cache, the
	// followers and the response share one detached copy.
	out.Res = r.Clone() //dual:allow(allocfree: detaching the verdict from session scratch is the point)
	return out, nil
}

// containPanic is compute's recover() boundary. On panic it poisons the
// session (the pool mints a replacement on Release), counts it, hands the
// value and stack to Config.OnPanic, and converts the panic into an
// *engine.PanicError so the request and its followers get an answer.
func (s *Scheduler) containPanic(sess *engine.Session, out *Outcome, err *error) {
	v := recover()
	if v == nil {
		return
	}
	sess.MarkPoisoned()
	s.panics.Add(1)
	stack := debug.Stack()
	if s.cfg.OnPanic != nil {
		s.cfg.OnPanic(v, stack)
	}
	*out = Outcome{}
	*err = &engine.PanicError{Val: v, Stack: stack}
}

// store publishes a computed or peer-filled verdict to the cache and to
// Config.OnStore.
func (s *Scheduler) store(key Key, res *core.Result, n int) {
	if s.cfg.Cache != nil {
		s.cfg.Cache.Add(key, res)
	}
	if s.cfg.OnStore != nil {
		s.cfg.OnStore(key, res, n)
	}
}

// flight is one in-progress resolution. Its outcome fields are written by
// the leader before done closes and read by followers only after. retry
// marks a run its leader's own context ended; shared marks an error from
// the compute step. waiters gauges the followers currently blocked.
type flight struct {
	done          chan struct{}
	res           *core.Result
	err           error
	retry, shared bool
	waiters       atomic.Int32
}

// flightGroup deduplicates concurrent resolutions by key.
type flightGroup struct {
	mu sync.Mutex
	m  map[Key]*flight
}

// join returns the flight for key, creating it (leader = true) when none is
// in progress.
func (g *flightGroup) join(key Key) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish releases key for future flights and wakes f's followers.
func (g *flightGroup) finish(key Key, f *flight) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}

// FlightWaiters sums the followers currently blocked across all
// in-progress flights (tests use it to sequence stampedes).
func (s *Scheduler) FlightWaiters() int {
	s.flights.mu.Lock()
	defer s.flights.mu.Unlock()
	n := 0
	for _, f := range s.flights.m {
		n += int(f.waiters.Load())
	}
	return n
}
