package batch

// The Scheduler: one batch = one call to Run with a stream of Requests.
//
// The dominant production pattern for a dualization service is not one
// isolated decision but thousands of related ones per client — the
// dualize-and-advance loop of the itemset miner, key enumeration, or a
// client replaying a workload — and such streams are highly repetitive:
// identical instances, permuted edge orders, renamed-isomorphic copies.
// The scheduler therefore canonicalizes every request, dedups the stream by
// (engine, fingerprint-pair) Key, and runs each distinct instance exactly
// once: the first arrival becomes the entry's leader and is dispatched to a
// drain worker, later duplicates attach as waiters (or are answered
// immediately when the entry is already resolved), and the shared sharded
// Cache answers repeats across batches without any engine work at all.
// This is the pipeline's singleflight idea (resolve.go) applied within the
// batch, with the waiting made free: duplicates never occupy a worker.
//
// Cache hits are answered inline by the producer through the pipeline's
// lookup stage, so hot rows never queue behind workers. Misses drain through
// at most pool-size workers per Run, each running the pipeline's miss path
// (Resolve's flight, peer fill, admission, guarded compute and store), so
// batch entries coalesce with concurrent /v1/decide requests and compete
// for the same admitted compute. Cancelling the Run context aborts the
// whole batch: in-flight decisions stop at the next decomposition-tree node,
// undispatched entries resolve with the context error.

import (
	"context"
	"sync"
	"sync/atomic"

	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
)

// Request is one decision in a batch stream. Index is an opaque caller
// correlation id echoed on the Response (responses are emitted in
// completion order, not stream order). Engine must be the resolved engine
// for EngineName; G and H are the raw inputs (the scheduler canonicalizes).
type Request struct {
	Index      int
	EngineName string
	Engine     engine.Engine
	G, H       *hypergraph.Hypergraph
	// Key, when non-nil, asserts that G and H are already canonical and
	// that *Key is their dedup key — producers that dedup raw request
	// texts upstream (the /v1/batch handler) compute it once per distinct
	// text, and the scheduler then skips per-duplicate canonicalization
	// and fingerprinting, the second-largest per-row cost after parsing.
	Key *Key
	// RawG and RawH, when set, carry the original (pre-canonicalization)
	// request texts of G and H for Config.Fill. A peer replica must parse
	// the same bytes the local parse saw — hgio interns vertex names in
	// first-appearance order, so identical text yields identical integer
	// structure, identical canonical fingerprints, and witness indices
	// valid on both sides; a re-rendering of the canonical form would not.
	RawG, RawH string
	// Meta is opaque caller context echoed verbatim on this request's
	// Response (each duplicate keeps its own Meta, whichever request led).
	Meta any
}

// Response is the outcome of one Request. Res is detached and immutable
// (shared between all duplicates of the instance); G and H are the
// canonical forms its edge indices refer to. Exactly one of Res/Err is
// non-nil. Source is where the entry's verdict came from (any Source but
// SourceComputed: no engine ran for it here); Deduped marks responses that
// coalesced onto another request of the same batch.
type Response struct {
	Index   int
	G, H    *hypergraph.Hypergraph
	Res     *core.Result
	Err     error
	Source  Source
	Deduped bool
	// Meta echoes the request's Meta field.
	Meta any
}

// Config parameterizes a Scheduler.
type Config struct {
	// Pool supplies the sessions decisions run on; required.
	Pool *engine.SessionPool
	// Cache is the shared verdict cache; nil or disabled means every
	// distinct instance is decided.
	Cache *Cache
	// Acquire is the admission stage: it claims a session of Pool for one
	// compute (nil: Pool.Acquire). The service points it at its bounded
	// admission queue; its errors (sheds, budget) are returned unchanged.
	// The pipeline releases the session to Pool.
	Acquire func(ctx context.Context) (*engine.Session, error)
	// Metrics, when non-nil, receives every computed verdict's wall time
	// and stage timings under its resolved engine name (obs.DecideMetrics
	// preregisters the histograms, so the update allocates nothing).
	Metrics *obs.DecideMetrics
	// OnPanic, when non-nil, receives every panic the compute step
	// contains: the recovered value and the panicking goroutine's stack.
	// The service bridges it to its slog record and dualspace_panics_total
	// counter. Must not itself panic.
	OnPanic func(v any, stack []byte)
	// Fill, when non-nil, is the peer-fill stage, consulted for a missed
	// query with raw texts before admission: given the key and the raw
	// request texts, it may return a flattened verdict obtained elsewhere
	// (the service bridges it to the cluster peer client), which the
	// pipeline decodes and checks against the query's instance before
	// using it. A false return means "compute locally"; Fill must never
	// block long — it runs on the request's time budget.
	Fill func(ctx context.Context, key Key, rawG, rawH string) (*core.Verdict, bool)
	// OnStore, when non-nil, observes every verdict the pipeline adds to the
	// cache (computed or peer-filled, never cache hits), with the vertex
	// universe its witness indices refer to. The service bridges it to the
	// verdict log. Must not block.
	OnStore func(key Key, res *core.Result, n int)
}

// Stats is a snapshot of a Scheduler's lifetime counters (the /statsz
// "batch" block).
type Stats struct {
	Batches   int64 `json:"batches"`
	Active    int64 `json:"active"`
	Items     int64 `json:"items"`
	Unique    int64 `json:"unique"`
	Deduped   int64 `json:"deduped"`
	CacheHits int64 `json:"cache_hits"`
	Decisions int64 `json:"decisions"`
	Errors    int64 `json:"errors"`
	Panics    int64 `json:"panics"`
	// PeerFills counts the peer verdicts (Config.Fill) that passed the
	// check, on every path; InvalidFills those that failed to decode, to
	// name their instance's universe or to fit it (core.CheckVerdict) and
	// were computed locally — the service shows it as the cluster block's
	// invalid_verdicts, not in this block; InvalidHits the cache hits that
	// did not fit and were answered as misses.
	PeerFills    int64 `json:"peer_fills"`
	InvalidFills int64 `json:"-"`
	InvalidHits  int64 `json:"invalid_hits"`
}

// RunStats summarizes one Run: Items = requests consumed, Unique = distinct
// canonical instances, Deduped = responses coalesced onto an in-batch
// duplicate, CacheHits = entries answered by the shared cache or by another
// request's in-flight resolution, Decisions = engine runs completed, Errors
// = responses carrying an error.
type RunStats struct {
	Items, Unique, Deduped, CacheHits, Decisions, Errors int
	// PeerFills counts entries answered by Config.Fill.
	PeerFills int
}

// Scheduler resolves verdicts (Resolve) and drains batches; safe for
// concurrent use. Concurrent Runs share the pool, the cache, the flights
// and the lifetime counters; each dedups its own stream, and cross-request
// sharing happens through the cache and the flights.
type Scheduler struct {
	cfg     Config
	flights flightGroup

	batches   atomic.Int64
	active    atomic.Int64
	items     atomic.Int64
	unique    atomic.Int64
	deduped   atomic.Int64
	cacheHits atomic.Int64
	decisions atomic.Int64
	errors    atomic.Int64
	panics    atomic.Int64
	fills     atomic.Int64
	badFills  atomic.Int64
	badHits   atomic.Int64
}

// NewScheduler returns a Scheduler over cfg; cfg.Pool must be non-nil.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Pool == nil {
		panic("batch: NewScheduler without a session pool")
	}
	if cfg.Acquire == nil {
		cfg.Acquire = cfg.Pool.Acquire
	}
	return &Scheduler{cfg: cfg, flights: flightGroup{m: make(map[Key]*flight)}}
}

// Stats snapshots the lifetime counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Batches:      s.batches.Load(),
		Active:       s.active.Load(),
		Items:        s.items.Load(),
		Unique:       s.unique.Load(),
		Deduped:      s.deduped.Load(),
		CacheHits:    s.cacheHits.Load(),
		Decisions:    s.decisions.Load(),
		Errors:       s.errors.Load(),
		Panics:       s.panics.Load(),
		PeerFills:    s.fills.Load(),
		InvalidFills: s.badFills.Load(),
		InvalidHits:  s.badHits.Load(),
	}
}

// entry is one distinct canonical instance within a Run. Fields past q are
// guarded by the Run's mu until resolved flips true; afterwards res, err
// and src are immutable.
type entry struct {
	q        Query
	leader   Request
	resolved bool
	res      *core.Result
	err      error
	src      Source
	waiters  []Request
}

// Run consumes reqs until the channel closes, emitting one Response per
// Request through emit (serially — emit is never called concurrently) and
// returning the batch's statistics. Cancelling ctx fails the remaining
// requests with ctx's error but still drains the channel, so producers
// never block on a dead batch.
func (s *Scheduler) Run(ctx context.Context, reqs <-chan Request, emit func(Response)) RunStats {
	return s.RunN(ctx, 0, reqs, emit)
}

// RunN is Run with at most parallelism drain workers (<= 0 or beyond the
// pool size: the pool size) — the ?parallelism= knob of POST /v1/batch.
func (s *Scheduler) RunN(ctx context.Context, parallelism int, reqs <-chan Request, emit func(Response)) RunStats {
	if parallelism <= 0 || parallelism > s.cfg.Pool.Size() {
		parallelism = s.cfg.Pool.Size()
	}
	s.batches.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	var (
		mu      sync.Mutex // entries map, waiter lists, rs
		emitMu  sync.Mutex // serializes emit
		rs      RunStats
		entries = make(map[Key]*entry)
		work    = make(chan *entry)
		wg      sync.WaitGroup
	)
	send := func(r Response) {
		emitMu.Lock()
		emit(r)
		emitMu.Unlock()
	}
	respond := func(e *entry, req Request, deduped bool) {
		send(Response{
			Index: req.Index, G: e.q.G, H: e.q.H,
			Res: e.res, Err: e.err,
			Source: e.src, Deduped: deduped,
			Meta: req.Meta,
		})
	}
	// finish resolves e and answers its leader and waiters.
	finish := func(e *entry, out Outcome, err error) {
		mu.Lock()
		e.resolved, e.res, e.err, e.src = true, out.Res, err, out.Source
		ws := e.waiters
		e.waiters = nil
		switch {
		case err != nil:
			rs.Errors += 1 + len(ws)
		case out.Source == SourcePeer:
			rs.PeerFills++
		case out.Source == SourceComputed:
			rs.Decisions++
		default:
			rs.CacheHits++
		}
		rs.Deduped += len(ws)
		mu.Unlock()
		respond(e, e.leader, false)
		for _, wr := range ws {
			respond(e, wr, true)
		}
	}

	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range work {
				out, err := s.resolveMiss(ctx, &e.q)
				finish(e, out, err)
			}
		}()
	}

	for req := range reqs {
		mu.Lock()
		rs.Items++
		mu.Unlock()
		if err := ctx.Err(); err != nil {
			// Dead batch: keep draining so the producer can finish, but
			// answer without touching the dedup state or the workers.
			mu.Lock()
			rs.Errors++
			mu.Unlock()
			send(Response{Index: req.Index, Err: err, Meta: req.Meta})
			continue
		}
		q := Query{Engine: req.Engine, G: req.G, H: req.H, RawG: req.RawG, RawH: req.RawH}
		if req.Key != nil {
			q.Key = *req.Key
		} else {
			q.G, q.H = req.G.Canonical(), req.H.Canonical()
			q.Key = NewKey(req.EngineName, q.G.Fingerprint(), q.H.Fingerprint())
		}
		mu.Lock()
		if e, ok := entries[q.Key]; ok {
			if e.resolved {
				rs.Deduped++
				if e.err != nil {
					rs.Errors++
				}
				mu.Unlock()
				respond(e, req, true)
			} else {
				e.waiters = append(e.waiters, req)
				mu.Unlock()
			}
			continue
		}
		e := &entry{q: q, leader: req}
		entries[q.Key] = e
		rs.Unique++
		mu.Unlock()
		out, hit := s.lookup(ctx, &e.q)
		if hit {
			finish(e, out, nil)
			continue
		}
		e.q.lookup = out.Lookup
		select {
		case work <- e:
		case <-ctx.Done():
			// Batch cancelled with this entry undispatched.
			finish(e, Outcome{}, ctx.Err())
		}
	}
	close(work)
	wg.Wait()

	s.items.Add(int64(rs.Items))
	s.unique.Add(int64(rs.Unique))
	s.deduped.Add(int64(rs.Deduped))
	s.cacheHits.Add(int64(rs.CacheHits))
	s.decisions.Add(int64(rs.Decisions))
	s.errors.Add(int64(rs.Errors))
	return rs
}
