package core

// Work-stealing parallel tree search. The Boros–Makino decomposition was
// introduced as a parallel algorithm (their ICALP 2009 result runs it on an
// EREW PRAM in O(log²n) time; Gottlob's §1 recounts this), because the
// tree's subtrees are completely independent: each node is a pure function
// of its set Sα. DecideParallel exploits exactly that independence.
//
// The scheduler is a fixed pool of P workers, each owning a bounded LIFO
// deque of subtree frames (deque.go). At an internal node a worker keeps
// the first child for itself — descending by removed-vertex diffs on its
// incremental scratch, exactly like the serial walker — and publishes the
// remaining children as frames. When the walk returns it reclaims its own
// unstolen frames newest-first (popIf, so the scratch still matches their
// parent and the diff descent stays O(changed)); only frames STOLEN by an
// idle worker pay a full syncTo re-synchronization at the subtree root.
// Thieves steal from the bottom of a random victim's deque — the
// shallowest, largest-expected subtree — so skewed trees (majority-N's one
// deep branch) keep every worker busy instead of serializing behind a
// single spawn chain, and the steal count stays logarithmic in practice.
//
// Verdict protocol and bounds are unchanged from the spawn-per-subtree
// model this replaces: every worker polls cancellation at every node (one
// tree-node drain bound), the first fail leaf recorded wins (any fail
// witness is equally valid; tests check validity), and a context
// cancellation that beats every fail leaf surfaces ctx.Err(). Termination
// is a counter of outstanding frames (published or being walked): it hits
// zero exactly when the whole tree is done. Idle workers park on a bounded
// hint channel; a hint is sent per publish, and a worker about to park
// while every peer is also idle and frames remain re-scans instead of
// sleeping, so no frame can be stranded by a lost wakeup.
//
// The search object (deques, frame free list, worker states, scratch pool)
// is recycled through a package pool, so steady-state decisions allocate
// only the per-run channels and goroutines, independent of tree size.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
)

// Cumulative scheduler totals across every parallel search in the process,
// for the observability bridges (service/obs.go reads them at scrape time).
var (
	totalSteals    atomic.Int64
	totalSpawns    atomic.Int64
	totalIdleParks atomic.Int64
)

// ParallelSearchTotals reports process-wide work-stealing counters: frames
// published for stealing, frames actually stolen, and idle worker parks.
func ParallelSearchTotals() (spawns, steals, idleParks int64) {
	return totalSpawns.Load(), totalSteals.Load(), totalIdleParks.Load()
}

// stealSearch is the recyclable state of one work-stealing search run.
type stealSearch struct {
	g, h    *hypergraph.Hypergraph
	gi, hi  *hypergraph.Index
	workers int

	states  sync.Pool    // of *walkState; scratch storage survives across runs
	deques  []frameDeque // one per worker
	wrk     []stealWorker
	leafBy  []int64 // leaves classified per worker (fairness signal)
	freeMu  sync.Mutex
	free    *stealFrame // frame free list, retained across runs
	wg      sync.WaitGroup
	work    chan struct{} // bounded wake hints, one send per publish
	stop    chan struct{} // closed by the first fail leaf
	allDone chan struct{} // closed when outstanding hits zero
	done    <-chan struct{}
	once    sync.Once // guards close(stop)
	dOnce   sync.Once // guards close(allDone)

	outstanding atomic.Int64 // frames published or being walked
	idle        atomic.Int64 // workers currently parking

	mu       sync.Mutex
	failT    bitset.Set
	failPath []int
	failSet  bool

	nodes, leaves, steals, spawns, idleParks atomic.Int64
	maxDepth, maxChildren                    int64
	stealNs                                  atomic.Int64 // syncTo time on stolen frames
	drained                                  atomic.Int32 // ctx cancellation observed
	traceSteals                              bool
}

// stealWorker is one worker's run state: node-local counters (flushed once
// at exit, so the hot path pays no atomics) and the xorshift cursor that
// randomizes victim choice.
type stealWorker struct {
	p                                    *stealSearch
	id                                   int
	seq                                  uint64 // batch counter behind the popIf tags
	rng                                  uint64
	nodes, leaves, steals, spawns, parks int64
	maxDepth, maxChildren                int64
	stealNs                              int64
}

var searchPool sync.Pool // of *stealSearch

// acquireStealSearch readies a pooled (or fresh) search for one run.
func acquireStealSearch(ctx context.Context, g, h *hypergraph.Hypergraph, gi, hi *hypergraph.Index, workers int, rec *obs.Recorder) *stealSearch {
	var p *stealSearch
	if v := searchPool.Get(); v != nil {
		p = v.(*stealSearch)
	} else {
		p = &stealSearch{}
		p.states.New = func() any {
			return &walkState{sc: &scratch{}}
		}
	}
	p.g, p.h, p.gi, p.hi = g, h, gi, hi
	p.workers = workers
	if cap(p.deques) < workers {
		p.deques = make([]frameDeque, workers)
		p.wrk = make([]stealWorker, workers)
		p.leafBy = make([]int64, workers)
	}
	p.deques = p.deques[:workers]
	p.wrk = p.wrk[:workers]
	p.leafBy = p.leafBy[:workers]
	for i := range p.leafBy {
		p.leafBy[i] = 0
	}
	p.work = make(chan struct{}, workers)
	p.stop = make(chan struct{})
	p.allDone = make(chan struct{})
	p.done = ctx.Done()
	p.once = sync.Once{}
	p.dOnce = sync.Once{}
	p.outstanding.Store(0)
	p.idle.Store(0)
	p.nodes.Store(0)
	p.leaves.Store(0)
	p.steals.Store(0)
	p.spawns.Store(0)
	p.idleParks.Store(0)
	p.stealNs.Store(0)
	p.maxDepth, p.maxChildren = 0, 0
	p.drained.Store(0)
	p.failSet = false
	p.failT = bitset.Set{}
	p.failPath = nil
	p.traceSteals = rec != nil
	return p
}

// trSubsetParallel runs the work-stealing tree search from root (the full
// vertex set) over the pinned walker's current orientation and writes its verdict and statistics into
// res (a fail leaf through st.recordFail, on st's pinned storage). It returns
// false when ctx was cancelled before any fail leaf was recorded (the
// caller surfaces ctx.Err()). The walker's incidence indexes are shared
// read-only by every worker's scratch. With rec attached it records the walk
// wall time net of steal re-synchronization under obs.StageWalk and the
// cumulative steal re-synchronization time under obs.StageWalkSteals; both
// aggregate across workers, so on multi-core runs their sum can exceed the
// walk's wall clock.
func trSubsetParallel(ctx context.Context, st *walkState, root bitset.Set, workers int, rec *obs.Recorder, res *Result) bool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := acquireStealSearch(ctx, st.sc.g, st.sc.h, st.sc.gIdx, st.sc.hIdx, workers, rec)

	// Publish the root (the full vertex set) as the one initial frame;
	// worker 0 finds it in its own deque, everyone else races to steal it or
	// parks.
	f := p.newFrame()
	f.s.CopyFrom(root)
	f.path = f.path[:0]
	f.tag = 0
	p.outstanding.Store(1)
	p.deques[0].push(f)

	t0 := time.Time{}
	if rec != nil {
		t0 = time.Now()
	}
	p.wg.Add(workers)
	for id := 0; id < workers; id++ { //dual:allow(ctxpoll: O(workers) spawn loop; the workers themselves poll ctx at every tree node)
		w := &p.wrk[id]
		*w = stealWorker{p: p, id: id, rng: uint64(id)*0x9E3779B97F4A7C15 + 0x1234567}
		go w.run()
	}
	p.wg.Wait()
	if rec != nil {
		wall := time.Since(t0)
		stealNs := time.Duration(p.stealNs.Load())
		if net := wall - stealNs; net > 0 {
			rec.Add(obs.StageWalk, net)
		}
		rec.Add(obs.StageWalkSteals, stealNs)
	}

	res.Stats = Stats{
		Nodes:       int(p.nodes.Load()),
		Leaves:      int(p.leaves.Load()),
		MaxDepth:    int(atomic.LoadInt64(&p.maxDepth)),
		MaxChildren: int(atomic.LoadInt64(&p.maxChildren)),
		Spawns:      int(p.spawns.Load()),
		Steals:      int(p.steals.Load()),
	}
	for _, n := range p.leafBy {
		if n > 0 {
			res.Stats.LeafWorkers++
		}
	}
	totalSpawns.Add(p.spawns.Load())
	totalSteals.Add(p.steals.Load())
	totalIdleParks.Add(p.idleParks.Load())

	p.mu.Lock()
	failSet, failT, failPath := p.failSet, p.failT, p.failPath
	p.mu.Unlock()
	drained := p.drained.Load() != 0

	// Drain frames a cancellation left behind, then recycle the search.
	for i := range p.deques { //dual:allow(ctxpoll: post-run cleanup after every worker exited; bounded by dequeCap frames per worker)
		for f := p.deques[i].drain(); f != nil; f = p.deques[i].drain() {
			p.releaseFrame(f)
		}
	}
	p.g, p.h, p.gi, p.hi = nil, nil, nil, nil
	p.done = nil
	searchPool.Put(p)

	if failSet {
		st.recordFail(res, failT, failPath)
		return true
	}
	return !drained // drained: cancelled with no verdict reached
}

// newFrame takes a frame off the free list (or allocates one) and fits its
// set storage to the current universe.
func (p *stealSearch) newFrame() *stealFrame {
	p.freeMu.Lock()
	f := p.free
	if f != nil {
		p.free = f.next
	}
	p.freeMu.Unlock()
	if f == nil {
		f = &stealFrame{}
	}
	f.next = nil
	if f.s.Universe() != p.g.N() {
		f.s = bitset.New(p.g.N())
	}
	return f
}

func (p *stealSearch) releaseFrame(f *stealFrame) {
	p.freeMu.Lock()
	f.next = p.free
	p.free = f
	p.freeMu.Unlock()
}

// frameDone retires one outstanding frame; the last one ends the search.
func (p *stealSearch) frameDone() {
	if p.outstanding.Add(-1) == 0 {
		p.dOnce.Do(func() { close(p.allDone) })
	}
}

// hint wakes one parked worker if the hint channel has room; a full channel
// already guarantees pending wakeups.
func (p *stealSearch) hint() {
	select {
	case p.work <- struct{}{}:
	default:
	}
}

func (p *stealSearch) cancelled() bool {
	select {
	case <-p.stop:
		return true
	default:
	}
	if p.done != nil {
		select {
		case <-p.done:
			p.drained.Store(1)
			return true
		default:
		}
	}
	return false
}

func (p *stealSearch) recordFail(t bitset.Set, path []int) {
	p.mu.Lock()
	if !p.failSet {
		p.failSet = true
		p.failT = t.Clone()
		p.failPath = append([]int{}, path...)
	}
	p.mu.Unlock()
	p.once.Do(func() { close(p.stop) })
}

// run is one worker's main loop: bind a pooled walker state to the shared
// instance, then alternate between finding a frame (own deque, then steals)
// and walking its subtree from a full re-synchronization.
func (w *stealWorker) run() {
	p := w.p
	defer p.wg.Done()
	st := p.states.Get().(*walkState)
	st.sc.bindShared(p.g, p.h, p.gi, p.hi)
	st.sc.size()
	for {
		f, stolen := w.next()
		if f == nil {
			break
		}
		st.path = append(st.path[:0], f.path...)
		var t0 time.Time
		if stolen && p.traceSteals {
			t0 = time.Now()
		}
		st.sc.syncTo(f.s)
		if stolen && p.traceSteals {
			w.stealNs += int64(time.Since(t0))
		}
		w.walk(st, f.s, len(f.path))
		p.releaseFrame(f)
		p.frameDone()
	}
	p.states.Put(st)
	p.nodes.Add(w.nodes)
	p.leaves.Add(w.leaves)
	p.steals.Add(w.steals)
	p.spawns.Add(w.spawns)
	p.idleParks.Add(w.parks)
	p.stealNs.Add(w.stealNs)
	p.leafBy[w.id] = w.leaves
	atomicMax(&p.maxDepth, w.maxDepth)
	atomicMax(&p.maxChildren, w.maxChildren)
}

// next returns the worker's next frame, parking when the whole pool is out
// of work; nil means the search ended (verdict reached or cancelled).
func (w *stealWorker) next() (*stealFrame, bool) {
	p := w.p
	for {
		if p.cancelled() {
			return nil, false
		}
		if f, stolen := w.findWork(); f != nil {
			return f, stolen
		}
		idle := p.idle.Add(1)
		if idle == int64(p.workers) && p.outstanding.Load() > 0 {
			// Everyone is idle yet frames remain in some deque (nobody is
			// walking, so outstanding counts only parked frames): re-scan
			// instead of sleeping, so a consumed hint can never strand them.
			p.idle.Add(-1)
			runtime.Gosched()
			continue
		}
		w.parks++
		select {
		case <-p.work:
			p.idle.Add(-1)
		case <-p.stop:
			p.idle.Add(-1)
			return nil, false
		case <-p.allDone:
			p.idle.Add(-1)
			return nil, false
		case <-p.done:
			p.idle.Add(-1)
			p.drained.Store(1)
			return nil, false
		}
	}
}

// findWork checks the worker's own deque, then sweeps the other deques from
// a random start, stealing the bottom (shallowest) frame of the first
// non-empty victim.
func (w *stealWorker) findWork() (*stealFrame, bool) {
	p := w.p
	if f := p.deques[w.id].steal(); f != nil {
		return f, false // own leftover (the root frame, in practice)
	}
	// xorshift64 victim cursor: cheap, per-worker, deterministic seed.
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	off := int(w.rng % uint64(p.workers))
	for i := 0; i < p.workers; i++ {
		v := (off + i) % p.workers
		if v == w.id {
			continue
		}
		if f := p.deques[v].steal(); f != nil {
			w.steals++
			return f, true
		}
	}
	return nil, false
}

// walk classifies s at the given depth on st (whose path buffer holds the
// labels of the ancestors and whose incremental scratch state matches s) and
// descends. The first child is walked inline by removed-vertex diffs; the
// rest are published as steal frames and reclaimed newest-first after the
// inline descent — still by diffs — unless a thief took them meanwhile.
func (w *stealWorker) walk(st *walkState, s bitset.Set, depth int) {
	p := w.p
	if p.cancelled() {
		return
	}
	fr := st.frame(depth)
	v := st.sc.classifyNode(s, fr)
	w.nodes++
	if int64(depth) > w.maxDepth {
		w.maxDepth = int64(depth)
	}
	if v.mark != MarkNil {
		w.leaves++
		if v.mark == MarkFail {
			p.recordFail(st.sc.wit, st.path[:depth])
		}
		return
	}
	if int64(fr.nChildren) > w.maxChildren {
		w.maxChildren = int64(fr.nChildren)
	}

	// Publish children nChildren-1 … 1 (reverse order, so reclaims and
	// steals both see ascending child indexes), keeping child 0 inline.
	// A full deque stops publishing; the remainder is walked inline too.
	pushed := 0
	var tag uint64
	if fr.nChildren > 1 {
		w.seq++
		tag = uint64(w.id+1)<<32 | w.seq
		for i := fr.nChildren - 1; i >= 1; i-- {
			f := p.newFrame()
			f.s.CopyFrom(fr.children[i])
			f.path = append(append(f.path[:0], st.path[:depth]...), i+1)
			f.tag = tag
			p.outstanding.Add(1)
			if !p.deques[w.id].push(f) {
				p.outstanding.Add(-1)
				p.releaseFrame(f)
				break
			}
			pushed++
			w.spawns++
			p.hint()
		}
	}

	// Inline children: 0 plus whatever the bounded deque rejected.
	for i := 0; i < fr.nChildren-pushed; i++ {
		if p.cancelled() {
			break
		}
		c := fr.children[i]
		st.path = append(st.path[:depth], i+1)
		rem := s.AppendDiffElems(c, st.remBuf(depth))
		st.rem[depth] = rem
		for _, u := range rem {
			st.sc.removeVertex(u)
		}
		w.walk(st, c, depth+1)
		for _, u := range rem {
			st.sc.restoreVertex(u)
		}
	}

	// Reclaim own unstolen frames while the scratch still matches their
	// parent; a tag mismatch or empty deque means thieves own the rest.
	for pushed > 0 {
		f := p.deques[w.id].popIf(tag)
		if f == nil {
			break
		}
		pushed--
		if p.cancelled() {
			// Retire without walking; the verdict is already decided.
			p.releaseFrame(f)
			p.frameDone()
			continue
		}
		st.path = append(st.path[:depth], f.path[depth])
		rem := s.AppendDiffElems(f.s, st.remBuf(depth))
		st.rem[depth] = rem
		for _, u := range rem {
			st.sc.removeVertex(u)
		}
		w.walk(st, f.s, depth+1)
		for _, u := range rem {
			st.sc.restoreVertex(u)
		}
		p.releaseFrame(f)
		p.frameDone()
	}
}

func atomicMax(addr *int64, v int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if v <= cur || atomic.CompareAndSwapInt64(addr, cur, v) {
			return
		}
	}
}
