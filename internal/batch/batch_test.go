package batch

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
)

// parsePair reads a (g, h) instance from edge text the way the service
// does: a fresh symbol table per request, so renamed-isomorphic texts yield
// identical index families.
func parsePair(t testing.TB, g, h string) (*hypergraph.Hypergraph, *hypergraph.Hypergraph) {
	t.Helper()
	hs, _, err := hgio.ReadHypergraphs(strings.NewReader(g), strings.NewReader(h))
	if err != nil {
		t.Fatalf("parsing %q / %q: %v", g, h, err)
	}
	return hs[0], hs[1]
}

// textInstance is one wire-level instance of the synthetic workload.
type textInstance struct{ g, h string }

// rename maps vertex names v<i> through a fixed injection, producing a
// renamed-isomorphic copy: same index structure after per-request
// interning, hence the same canonical fingerprints.
func rename(in textInstance, tag string) textInstance {
	repl := func(s string) string {
		fields := strings.Fields(s)
		for i, f := range fields {
			fields[i] = f + tag
		}
		return strings.Join(fields, " ")
	}
	var g, h strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(in.g), "\n") {
		g.WriteString(repl(line) + "\n")
	}
	for _, line := range strings.Split(strings.TrimSpace(in.h), "\n") {
		h.WriteString(repl(line) + "\n")
	}
	return textInstance{g.String(), h.String()}
}

// matchingInstance renders the k-matching and (optionally truncated) dual.
func matchingInstance(k int, dual bool) textInstance {
	var g, h strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&g, "v%da v%db\n", i, i)
	}
	limit := 1 << k
	if !dual {
		limit-- // drop one dual edge: a new transversal exists
	}
	for mask := 0; mask < limit; mask++ {
		for i := 0; i < k; i++ {
			side := "a"
			if mask&(1<<i) != 0 {
				side = "b"
			}
			fmt.Fprintf(&h, "v%d%s ", i, side)
		}
		h.WriteString("\n")
	}
	return textInstance{g.String(), h.String()}
}

// workload builds a dedup-heavy stream: a few base instances, duplicated,
// renamed and shuffled.
func workload(t testing.TB, r *rand.Rand) []textInstance {
	t.Helper()
	bases := []textInstance{
		matchingInstance(2, true),
		matchingInstance(3, true),
		matchingInstance(3, false),
		matchingInstance(4, true),
		{"a b\nb c\na c\n", "a b\nb c\na c\n"}, // self-dual triangle
		{"a\na b\n", "a\n"},                    // non-simple: decision error
		{"x y\n", "x\ny\nz\n"},                 // h-edge non-minimal style negative
	}
	var stream []textInstance
	for rep := 0; rep < 3; rep++ {
		for i, b := range bases {
			stream = append(stream, b)
			stream = append(stream, rename(b, fmt.Sprintf("r%d", i%2)))
		}
	}
	r.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return stream
}

// decideOne is the one-at-a-time reference: a fresh session per call so no
// state is shared with the scheduler under test.
func decideOne(t testing.TB, in textInstance) (*core.Result, error) {
	t.Helper()
	g, h := parsePair(t, in.g, in.h)
	sess := engine.NewSession(nil)
	res, err := sess.Decide(context.Background(), g.Canonical(), h.Canonical())
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// runBatch feeds the stream through a scheduler and returns responses
// indexed by stream position.
func runBatch(t testing.TB, s *Scheduler, stream []textInstance) ([]Response, RunStats) {
	t.Helper()
	reqs := make(chan Request)
	go func() {
		defer close(reqs)
		for i, in := range stream {
			g, h := parsePair(t, in.g, in.h)
			reqs <- Request{Index: i, EngineName: "portfolio", Engine: engine.Default(), G: g, H: h}
		}
	}()
	out := make([]Response, len(stream))
	seen := make([]bool, len(stream))
	st := s.Run(context.Background(), reqs, func(r Response) {
		if r.Index < 0 || r.Index >= len(out) || seen[r.Index] {
			t.Errorf("bad or duplicate response index %d", r.Index)
			return
		}
		out[r.Index], seen[r.Index] = r, true
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("request %d never answered", i)
		}
	}
	return out, st
}

// TestBatchMatchesOneAtATime is the dedup-correctness property test: a
// shuffled stream with duplicates and renamed-isomorphic instances must
// yield exactly the verdicts of independent one-at-a-time decisions —
// verdict, reason, and error-vs-success alike — regardless of which
// duplicate became the leader, which were coalesced, and which were served
// by the cache.
func TestBatchMatchesOneAtATime(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		stream := workload(t, r)
		pool := engine.NewSessionPool(nil, 2, 0)
		s := NewScheduler(Config{Pool: pool, Cache: NewCache(64, 4)})
		got, st := runBatch(t, s, stream)

		for i, in := range stream {
			want, wantErr := decideOne(t, in)
			resp := got[i]
			if (wantErr != nil) != (resp.Err != nil) {
				t.Fatalf("seed %d item %d: err=%v, reference err=%v", seed, i, resp.Err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if resp.Res == nil {
				t.Fatalf("seed %d item %d: no result", seed, i)
			}
			if resp.Res.Dual != want.Dual || resp.Res.Reason != want.Reason {
				t.Fatalf("seed %d item %d: got (%v,%v), reference (%v,%v)",
					seed, i, resp.Res.Dual, resp.Res.Reason, want.Dual, want.Reason)
			}
			// The canonical instance attached to the response must match
			// the one the reference decision ran on (fingerprint-level).
			g, h := parsePair(t, in.g, in.h)
			if resp.G.Fingerprint() != g.Canonical().Fingerprint() ||
				resp.H.Fingerprint() != h.Canonical().Fingerprint() {
				t.Fatalf("seed %d item %d: response canonical forms drifted", seed, i)
			}
		}
		if st.Items != len(stream) {
			t.Errorf("seed %d: items %d, want %d", seed, st.Items, len(stream))
		}
		// The workload has 7 distinct canonical instances per rename tag
		// class; dedup must have collapsed far below the stream length.
		if st.Unique >= st.Items/2 {
			t.Errorf("seed %d: dedup ineffective: %d unique of %d", seed, st.Unique, st.Items)
		}
		if st.Deduped+st.CacheHits+st.Decisions+countLeaderErrors(got) < st.Items {
			t.Errorf("seed %d: stats don't account for the stream: %+v", seed, st)
		}
	}
}

func countLeaderErrors(rs []Response) int {
	n := 0
	for _, r := range rs {
		if r.Err != nil && !r.Deduped {
			n++
		}
	}
	return n
}

// TestBatchRenamedIsomorphicDedup pins the fingerprint-level behavior: a
// renamed copy must coalesce onto the original (same canonical key), and a
// second batch over the same instances must be all cache hits.
func TestBatchRenamedIsomorphicDedup(t *testing.T) {
	base := matchingInstance(3, true)
	stream := []textInstance{base, rename(base, "x"), base, rename(base, "zz")}
	pool := engine.NewSessionPool(nil, 2, 0)
	cache := NewCache(32, 2)
	s := NewScheduler(Config{Pool: pool, Cache: cache})

	_, st := runBatch(t, s, stream)
	if st.Unique != 1 || st.Decisions != 1 {
		t.Fatalf("renamed instances not deduped: %+v", st)
	}
	if st.Deduped != 3 {
		t.Errorf("deduped = %d, want 3", st.Deduped)
	}

	got, st2 := runBatch(t, s, stream)
	if st2.Decisions != 0 || st2.CacheHits != 1 {
		t.Fatalf("second batch recomputed: %+v", st2)
	}
	for i, r := range got {
		if r.Err != nil || r.Res == nil || !r.Res.Dual {
			t.Fatalf("second batch item %d: %+v", i, r)
		}
		if r.Source == SourceComputed && !r.Deduped {
			t.Errorf("second batch item %d served neither by cache nor dedup", i)
		}
	}
}

// TestBatchCancellation: cancelling the Run context fails the remaining
// requests with the context error while still answering every request and
// draining the producer (a dead batch must never block its input stream).
func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := engine.NewSessionPool(nil, 1, 0)
	s := NewScheduler(Config{Pool: pool})

	// Distinct instances so nothing dedups and every request needs a run.
	reqs := make(chan Request)
	go func() {
		defer close(reqs)
		for i := 0; i < 8; i++ {
			in := matchingInstance(2+i%4, i%2 == 0)
			g, h := parsePair(t, in.g, in.h)
			reqs <- Request{Index: i, EngineName: "core", Engine: mustEngine(t, "core"), G: g, H: h}
		}
	}()
	var okCount, errCount int
	st := s.Run(ctx, reqs, func(r Response) {
		if r.Err != nil {
			errCount++
		} else {
			okCount++
		}
		cancel() // kill the batch at the first response
	})
	if okCount+errCount != 8 || st.Items != 8 {
		t.Fatalf("answered %d+%d of 8 (stats %+v)", okCount, errCount, st)
	}
	if errCount == 0 {
		t.Error("cancellation produced no failed responses")
	}
	if int(st.Errors) != errCount {
		t.Errorf("Errors = %d, emitted %d error responses", st.Errors, errCount)
	}
}

func mustEngine(t testing.TB, name string) engine.Engine {
	t.Helper()
	eng, err := engine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestConcurrentBatchesSharedCache is the satellite race test: several
// batches over overlapping workloads run concurrently against one sharded
// cache and one session pool; under -race this exercises the shard locks,
// the dedup tables and the lifetime counters.
func TestConcurrentBatchesSharedCache(t *testing.T) {
	pool := engine.NewSessionPool(nil, 4, 0)
	cache := NewCache(128, 8)
	s := NewScheduler(Config{Pool: pool, Cache: cache})

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for b := 0; b < 6; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + b)))
			stream := workload(t, r)
			reqs := make(chan Request)
			go func() {
				defer close(reqs)
				for i, in := range stream {
					g, h := parsePair(t, in.g, in.h)
					reqs <- Request{Index: i, EngineName: "portfolio", Engine: engine.Default(), G: g, H: h}
				}
			}()
			answered := 0
			st := s.RunN(context.Background(), 2, reqs, func(r Response) { answered++ })
			if answered != len(stream) || st.Items != len(stream) {
				errs <- fmt.Errorf("batch %d: %d answers for %d items", b, answered, len(stream))
			}
		}(b)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.Batches != 6 || st.Active != 0 {
		t.Errorf("lifetime stats: %+v", st)
	}
	// Errors overlaps Deduped (a coalesced error response counts in both),
	// so the counters bound the stream from above, never below.
	if st.Deduped+st.CacheHits+st.Decisions+st.Errors < st.Items {
		t.Errorf("counters lost items: %+v", st)
	}
	if cache.Len() == 0 {
		t.Error("shared cache stayed empty")
	}
}

func TestCacheShardingAndLRU(t *testing.T) {
	c := NewCache(8, 4)
	if c.Shards() != 4 || c.Capacity() != 8 {
		t.Fatalf("shards=%d cap=%d", c.Shards(), c.Capacity())
	}
	mk := func(i int) Key {
		g := hypergraph.MustFromEdges(8, [][]int{{i % 8}, {(i + 1) % 8, (i + 3) % 8}})
		return NewKey("core", g.Fingerprint(), g.Fingerprint())
	}
	res := &core.Result{}
	for i := 0; i < 64; i++ {
		c.Add(mk(i), res)
	}
	if got := c.Len(); got > 8+4 { // per-shard cap rounds up: ceil(8/4)=2 each
		t.Errorf("cache overfull: %d entries", got)
	}
	// Per-shard LRU: re-adding refreshes, Get moves to front.
	k := mk(1)
	c.Add(k, res)
	if _, ok := c.Get(k); !ok {
		t.Error("fresh entry missing")
	}
	stats := c.Stats()
	if len(stats) != 4 {
		t.Fatalf("stats for %d shards", len(stats))
	}
	var hits int64
	for _, sh := range stats {
		hits += sh.Hits
	}
	if hits == 0 {
		t.Error("no shard recorded the hit")
	}

	// Disabled cache: no storage, no stats.
	off := NewCache(0, 4)
	off.Add(k, res)
	if _, ok := off.Get(k); ok {
		t.Error("disabled cache stored an entry")
	}
	if off.Len() != 0 || off.Shards() != 0 {
		t.Error("disabled cache not empty")
	}
}

func TestKeyDistinguishesEngines(t *testing.T) {
	g := hypergraph.MustFromEdges(4, [][]int{{0, 1}})
	a := NewKey("core", g.Fingerprint(), g.Fingerprint())
	b := NewKey("fk-b", g.Fingerprint(), g.Fingerprint())
	if a == b {
		t.Fatal("engine name not part of the key")
	}
	c := NewCache(16, 2)
	c.Add(a, &core.Result{Dual: true})
	if _, ok := c.Get(b); ok {
		t.Fatal("cross-engine cache hit")
	}
}
