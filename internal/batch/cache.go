// Package batch is the high-throughput decision subsystem: a sharded
// verdict cache shared by every serving path and a Scheduler that drains a
// stream of duality requests through a pool of memoizing engine sessions,
// canonicalizing and deduplicating identical instances so one decomposition
// fans out to every duplicate in the stream. DESIGN.md §8 documents the
// layout; internal/service exposes it as POST /v1/batch.
package batch

import (
	"container/list"
	"sync"
	"sync/atomic"

	"dualspace/internal/core"
	"dualspace/internal/hypergraph"
)

// Key identifies one decision: the resolved engine registry name plus the
// canonical fingerprints of both sides. Engines agree on verdicts but not
// on witnesses or statistics, so the engine name is part of the key — a
// verdict computed by one engine is never served for an explicit request of
// another. Key is comparable and is used directly as the map key of cache
// shards and dedup tables.
type Key struct {
	Engine string
	FG, FH hypergraph.Fingerprint
}

// NewKey canonicalizes nothing: callers pass fingerprints of the canonical
// forms (Hypergraph.Canonical), which is what makes renamed-isomorphic and
// permuted-edge-order requests collide onto one key.
func NewKey(engineName string, fg, fh hypergraph.Fingerprint) Key {
	return Key{Engine: engineName, FG: fg, FH: fh}
}

// hash folds the key into 64 bits for shard selection: the fingerprints are
// sha256 digests (already mixed — Fingerprint.Hash64 takes 8 bytes), the
// engine name is folded in FNV-style so the same instance on different
// engines lands on independent shards.
func (k Key) hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.Engine); i++ {
		h ^= uint64(k.Engine[i])
		h *= prime
	}
	h ^= k.FG.Hash64()
	h *= prime
	h ^= k.FH.Hash64()
	h *= prime
	return h
}

// Hash64 exposes the key's 64-bit fold for placement decisions beyond the
// in-process shards — internal/cluster routes the same value over a
// consistent-hash ring of replicas, so a key's network owner and its local
// shard are derived from one hash function.
func (k Key) Hash64() uint64 { return k.hash() }

// DefaultShards is the shard count applied when a Cache is built with
// shards <= 0: enough that the per-shard mutexes stop being the contention
// point under a few dozen concurrent clients, small enough that a
// modest-capacity cache still has meaningful per-shard LRU depth.
const DefaultShards = 8

// Cache is an N-way sharded LRU of duality verdicts. Each shard has its own
// mutex, list and map, so concurrent lookups on different shards never
// contend — the single-mutex LRU it replaces serialized every /v1/decide
// hit in the service. Cached Results are detached (core.Result.Clone) and
// treated as immutable by every reader. A capacity <= 0 disables the cache
// entirely (every Get misses, Add is a no-op).
type Cache struct {
	shards []cacheShard
	mask   uint64
	cap    int
}

type cacheShard struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	m      map[Key]*list.Element
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key Key
	res *core.Result
}

// NewCache builds a cache of the given total capacity split across shards
// (rounded up to a power of two; <= 0 applies DefaultShards). Each shard
// holds ceil(capacity/shards) entries, so the total capacity is preserved
// up to rounding.
func NewCache(capacity, shards int) *Cache {
	if capacity <= 0 {
		return &Cache{}
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1), cap: capacity}
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: perShard, ll: list.New(), m: make(map[Key]*list.Element)}
	}
	return c
}

// Capacity reports the configured total entry bound (0 when disabled).
func (c *Cache) Capacity() int { return c.cap }

// Shards reports the shard count (0 when disabled).
func (c *Cache) Shards() int { return len(c.shards) }

func (c *Cache) shard(k Key) *cacheShard { return &c.shards[k.hash()&c.mask] }

// Get returns the cached verdict for k, marking it most recently used.
func (c *Cache) Get(k Key) (*core.Result, bool) {
	res, s := c.peek(k)
	s.count(res != nil)
	return res, res != nil
}

// peek is Get without the counting: it returns k's verdict (nil when
// absent) and the shard that the caller must count the lookup in, once it
// knows whether the lookup served a hit (nil when the cache is disabled).
func (c *Cache) peek(k Key) (*core.Result, *cacheShard) {
	if len(c.shards) == 0 {
		return nil, nil
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[k]
	if !ok {
		return nil, s
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, s
}

// count records one lookup on the shard (none on a nil shard) as a hit or
// a miss.
func (s *cacheShard) count(hit bool) {
	if s == nil {
		return
	}
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
}

// Add inserts (or refreshes) a verdict, evicting the shard's least recently
// used entries beyond its capacity. res must be detached and immutable.
func (c *Cache) Add(k Key, res *core.Result) {
	if len(c.shards) == 0 {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	s.m[k] = s.ll.PushFront(&cacheEntry{key: k, res: res})
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.m, back.Value.(*cacheEntry).key)
	}
}

// Len reports the total entry count across shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// ShardStats is one shard's observable state.
type ShardStats struct {
	Size   int   `json:"size"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats snapshots every shard (index order is stable, so dashboards can
// watch the distribution).
func (c *Cache) Stats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		size := s.ll.Len()
		s.mu.Unlock()
		out[i] = ShardStats{Size: size, Hits: s.hits.Load(), Misses: s.misses.Load()}
	}
	return out
}
