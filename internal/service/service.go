// Package service exposes the dualspace façade as a long-lived HTTP/JSON
// service — the serving layer the ROADMAP's production north star asks for
// on top of the one-shot CLIs. docs/API.md documents the wire protocol.
//
// Architecture:
//
//   - Every decision endpoint runs on a bounded worker pool (Config.Workers
//     concurrent decompositions); excess requests queue in acquire() and
//     leave the queue the moment their client disconnects. The pool is an
//     engine.SessionPool: each slot is a long-lived memoizing
//     engine.Session, so the decisions it serves — /v1/decide verdicts, the
//     batch scheduler's drain workers, and the incremental loops behind the
//     application endpoints alike — reuse pinned scratch instead of
//     allocating per request.
//   - All duality work routes through internal/engine: requests pick a
//     decision procedure with the "engine" field (validated against
//     engine.Names(); empty = the default portfolio, which dispatches on
//     instance features), and /statsz reports per-engine cache-hit and
//     decision counters.
//   - Requests are cancellable end to end: the handler passes the request
//     context into the engine / transversal.EnumerateContext, which poll it
//     at every decomposition-tree (resp. search-tree) node, so a closed
//     client connection aborts the computation within one node.
//   - Verdicts are cached in an N-way sharded LRU (internal/batch.Cache,
//     per-shard locks — the single-mutex LRU it replaces serialized every
//     concurrent hit) keyed by the resolved engine name plus the canonical
//     Fingerprint pair of the inputs. Decisions run on the canonicalized
//     instance, so a cached verdict (including its witness and edge
//     indices) is valid for every request with the same canonical form and
//     engine — repeats and renamed-but-isomorphic-after-canonicalization
//     queries never recompute, while a verdict computed by one engine is
//     never served for an explicit request of another (engines agree on
//     verdicts but not on witnesses or statistics). The cache is shared
//     between /v1/decide and /v1/batch, so batch traffic warms interactive
//     traffic and vice versa.
//   - Every verdict — /v1/decide, /v1/cluster/verdict and each /v1/batch
//     entry — comes out of one pipeline, batch.Scheduler.Resolve: cache
//     lookup, singleflight, peer fill, admission, guarded compute, store
//     and log. The handlers only decode, parse, canonicalize and render.
//   - /v1/batch drains NDJSON streams of decisions through the
//     batch.Scheduler: canonicalize, dedup by fingerprint key (one
//     resolution fans out to every duplicate in the stream), resolve
//     distinct instances with bounded per-batch parallelism and
//     whole-batch cancellation. /v1/mine streams the dualize-and-advance
//     border-mining loop element by element.
//   - All input parsing goes through internal/hgio's *Limited readers with
//     explicit size/universe limits (Config.Limits), and request bodies are
//     bounded by Config.MaxBodyBytes (batches by Config.MaxBatchBytes), so
//     untrusted traffic cannot force unbounded allocation before
//     validation.
//
// Observability: /healthz for liveness, /statsz for request, cache (total
// and per shard), batch, decomposition (total and per engine), cancellation
// and stream counters.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dualspace/internal/batch"
	"dualspace/internal/bitset"
	"dualspace/internal/cluster"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/faultinject"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
	"dualspace/internal/verdictlog"
)

// Config parameterizes a Server. The zero value gets sensible production
// defaults from New.
type Config struct {
	// Workers bounds the number of concurrently executing decision
	// computations (default: GOMAXPROCS). Requests beyond the bound queue
	// until a slot frees or their client disconnects.
	Workers int
	// CacheSize is the verdict-cache capacity in entries (default 1024;
	// negative disables caching).
	CacheSize int
	// CacheShards is the verdict-cache shard count (default
	// batch.DefaultShards; rounded up to a power of two).
	CacheShards int
	// Limits bounds parsed hypergraph/dataset/relation inputs; zero fields
	// get the package defaults (DefaultLimits).
	Limits hgio.Limits
	// MaxBodyBytes bounds a request body (default 4 MiB).
	MaxBodyBytes int64
	// MaxStreamResults caps the /v1/transversals limit knob (default
	// 65536). Requests may ask for less, never more.
	MaxStreamResults int
	// MemoEntries bounds each worker session's cross-node subinstance memo
	// (core/memo.go): 0 applies core.DefaultMemoEntries, a negative value
	// disables memoization. Aggregate hit/miss counters appear in /statsz.
	MemoEntries int
	// MaxBatchItems caps the rows of one /v1/batch request (default 4096).
	MaxBatchItems int
	// MaxBatchBytes bounds a /v1/batch request body (default 64 MiB — batch
	// bodies are streams, so they get a bigger budget than MaxBodyBytes).
	MaxBatchBytes int64
	// Logger, when non-nil, receives one structured access-log record per
	// request (slog Info level: method, path, endpoint, status, bytes,
	// latency, plus engine/verdict/outcome/fingerprints where the handler
	// knows them). Nil disables access logging; metrics are unaffected.
	Logger *slog.Logger

	// QueueDepth bounds the requests parked in acquire() waiting for a
	// worker slot; excess is shed with 503 + Retry-After. Default
	// max(16, 4×Workers); negative sheds every request that misses the
	// pool's fast path.
	QueueDepth int
	// QueueWait bounds how long one request may park before it is shed
	// (default 5s).
	QueueWait time.Duration
	// RetryAfter is the Retry-After hint on shed responses (default 1s;
	// rendered in whole seconds, rounded up).
	RetryAfter time.Duration

	// DecideTimeout .. AppsTimeout are the per-endpoint compute budgets: the
	// request context is bounded by the endpoint's budget once admission
	// succeeds, and an expired budget surfaces as 504 with reason "timeout"
	// (admission.go). Zero disables the budget. StreamTimeout covers
	// /v1/transversals, AppsTimeout the borders/keys/coteries trio.
	DecideTimeout time.Duration
	BatchTimeout  time.Duration
	MineTimeout   time.Duration
	StreamTimeout time.Duration
	AppsTimeout   time.Duration
	// MaxTimeout caps the per-request ?timeout_ms= override (default 60s).
	// Larger asks are clamped, never rejected.
	MaxTimeout time.Duration

	// Cluster, when non-nil, enables peer cache-fill: on a /v1/decide or
	// /v1/batch cache miss whose key is owned by another replica on the
	// consistent-hash ring, the owner is asked for the verdict (bounded
	// fan-out, per-peer circuit breaker) before computing locally, and the
	// POST /v1/cluster/verdict endpoint serves the reverse direction.
	// cmd/dualserved builds it from -self/-peers (cluster.go, docs/CLUSTER.md).
	Cluster *cluster.Client
	// VerdictLog, when non-nil, is the disk-backed verdict store: its
	// surviving records warm the cache at New, and every verdict the server
	// computes (or peer-fills) is appended asynchronously. The caller owns
	// the log's lifecycle: open before New, close after Server.Close.
	VerdictLog *verdictlog.Log
}

// DefaultLimits is the input bound applied when Config.Limits is zero:
// generous for real workloads, small enough that parsing stays cheap
// relative to the decisions themselves.
var DefaultLimits = hgio.Limits{
	MaxEdges:     1 << 16,
	MaxEdgeVerts: 1 << 12,
	MaxUniverse:  1 << 12,
	MaxLineBytes: 1 << 20,
}

// engineCounters are the per-engine /statsz and /metricsz observables —
// registry-owned counters, one storage for both surfaces.
type engineCounters struct {
	hits      *obs.Counter // cache hits for verdicts requested on this engine
	decisions *obs.Counter // decisions actually run on this engine
}

// Server is the HTTP duality/border service. Create with New; it is an
// http.Handler and safe for concurrent use.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *batch.Cache
	start time.Time

	// pool is the worker pool: each slot is a long-lived memoizing
	// engine.Session owned exclusively by the holder that acquired it, so
	// session scratch — and the session's subinstance memo — is reused
	// across requests without locking.
	pool *engine.SessionPool

	// scheduler is the verdict pipeline (Resolve) and drains /v1/batch
	// streams over the shared pool and cache.
	scheduler *batch.Scheduler

	// engStats maps every registry engine name to its counters; built once
	// in initObs, so reads are lock-free.
	engStats map[string]*engineCounters

	// obs is the metrics registry plus its derived series (obs.go). The
	// counters below are registry-owned: /statsz reads the same atomics
	// /metricsz exposes, so the two surfaces can never disagree.
	obs *serverObs

	inFlight       *obs.Gauge
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	decompositions *obs.Counter
	cancelled      *obs.Counter
	badRequests    *obs.Counter
	streamedSets   *obs.Counter
	minedElements  *obs.Counter
	coalesced      *obs.Counter
	panics         *obs.Counter

	// Resilience state (admission.go): queueWaiters is the live admission
	// queue occupancy; drainCh closes when BeginDrain runs so parked
	// waiters fail fast; retryAfter is the precomputed Retry-After header
	// value of shed responses.
	queueWaiters atomic.Int64
	drainCh      chan struct{}
	drainOnce    sync.Once
	draining     atomic.Bool
	retryAfter   string

	// Cluster + verdict-log state (cluster.go). The counters are
	// registry-owned like every other /statsz series; vlogCh feeds the
	// single async writer goroutine, and logReplayed counts the records
	// warmed into the cache at New.
	peerFilled           *obs.Counter
	peerInvalid          *obs.Counter
	clusterServeHits     *obs.Counter
	clusterServeComputes *obs.Counter
	vlogDropped          *obs.Counter
	vlog                 *verdictlog.Log
	vlogCh               chan verdictlog.Record
	vlogQuit             chan struct{}
	vlogDone             chan struct{}
	logReplayed          atomic.Int64
	closeOnce            sync.Once

	// testHookSlotAcquired, when non-nil, runs right after a request has
	// claimed a worker slot (acquireCompute, inSlot) and before its work
	// starts; tests use it to cancel or drain in-flight requests
	// deterministically.
	testHookSlotAcquired func()
}

// New returns a Server with defaults applied to the zero fields of cfg.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.Limits == (hgio.Limits{}) {
		cfg.Limits = DefaultLimits
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.MaxStreamResults <= 0 {
		cfg.MaxStreamResults = 1 << 16
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 4096
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 64 << 20
	}
	switch {
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = max(16, 4*cfg.Workers)
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 5 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = time.Minute
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		pool:       engine.NewSessionPool(nil, cfg.Workers, cfg.MemoEntries),
		cache:      batch.NewCache(cfg.CacheSize, cfg.CacheShards),
		engStats:   make(map[string]*engineCounters, len(engine.Names())),
		start:      time.Now(),
		drainCh:    make(chan struct{}),
		retryAfter: strconv.Itoa(int((cfg.RetryAfter + time.Second - 1) / time.Second)),
	}
	s.initObs(cfg.Logger)
	schedCfg := batch.Config{
		Pool: s.pool, Cache: s.cache, Acquire: s.acquireCompute,
		Metrics: s.obs.decide, OnPanic: s.onPanic, OnStore: s.appendVerdict,
	}
	if cfg.Cluster != nil {
		schedCfg.Fill = s.peerFill
	}
	if cfg.VerdictLog != nil {
		s.vlog = cfg.VerdictLog
		s.warmFromLog()
		s.vlogCh = make(chan verdictlog.Record, 1024)
		s.vlogQuit = make(chan struct{})
		s.vlogDone = make(chan struct{})
		go s.vlogWriter()
	}
	s.scheduler = batch.NewScheduler(schedCfg)
	s.mux.HandleFunc("POST /v1/decide", s.handleDecide)
	s.mux.HandleFunc("POST /v1/cluster/verdict", s.handleClusterVerdict)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/mine", s.handleMine)
	s.mux.HandleFunc("POST /v1/transversals", s.handleTransversals)
	s.mux.HandleFunc("POST /v1/borders", s.handleBorders)
	s.mux.HandleFunc("POST /v1/keys", s.handleKeys)
	s.mux.HandleFunc("POST /v1/coteries", s.handleCoteries)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /statsz", s.handleStats)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the service mux, wrapped in the observability
// middleware: in-flight gauge, per-endpoint latency histogram, and (when
// Config.Logger is set) a structured access-log record annotated by the
// handler through the request context (obs.go). finishRequest is deferred
// rather than called, because it doubles as the last-resort panic boundary
// for panics no session boundary contained.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	ep := endpointOf(r.URL.Path)
	sw := &statusWriter{ResponseWriter: w}
	ai := &accessInfo{}
	r = r.WithContext(context.WithValue(r.Context(), accessInfoKey{}, ai))
	defer s.finishRequest(r, ep, sw, ai, time.Now())
	s.mux.ServeHTTP(sw, r)
}

// finishRequest observes the finished request and contains any panic still
// unwinding: count, log the stack, and — when nothing has been written yet
// — answer a clean 500 with reason "panic". Mid-response the stream is
// corrupt, so the connection is aborted with http.ErrAbortHandler (which
// also passes through untouched when a handler raised it deliberately);
// either way the process keeps serving.
func (s *Server) finishRequest(r *http.Request, ep string, sw *statusWriter, ai *accessInfo, t0 time.Time) {
	if v := recover(); v != nil {
		if v != http.ErrAbortHandler {
			s.panics.Add(1)
			s.logPanic("panic contained in handler", v, debug.Stack())
			ai.outcome = "panic"
			if sw.status == 0 {
				writeErrorReason(sw, http.StatusInternalServerError, reasonPanic,
					fmt.Errorf("internal panic: %v", v))
				s.observeRequest(r, ep, sw, ai, time.Since(t0))
				return
			}
		}
		s.observeRequest(r, ep, sw, ai, time.Since(t0))
		panic(http.ErrAbortHandler)
	}
	s.observeRequest(r, ep, sw, ai, time.Since(t0))
}

// decodeJSON reads a bounded request body into dst.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// writeJSON renders a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorResponse is the uniform error body. Reason is the machine-readable
// taxonomy class (docs/API.md): bad_request | limit | unprocessable |
// timeout | shed | panic.
type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// writeError renders a request-class JSON error with the status matching
// the failure: 413 for input-limit violations (hgio limits and the body
// bound alike), the given status otherwise, and logs the request's outcome
// as "error". The resilience outcomes — shed, timeout, panic — are
// answered by fail (admission.go) and are not counted as bad requests.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.badRequests.Add(1)
	accessFrom(r.Context()).outcome = "error"
	var mbe *http.MaxBytesError
	if errors.Is(err, hgio.ErrLimitExceeded) || errors.As(err, &mbe) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErrorReason(w, status, reasonForStatus(status), err)
}

// reasonForStatus maps a status to its taxonomy class.
func reasonForStatus(status int) string {
	switch status {
	case http.StatusRequestEntityTooLarge:
		return reasonLimit
	case http.StatusUnprocessableEntity:
		return reasonUnprocessable
	case http.StatusServiceUnavailable:
		return reasonShed
	case http.StatusGatewayTimeout:
		return reasonTimeout
	case http.StatusInternalServerError:
		return reasonPanic
	}
	return reasonBadRequest
}

// writeErrorReason renders the uniform error body with an explicit
// taxonomy class.
func writeErrorReason(w http.ResponseWriter, status int, reason string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error(), Reason: reason})
}

// names renders a vertex set as its interned names in index order.
func names(set bitset.Set, sy *hgio.Symbols) []string {
	out := []string{}
	set.ForEach(func(v int) bool {
		out = append(out, sy.Name(v))
		return true
	})
	return out
}

// edgeNames renders every edge of h as a name list.
func edgeNames(h *hypergraph.Hypergraph, sy *hgio.Symbols) [][]string {
	out := make([][]string, 0, h.M())
	for _, e := range h.Edges() {
		out = append(out, names(e, sy))
	}
	return out
}

// statsResponse is the /statsz body.
type statsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	GitRevision   string  `json:"git_revision"`
	InFlight      int64   `json:"in_flight"`
	Workers       int     `json:"workers"`
	Requests      struct {
		Decide       int64 `json:"decide"`
		Cluster      int64 `json:"cluster"`
		Batch        int64 `json:"batch"`
		Mine         int64 `json:"mine"`
		Transversals int64 `json:"transversals"`
		Borders      int64 `json:"borders"`
		Keys         int64 `json:"keys"`
		Coteries     int64 `json:"coteries"`
		Health       int64 `json:"health"`
		Ready        int64 `json:"ready"`
		Stats        int64 `json:"stats"`
		Metrics      int64 `json:"metrics"`
	} `json:"requests"`
	// Cache: Hits/Misses are /v1/decide's own lookup counters; Shards
	// carries the shared sharded cache's per-shard counters across ALL
	// users (batch included), so sum(shards[].hits) ≥ Hits by design.
	Cache struct {
		Hits     int64              `json:"hits"`
		Misses   int64              `json:"misses"`
		Size     int                `json:"size"`
		Capacity int                `json:"capacity"`
		Shards   []batch.ShardStats `json:"shards,omitempty"`
	} `json:"cache"`
	// Batch carries the batch scheduler's lifetime counters: streams
	// drained, items, in-batch dedup fan-out, shared-cache hits, engine
	// runs (internal/batch.Stats).
	Batch batch.Stats `json:"batch"`
	// Engines carries per-engine cache hits and decision runs, keyed by
	// registry name; requests without an explicit engine count under
	// "portfolio".
	Engines map[string]engineStats `json:"engines"`
	// Memo aggregates the cross-node subinstance memo counters over every
	// worker session (core/memo.go).
	Memo struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Inserts   int64 `json:"inserts"`
		Entries   int64 `json:"entries"`
		Evictions int64 `json:"evictions"`
	} `json:"memo"`
	Decompositions int64 `json:"decompositions"`
	// Coalesced counts requests and batch entries (any path) served by
	// another request's in-flight identical resolution instead of their own.
	Coalesced       int64 `json:"coalesced"`
	Cancelled       int64 `json:"cancelled"`
	BadRequests     int64 `json:"bad_requests"`
	StreamedResults int64 `json:"streamed_results"`
	// MinedElements counts border elements streamed by /v1/mine.
	MinedElements int64 `json:"mined_elements"`
	// Draining reports whether graceful drain has begun (/readyz is 503).
	Draining bool `json:"draining"`
	// Resilience carries the admission-control and panic-containment
	// counters (docs/OBSERVABILITY.md).
	Resilience struct {
		// Sheds / Timeouts sum the per-endpoint 503/504 series.
		Sheds    int64 `json:"sheds"`
		Timeouts int64 `json:"timeouts"`
		// Panics counts panics contained at any serving boundary.
		Panics int64 `json:"panics"`
		// QueueWaiters / QueueDepth are the live admission-queue occupancy
		// and its bound.
		QueueWaiters int64 `json:"queue_waiters"`
		QueueDepth   int   `json:"queue_depth"`
		// SessionsReplaced counts poisoned sessions the pool swapped out.
		SessionsReplaced int64 `json:"sessions_replaced"`
		// FaultsInjected counts fault-injection firings (0 in production:
		// the harness is armed only by -faults / the chaos suite).
		FaultsInjected int64 `json:"faults_injected"`
	} `json:"resilience"`
	// Cluster appears when peer cache-fill is configured (-self/-peers):
	// ring membership, per-peer fill counters and breaker state, and this
	// replica's serving-side counters (docs/CLUSTER.md).
	Cluster *clusterStatsBlock `json:"cluster,omitempty"`
	// VerdictLog appears when the disk-backed verdict store is configured
	// (-verdict-log): replay, append, segment and compaction counters.
	VerdictLog *verdictLogStatsBlock `json:"verdict_log,omitempty"`
}

// clusterStatsBlock is the /statsz "cluster" block.
type clusterStatsBlock struct {
	// Self is this replica's normalized ring address.
	Self string `json:"self"`
	// Peers lists every remote ring member with its fill counters
	// (attempts, verdicts received, healthy misses, errors, breaker/fan-out
	// skips) and live breaker state.
	Peers []cluster.PeerStats `json:"peers"`
	// PeerFilled counts requests on this replica answered by a peer's
	// verdict (decide and batch paths together).
	PeerFilled int64 `json:"peer_filled"`
	// InvalidVerdicts counts peer responses rejected by validation — any
	// nonzero value means a peer decided a different instance and should be
	// treated as an alarm.
	InvalidVerdicts int64 `json:"invalid_verdicts"`
	// ServeHits / ServeComputes count the serving side of
	// /v1/cluster/verdict: fills answered from this replica's cache vs.
	// computed on its workers.
	ServeHits     int64 `json:"serve_hits"`
	ServeComputes int64 `json:"serve_computes"`
}

// verdictLogStatsBlock is the /statsz "verdict_log" block: the log's own
// counters plus the service-side replay-into-cache and writer-drop counts.
type verdictLogStatsBlock struct {
	verdictlog.Stats
	// ReplayedToCache counts log records warmed into the verdict cache at
	// startup (≤ the log's replayed count: unknown engines are skipped).
	ReplayedToCache int64 `json:"replayed_to_cache"`
	// Dropped counts verdicts the non-blocking append path discarded
	// because the writer was stalled.
	Dropped int64 `json:"dropped"`
}

// engineStats is the wire form of one engine's counters.
type engineStats struct {
	Hits      int64 `json:"hits"`
	Decisions int64 `json:"decisions"`
}

// healthResponse is the /healthz body: liveness plus enough build metadata
// to tell which binary answered. Liveness stays 200 for the whole process
// lifetime, drain included — a draining replica is alive, it just should
// not receive new traffic, which is /readyz's job.
type healthResponse struct {
	OK            bool    `json:"ok"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	GitRevision   string  `json:"git_revision"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, healthResponse{
		OK:            true,
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
		GitRevision:   obs.GitRevision(),
	})
}

// readyResponse is the /readyz body: readiness for new traffic. Once
// BeginDrain runs the endpoint answers 503 with Draining set, so load
// balancers stop routing to this replica before its listener closes.
type readyResponse struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(readyResponse{Ready: false, Draining: true})
		return
	}
	writeJSON(w, readyResponse{Ready: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.GoVersion = runtime.Version()
	resp.GitRevision = obs.GitRevision()
	resp.InFlight = s.inFlight.Load()
	resp.Workers = s.cfg.Workers
	reqs := func(ep string) int64 { return s.obs.endpoints[ep].requests.Load() }
	resp.Requests.Decide = reqs("decide")
	resp.Requests.Cluster = reqs("cluster")
	resp.Requests.Batch = reqs("batch")
	resp.Requests.Mine = reqs("mine")
	resp.Requests.Transversals = reqs("transversals")
	resp.Requests.Borders = reqs("borders")
	resp.Requests.Keys = reqs("keys")
	resp.Requests.Coteries = reqs("coteries")
	resp.Requests.Health = reqs("healthz")
	resp.Requests.Ready = reqs("readyz")
	resp.Requests.Stats = reqs("statsz")
	resp.Requests.Metrics = reqs("metricsz")
	resp.Cache.Hits = s.cacheHits.Load()
	resp.Cache.Misses = s.cacheMisses.Load()
	resp.Cache.Size = s.cache.Len()
	resp.Cache.Capacity = s.cache.Capacity()
	resp.Cache.Shards = s.cache.Stats()
	resp.Batch = s.scheduler.Stats()
	resp.Engines = make(map[string]engineStats, len(s.engStats))
	for name, c := range s.engStats {
		resp.Engines[name] = engineStats{Hits: c.hits.Load(), Decisions: c.decisions.Load()}
	}
	ms := s.pool.MemoStats()
	resp.Memo.Hits = ms.Hits
	resp.Memo.Misses = ms.Misses
	resp.Memo.Inserts = ms.Inserts
	resp.Memo.Entries = ms.Entries
	resp.Memo.Evictions = ms.Evictions
	resp.Decompositions = s.decompositions.Load()
	resp.Coalesced = s.coalesced.Load()
	resp.Cancelled = s.cancelled.Load()
	resp.BadRequests = s.badRequests.Load()
	resp.StreamedResults = s.streamedSets.Load()
	resp.MinedElements = s.minedElements.Load()
	resp.Draining = s.draining.Load()
	for _, c := range s.obs.sheds {
		resp.Resilience.Sheds += c.Load()
	}
	for _, c := range s.obs.timeouts {
		resp.Resilience.Timeouts += c.Load()
	}
	resp.Resilience.Panics = s.panics.Load()
	resp.Resilience.QueueWaiters = s.queueWaiters.Load()
	resp.Resilience.QueueDepth = s.cfg.QueueDepth
	resp.Resilience.SessionsReplaced = s.pool.Replaced()
	resp.Resilience.FaultsInjected = faultinject.FiredTotal()
	if c := s.cfg.Cluster; c != nil {
		resp.Cluster = &clusterStatsBlock{
			Self:            c.Self(),
			Peers:           c.Stats(),
			PeerFilled:      s.peerFilled.Load(),
			InvalidVerdicts: s.peerInvalid.Load(),
			ServeHits:       s.clusterServeHits.Load(),
			ServeComputes:   s.clusterServeComputes.Load(),
		}
	}
	if s.vlog != nil {
		resp.VerdictLog = &verdictLogStatsBlock{
			Stats:           s.vlog.Stats(),
			ReplayedToCache: s.logReplayed.Load(),
			Dropped:         s.vlogDropped.Load(),
		}
	}
	writeJSON(w, resp)
}

// decideRequest is the /v1/decide body (and the /v1/batch row shape): two
// hypergraphs in the hgio line-oriented edge format, plus an optional
// engine name (docs/API.md).
type decideRequest struct {
	G string `json:"g"`
	H string `json:"h"`
	// Engine selects the decision procedure by registry name; empty means
	// the default portfolio. Unknown names are a 400.
	Engine string `json:"engine,omitempty"`
}

// decideStats mirrors core.Stats on the wire.
type decideStats struct {
	Nodes       int `json:"nodes"`
	Leaves      int `json:"leaves"`
	MaxDepth    int `json:"max_depth"`
	MaxChildren int `json:"max_children"`
	// MemoHits counts subtrees skipped by the worker session's subinstance
	// memo during this decision (0 on cached or coalesced responses).
	MemoHits int `json:"memo_hits,omitempty"`
}

// decideResponse is the /v1/decide verdict. Edge indices refer to the
// canonicalized (sorted, deduplicated) instance the decision ran on; the
// offending edges are also rendered as name lists so clients need not
// re-canonicalize.
type decideResponse struct {
	Dual            bool        `json:"dual"`
	Reason          string      `json:"reason"`
	Witness         []string    `json:"witness,omitempty"`
	CoWitness       []string    `json:"cowitness,omitempty"`
	GEdge           int         `json:"g_edge"`
	HEdge           int         `json:"h_edge"`
	GEdgeVerts      []string    `json:"g_edge_verts,omitempty"`
	HEdgeVerts      []string    `json:"h_edge_verts,omitempty"`
	RedundantVertex string      `json:"redundant_vertex,omitempty"`
	FailPath        []int       `json:"fail_path,omitempty"`
	Swapped         bool        `json:"swapped"`
	Stats           decideStats `json:"stats"`
	Cached          bool        `json:"cached"`
	// Engine is the resolved engine name the verdict was requested on.
	Engine string `json:"engine"`
	// Trace carries per-stage wall timings when the request asked for them
	// with ?trace=1 (docs/OBSERVABILITY.md has the stage glossary).
	Trace *traceStats `json:"trace,omitempty"`
}

// traceStats is the ?trace=1 block: nanoseconds spent in each request
// stage, plus the request wall time they are bounded by. Stages are
// disjoint, so their sum is at most wall_ns; cached and coalesced
// responses report only the stages they actually ran (parse, canonicalize,
// cache lookup). Wall is measured when the block is built, so every
// recorded stage is a sub-interval of it.
type traceStats struct {
	WallNs         int64 `json:"wall_ns"`
	ParseNs        int64 `json:"parse_ns"`
	CanonicalizeNs int64 `json:"canonicalize_ns"`
	CacheLookupNs  int64 `json:"cache_lookup_ns"`
	PrecheckNs     int64 `json:"precheck_ns,omitempty"`
	IndexSyncNs    int64 `json:"index_sync_ns,omitempty"`
	WalkNs         int64 `json:"walk_ns,omitempty"`
	MemoNs         int64 `json:"memo_ns,omitempty"`
}

// newTrace builds the ?trace=1 block: the handler's own stages from q, the
// cache probe and (computed verdicts only) the engine stages from out.
func newTrace(start time.Time, q batch.Query, out batch.Outcome) *traceStats {
	return &traceStats{
		WallNs:         time.Since(start).Nanoseconds(),
		ParseNs:        q.Parse.Nanoseconds(),
		CanonicalizeNs: q.Canon.Nanoseconds(),
		CacheLookupNs:  out.Lookup.Nanoseconds(),
		PrecheckNs:     out.Stages[obs.StagePrecheck],
		IndexSyncNs:    out.Stages[obs.StageIndexSync],
		WalkNs:         out.Stages[obs.StageWalk],
		MemoNs:         out.Stages[obs.StageMemo],
	}
}

// parseQuery is the front half every verdict endpoint shares: resolve the
// engine ("" is the default portfolio), parse, canonicalize and key, timed
// into q.Parse and q.Canon.
func (s *Server) parseQuery(req decideRequest) (q batch.Query, sy *hgio.Symbols, err error) {
	t0 := time.Now()
	if q.Engine, err = engine.ByName(req.Engine); err != nil {
		return q, nil, err
	}
	hs, sy, err := hgio.ParseHypergraphs(s.cfg.Limits, nil, req.G, req.H)
	q.Parse = time.Since(t0)
	if err != nil {
		return q, nil, err
	}
	t0 = time.Now()
	q.G, q.H = hs[0].Canonical(), hs[1].Canonical()
	q.Key = batch.NewKey(q.Engine.Name(), q.G.Fingerprint(), q.H.Fingerprint())
	q.Canon = time.Since(t0)
	return q, sy, nil
}

// decodeQuery decodes a /v1/decide or /v1/cluster/verdict body and parses
// it; a failure is answered with a 400 and reported as ok == false.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (q batch.Query, req decideRequest, sy *hgio.Symbols, ok bool) {
	ai := accessFrom(r.Context())
	t0 := time.Now()
	err := s.decodeJSON(w, r, &req)
	decode := time.Since(t0)
	if err == nil {
		q, sy, err = s.parseQuery(req)
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return q, req, nil, false
	}
	q.Parse += decode
	ai.engine, ai.fg, ai.fh = q.Key.Engine, fpPrefix(q.Key.FG), fpPrefix(q.Key.FH)
	return q, req, sy, true
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx, cancel, err := s.budgetCtx(r, s.cfg.DecideTimeout)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	q, req, sy, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	// A request that is itself a peer's work (the loop guard ?no_forward=1
	// or the peer header) carries no raw texts, so it never fans out again.
	if r.URL.Query().Get("no_forward") != "1" && r.Header.Get(cluster.PeerHeader) == "" {
		q.RawG, q.RawH = req.G, req.H
	}
	out, err := s.scheduler.Resolve(ctx, q)
	if out.Source == batch.SourceCache {
		s.cacheHits.Add(1)
	} else {
		s.cacheMisses.Add(1)
	}
	if !s.settle(w, r, ctx, q.Key.Engine, out, err) {
		return
	}
	resp := renderDecide(out.Res, q.G, q.H, sy, out.Source != batch.SourceComputed, q.Key.Engine)
	if r.URL.Query().Get("trace") == "1" {
		resp.Trace = newTrace(start, q, out)
	}
	writeJSON(w, resp)
}

// settle attributes a resolution to the counters and the access record and
// answers a failed one; it reports whether a verdict is left to render.
func (s *Server) settle(w http.ResponseWriter, r *http.Request, ctx context.Context, eng string, out batch.Outcome, err error) bool {
	s.account(eng, out.Source, err)
	if err != nil {
		s.fail(w, r, ctx, err)
		return false
	}
	accessFrom(r.Context()).note(out.Source.String(), out.Res.Dual, out.Res.Reason.String())
	return true
}

// account attributes one resolution to the shared counters: every answer
// another request's resolution produced (verdict or shared error) counts
// as coalesced, verdicts count as engine cache hits or decisions.
func (s *Server) account(eng string, src batch.Source, err error) {
	switch {
	case src == batch.SourceCoalesced:
		s.coalesced.Add(1)
	case err != nil:
	case src == batch.SourceCache:
		s.engStats[eng].hits.Add(1)
	case src == batch.SourceComputed:
		s.engStats[eng].decisions.Add(1)
	}
}

// renderDecide resolves an index-level verdict into the request's names;
// g and h are the canonicalized inputs the verdict's edge indices refer to.
func renderDecide(res *core.Result, g, h *hypergraph.Hypergraph, sy *hgio.Symbols, cached bool, engName string) decideResponse {
	resp := decideResponse{
		Dual:    res.Dual,
		Reason:  res.Reason.String(),
		GEdge:   res.GEdge,
		HEdge:   res.HEdge,
		Swapped: res.Swapped,
		Cached:  cached,
		Engine:  engName,
		Stats: decideStats{
			Nodes:       res.Stats.Nodes,
			Leaves:      res.Stats.Leaves,
			MaxDepth:    res.Stats.MaxDepth,
			MaxChildren: res.Stats.MaxChildren,
			MemoHits:    res.Stats.MemoHits,
		},
	}
	if res.Reason == core.ReasonNewTransversal {
		resp.Witness = names(res.Witness, sy)
		resp.CoWitness = names(res.CoWitness, sy)
		resp.FailPath = res.FailPath
	}
	if res.GEdge >= 0 && res.GEdge < g.M() {
		resp.GEdgeVerts = names(g.Edge(res.GEdge), sy)
	}
	if res.HEdge >= 0 && res.HEdge < h.M() {
		resp.HEdgeVerts = names(h.Edge(res.HEdge), sy)
	}
	if res.RedundantVertex >= 0 && res.RedundantVertex < sy.Len() {
		resp.RedundantVertex = sy.Name(res.RedundantVertex)
	}
	if cached {
		// memo_hits gauges THIS request's decomposition work; a cached or
		// coalesced response ran none, whatever the original run recorded.
		resp.Stats.MemoHits = 0
	}
	return resp
}
