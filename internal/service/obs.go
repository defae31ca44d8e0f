package service

// The server's observability surface: a per-Server obs.Registry holding
// every counter the handlers maintain (so /statsz and /metricsz render the
// same atomic storage and can never disagree), per-endpoint request/latency
// series, per-engine decision wall and stage histograms, a structured
// access log, and the GET /metricsz Prometheus text exposition.
//
// The counters /statsz always reported (requests, cache, decompositions,
// cancellations, ...) are now *obs.Counter / *obs.Gauge created here out of
// the registry; subsystems that keep their own atomic storage (the batch
// scheduler, the per-session memos, the sharded cache) are bridged with
// func-backed series that read those atomics at scrape time. Nothing is
// counted twice and nothing is sampled: a scrape and a /statsz snapshot
// differ only by the requests that landed between them.

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"dualspace/internal/cluster"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/faultinject"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
	"dualspace/internal/verdictlog"
)

// endpointNames are the label values of the per-endpoint series, in
// exposition order; every path endpointOf maps lands on one of them, and
// unknown paths fall under "other".
var endpointNames = []string{
	"decide", "cluster", "batch", "mine", "transversals", "borders", "keys",
	"coteries", "healthz", "readyz", "statsz", "metricsz", "other",
}

// workEndpoints are the endpoints that claim worker slots and run compute —
// the ones admission control can shed and deadline budgets can expire, so
// the only ones carrying shed/timeout series.
var workEndpoints = []string{
	"decide", "cluster", "batch", "mine", "transversals", "borders", "keys",
	"coteries",
}

// endpointPaths maps each served path to its endpoint label.
var endpointPaths = map[string]string{
	"/v1/decide": "decide", "/v1/cluster/verdict": "cluster", "/v1/batch": "batch",
	"/v1/mine": "mine", "/v1/transversals": "transversals", "/v1/borders": "borders",
	"/v1/keys": "keys", "/v1/coteries": "coteries", "/healthz": "healthz",
	"/readyz": "readyz", "/statsz": "statsz", "/metricsz": "metricsz",
}

// endpointOf maps a request path to its endpoint label.
func endpointOf(path string) string {
	if ep, ok := endpointPaths[path]; ok {
		return ep
	}
	return "other"
}

// endpointObs is one endpoint's request counter and latency histogram.
type endpointObs struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

// serverObs bundles the Server's registry and the series not owned by a
// named Server field.
type serverObs struct {
	reg       *obs.Registry
	endpoints map[string]*endpointObs
	// sheds / timeouts are the per-endpoint admission-shed and
	// budget-timeout counters, keyed by workEndpoints labels.
	sheds    map[string]*obs.Counter
	timeouts map[string]*obs.Counter
	decide   *obs.DecideMetrics
	logger   *slog.Logger
}

// initObs builds the registry and every series for s. Called from New after
// the pool, cache and scheduler exist; the func-backed bridges capture s.
func (s *Server) initObs(logger *slog.Logger) {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:       reg,
		endpoints: make(map[string]*endpointObs, len(endpointNames)),
		sheds:     make(map[string]*obs.Counter, len(workEndpoints)),
		timeouts:  make(map[string]*obs.Counter, len(workEndpoints)),
		logger:    logger,
	}
	s.obs = o

	reg.Gauge("dualspace_build_info",
		"Build metadata; the value is always 1.",
		obs.L("revision", obs.GitRevision()), obs.L("go_version", runtime.Version())).Set(1)
	reg.GaugeFunc("dualspace_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	for _, ep := range endpointNames {
		o.endpoints[ep] = &endpointObs{
			requests: reg.Counter("dualspace_http_requests_total",
				"HTTP requests received, by endpoint.", obs.L("endpoint", ep)),
			latency: reg.Histogram("dualspace_http_request_duration_seconds",
				"HTTP request latency, by endpoint.", obs.L("endpoint", ep)),
		}
	}

	for _, ep := range workEndpoints {
		o.sheds[ep] = reg.Counter("dualspace_sheds_total",
			"Requests shed by admission control (503 + Retry-After), by endpoint.",
			obs.L("endpoint", ep))
		o.timeouts[ep] = reg.Counter("dualspace_timeouts_total",
			"Requests whose compute budget expired (504), by endpoint.",
			obs.L("endpoint", ep))
	}
	s.panics = reg.Counter("dualspace_panics_total",
		"Panics contained at a serving boundary instead of killing the process.")
	reg.GaugeFunc("dualspace_queue_waiters",
		"Requests currently parked in the admission queue.",
		func() float64 { return float64(s.queueWaiters.Load()) })
	reg.Gauge("dualspace_queue_depth_limit",
		"Admission-queue capacity; waiters beyond it are shed.").
		Set(int64(s.cfg.QueueDepth))
	reg.GaugeFunc("dualspace_draining",
		"1 once graceful drain has begun (/readyz answers 503).",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dualspace_pool_free_sessions",
		"Worker-pool sessions currently checked in.",
		func() float64 { return float64(s.pool.Free()) })
	reg.CounterFunc("dualspace_sessions_replaced_total",
		"Poisoned sessions the pool replaced after a contained panic.",
		func() float64 { return float64(s.pool.Replaced()) })
	for _, p := range faultinject.Points() {
		reg.CounterFunc("dualspace_faults_injected_total",
			"Faults fired by the fault-injection harness, by point (0 unless armed).",
			func() float64 { return float64(faultinject.Fired(p)) },
			obs.L("point", p.String()))
	}

	s.inFlight = reg.Gauge("dualspace_in_flight_requests",
		"Requests currently being served.")
	s.cacheHits = reg.Counter("dualspace_cache_hits_total",
		"/v1/decide verdict-cache hits.")
	s.cacheMisses = reg.Counter("dualspace_cache_misses_total",
		"/v1/decide verdict-cache misses.")
	s.decompositions = reg.Counter("dualspace_decompositions_total",
		"Decision decompositions actually run.")
	s.coalesced = reg.Counter("dualspace_coalesced_total",
		"Requests and batch entries served by another request's in-flight resolution.")
	s.cancelled = reg.Counter("dualspace_cancelled_total",
		"Requests abandoned by their client before completion.")
	s.badRequests = reg.Counter("dualspace_bad_requests_total",
		"Requests rejected with an error response.")
	s.streamedSets = reg.Counter("dualspace_streamed_results_total",
		"Transversals streamed by /v1/transversals.")
	s.minedElements = reg.Counter("dualspace_mined_elements_total",
		"Border elements streamed by /v1/mine.")

	for _, name := range engine.Names() {
		s.engStats[name] = &engineCounters{
			hits: reg.Counter("dualspace_engine_cache_hits_total",
				"Verdict-cache hits, by requested engine.", obs.L("engine", name)),
			decisions: reg.Counter("dualspace_decisions_total",
				"Decisions run, by resolved engine.", obs.L("engine", name)),
		}
	}
	o.decide = obs.NewDecideMetrics(reg, engine.Names())

	reg.GaugeFunc("dualspace_cache_entries",
		"Verdicts currently cached.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("dualspace_cache_capacity",
		"Verdict-cache capacity in entries.",
		func() float64 { return float64(s.cache.Capacity()) })

	batchCounter := func(name, help string, read func() int64) {
		reg.CounterFunc("dualspace_batch_"+name, help,
			func() float64 { return float64(read()) })
	}
	batchCounter("batches_total", "Batch streams drained.",
		func() int64 { return s.scheduler.Stats().Batches })
	batchCounter("items_total", "Batch rows consumed.",
		func() int64 { return s.scheduler.Stats().Items })
	batchCounter("unique_total", "Distinct canonical instances across batches.",
		func() int64 { return s.scheduler.Stats().Unique })
	batchCounter("deduped_total", "Batch rows coalesced onto an in-batch duplicate.",
		func() int64 { return s.scheduler.Stats().Deduped })
	batchCounter("cache_hits_total", "Batch rows answered by the shared verdict cache.",
		func() int64 { return s.scheduler.Stats().CacheHits })
	batchCounter("decisions_total", "Batch rows decided by an engine run.",
		func() int64 { return s.scheduler.Stats().Decisions })
	batchCounter("errors_total", "Batch rows answered with an error.",
		func() int64 { return s.scheduler.Stats().Errors })
	batchCounter("panics_total", "Panics contained in the verdict pipeline's compute step, on every path.",
		func() int64 { return s.scheduler.Stats().Panics })
	batchCounter("invalid_hits_total", "Cache hits whose verdict did not fit its instance (core.CheckVerdict), recomputed; nonzero is an alarm.",
		func() int64 { return s.scheduler.Stats().InvalidHits })
	reg.GaugeFunc("dualspace_batch_active", "Batch streams currently draining.",
		func() float64 { return float64(s.scheduler.Stats().Active) })

	// Work-stealing scheduler counters (process-wide: the search objects are
	// pooled across sessions, so per-server attribution is meaningless).
	stealCounter := func(name, help string, read func() int64) {
		reg.CounterFunc("dualspace_walk_"+name, help,
			func() float64 { return float64(read()) })
	}
	stealCounter("spawns_total", "Subtree frames published to work-stealing deques.",
		func() int64 { s, _, _ := core.ParallelSearchTotals(); return s })
	stealCounter("steals_total", "Subtree frames stolen from another worker's deque.",
		func() int64 { _, s, _ := core.ParallelSearchTotals(); return s })
	stealCounter("idle_parks_total", "Parallel-search workers parked waiting for work.",
		func() int64 { _, _, p := core.ParallelSearchTotals(); return p })

	// Cluster + verdict-log series. The scalar counters always exist (they
	// are just zero when the features are off, and /statsz reads them
	// unconditionally); the per-peer and log bridges are created only when
	// the feature is configured — their label sets depend on it.
	reg.CounterFunc("dualspace_cluster_peer_filled_total",
		"Requests answered by a peer replica's cached verdict.",
		func() float64 { return float64(s.scheduler.Stats().PeerFills) })
	reg.CounterFunc("dualspace_cluster_invalid_verdicts_total",
		"Peer fill responses rejected by decoding or core.CheckVerdict; nonzero is an alarm.",
		func() float64 { return float64(s.scheduler.Stats().InvalidFills) })
	s.clusterServeHits = reg.Counter("dualspace_cluster_serve_cache_hits_total",
		"/v1/cluster/verdict fills served from the local cache.")
	s.clusterServeComputes = reg.Counter("dualspace_cluster_serve_computes_total",
		"/v1/cluster/verdict fills computed on local workers.")
	s.vlogDropped = reg.Counter("dualspace_verdictlog_dropped_total",
		"Verdicts dropped by the non-blocking log-append path.")
	if c := s.cfg.Cluster; c != nil {
		reg.Gauge("dualspace_cluster_peers",
			"Remote ring members configured.").Set(int64(len(c.PeerAddrs())))
		for _, addr := range c.PeerAddrs() {
			peerCounter := func(name, help string, read func(cluster.PeerStats) int64) {
				reg.CounterFunc("dualspace_cluster_peer_"+name, help,
					func() float64 { st, _ := c.Peer(addr); return float64(read(st)) },
					obs.L("peer", addr))
			}
			peerCounter("fills_total", "Fill attempts dispatched, by peer.",
				func(st cluster.PeerStats) int64 { return st.Fills })
			peerCounter("hits_total", "Fills answered with a verdict, by peer.",
				func(st cluster.PeerStats) int64 { return st.Hits })
			peerCounter("misses_total", "Fills answered without a verdict (healthy peer), by peer.",
				func(st cluster.PeerStats) int64 { return st.Misses })
			peerCounter("errors_total", "Fill transport errors and 5xx, by peer.",
				func(st cluster.PeerStats) int64 { return st.Errors })
			peerCounter("skips_total", "Fills suppressed by breaker or fan-out bound, by peer.",
				func(st cluster.PeerStats) int64 { return st.Skips })
			reg.GaugeFunc("dualspace_cluster_peer_breaker_open",
				"1 while the peer's circuit breaker is open.",
				func() float64 {
					if st, _ := c.Peer(addr); st.BreakerOpen {
						return 1
					}
					return 0
				}, obs.L("peer", addr))
		}
	}
	if s.cfg.VerdictLog != nil {
		vl := s.cfg.VerdictLog
		reg.GaugeFunc("dualspace_verdictlog_replayed_to_cache",
			"Log records warmed into the verdict cache at startup.",
			func() float64 { return float64(s.logReplayed.Load()) })
		vlogCounter := func(name, help string, read func(verdictlog.Stats) int64) {
			reg.CounterFunc("dualspace_verdictlog_"+name, help,
				func() float64 { return float64(read(vl.Stats())) })
		}
		vlogCounter("appended_total", "Verdict records appended to the log.",
			func(st verdictlog.Stats) int64 { return st.Appended })
		vlogCounter("skipped_dup_total", "Appends skipped because the key was already logged.",
			func(st verdictlog.Stats) int64 { return st.SkippedDup })
		vlogCounter("append_errors_total", "Failed log appends (the log stays usable).",
			func(st verdictlog.Stats) int64 { return st.AppendErrors })
		vlogCounter("compactions_total", "Log compactions completed.",
			func(st verdictlog.Stats) int64 { return st.Compactions })
		reg.GaugeFunc("dualspace_verdictlog_live_records",
			"Deduplicated records the log would replay.",
			func() float64 { return float64(vl.Stats().LiveRecords) })
		reg.GaugeFunc("dualspace_verdictlog_segments",
			"Segment files on disk (including the active one).",
			func() float64 { return float64(vl.Stats().Segments) })
		reg.GaugeFunc("dualspace_verdictlog_bytes",
			"Bytes on disk across segments.",
			func() float64 { return float64(vl.Stats().Bytes) })
		reg.GaugeFunc("dualspace_verdictlog_truncated_bytes",
			"Bytes dropped at replay as corrupt.",
			func() float64 { return float64(vl.Stats().TruncatedBytes) })
	}

	memoCounter := func(name, help string, read func() int64) {
		reg.CounterFunc("dualspace_memo_"+name, help,
			func() float64 { return float64(read()) })
	}
	memoCounter("hits_total", "Subinstance-memo subtree skips across worker sessions.",
		func() int64 { return s.pool.MemoStats().Hits })
	memoCounter("misses_total", "Subinstance-memo lookups that found nothing.",
		func() int64 { return s.pool.MemoStats().Misses })
	memoCounter("inserts_total", "Subinstance-memo entries recorded.",
		func() int64 { return s.pool.MemoStats().Inserts })
	memoCounter("evictions_total", "Subinstance-memo entries evicted.",
		func() int64 { return s.pool.MemoStats().Evictions })
	reg.GaugeFunc("dualspace_memo_entries", "Subinstance-memo entries resident.",
		func() float64 { return float64(s.pool.MemoStats().Entries) })
}

// handleMetrics renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WritePrometheus(w)
}

// accessInfo is the per-request record the handlers annotate and the
// access log renders. The middleware injects a fresh one into every
// request context; accessFrom hands handlers invoked without the
// middleware (direct tests) a discard record, so annotation sites need no
// nil checks.
type accessInfo struct {
	engine  string // resolved engine name
	verdict string // "dual" / "nondual" once decided
	reason  string // core.Reason string of the verdict
	outcome string // cache_hit | coalesced | computed | peer_fill | error | cancelled | timeout | shed | panic
	fg, fh  string // canonical fingerprint prefixes of the inputs
}

type accessInfoKey struct{}

func accessFrom(ctx context.Context) *accessInfo {
	if ai, ok := ctx.Value(accessInfoKey{}).(*accessInfo); ok {
		return ai
	}
	return &accessInfo{}
}

// note annotates the record with a decided verdict.
func (ai *accessInfo) note(outcome string, dual bool, reason string) {
	ai.outcome = outcome
	if dual {
		ai.verdict = "dual"
	} else {
		ai.verdict = "nondual"
	}
	ai.reason = reason
}

// fpPrefix is the fingerprint's log form: enough hex to correlate requests
// against cache keys without 64-character lines.
func fpPrefix(fp hypergraph.Fingerprint) string {
	return fp.String()[:12]
}

// statusWriter captures the response status and byte count for the access
// log and latency series. Unwrap keeps http.NewResponseController working
// through the wrapper (the streaming endpoints need Flush and write
// deadlines).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// observeRequest is the ServeHTTP middleware tail: the endpoint's request
// count and latency, side by side so the two series agree for every
// request the server received (404s and 405s included), and one
// structured access-log record when logging is on.
func (s *Server) observeRequest(r *http.Request, ep string, sw *statusWriter, ai *accessInfo, d time.Duration) {
	eo := s.obs.endpoints[ep]
	eo.requests.Add(1)
	eo.latency.Observe(d)
	lg := s.obs.logger
	if lg == nil {
		return
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("endpoint", ep),
		slog.Int("status", status),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("latency", d),
	)
	if ai.engine != "" {
		attrs = append(attrs, slog.String("engine", ai.engine))
	}
	if ai.outcome != "" {
		attrs = append(attrs, slog.String("outcome", ai.outcome))
	}
	if ai.verdict != "" {
		attrs = append(attrs, slog.String("verdict", ai.verdict))
	}
	if ai.reason != "" {
		attrs = append(attrs, slog.String("reason", ai.reason))
	}
	if ai.fg != "" {
		attrs = append(attrs, slog.String("fg", ai.fg), slog.String("fh", ai.fh))
	}
	lg.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}
