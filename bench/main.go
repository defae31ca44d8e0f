// Command bench is dualspace's end-to-end benchmark: it drives a dualserved
// built from the same checkout through one of four workloads, checks every
// answer, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) by name and unit, the last line of its output being
// one JSON result object. README.md documents workloads, metrics and bounds.
//
// Usage, from the repository root (bench/run.sh builds both binaries first):
//
//	bash bench/run.sh -workload decide-cold -seed 1 -seconds 24 -trace 0 [-out runs.jsonl]
//	bash bench/run.sh compare base.jsonl head.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupRepeats is how many times a run starts the server and warms it
	// up; setup_s is the median.
	setupRepeats = 5
	// maxLateness bounds the open-loop generator's own p99 wake-up delay;
	// beyond it the loop did not send on schedule and the run is void.
	maxLateness = time.Millisecond
	// hotMinHitShare / coldMaxHitShare are the cache-hit shares outside
	// which decide-hot and decide-cold no longer test what they are for.
	hotMinHitShare  = 0.99
	coldMaxHitShare = 0.05
)

// units maps every metric the harness reports to its unit.
var units = map[string]string{
	"throughput_ops_s":     "ops/s",
	"latency_p50_ms":       "ms",
	"latency_p90_ms":       "ms",
	"server_cpu_ms_per_op": "ms",
	"server_rss_mb":        "MB",
	"setup_s":              "s",

	"service.request_us_mean":            "us",
	"service.self_us_mean":               "us",
	"service.transport_us_mean":          "us",
	"service.coalesced":                  "count",
	"service.sheds":                      "count",
	"service.timeouts":                   "count",
	"hgio.parse_ns_op":                   "ns",
	"hypergraph.canon_fp_ns_op":          "ns",
	"batch.cache.hit_ratio":              "ratio",
	"batch.cache.get_ns_op":              "ns",
	"batch.scheduler.dedup_ratio":        "ratio",
	"batch.scheduler.rows_per_decision":  "count",
	"batch.scheduler.run_ns_per_row":     "ns",
	"engine.session_decide_ns_op":        "ns",
	"engine.memo.hit_ratio":              "ratio",
	"engine.memo.evictions_per_decision": "count",
	"core.decisions":                     "count",
	"core.precheck_us_per_decision":      "us",
	"core.index_sync_us_per_decision":    "us",
	"core.walk_us_per_decision":          "us",
	"core.memo_us_per_decision":          "us",
	"core.nodes_per_decision":            "count",
	"core.max_depth":                     "count",
	"core.depth_bound_violations":        "count",
	"itemsets.duality_checks_per_mine":   "count",
	"itemsets.self_share":                "ratio",
	"trace.overhead_pct":                 "%",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one line of an -out file, the input of compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	Result   result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", fmt.Sprintf("workload to run (one of %v)", workloadNames))
	seed := flag.Int64("seed", 1, "input seed (seeds 2 and 3 are held out for confirming claims)")
	seconds := flag.Int("seconds", 24, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", "", "also append the result, with workload and seed, to this JSON-lines file")
	bin := flag.String("server", ".bench_build/dualserved", "dualserved binary to run")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	reference := flag.Bool("reference", false, "serve as the reference server (started by the benchmark itself)")
	flag.Parse()
	if *reference {
		if err := serveReference(); err != nil {
			fmt.Fprintln(os.Stderr, "bench reference:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The generator gets two processors; the servers keep their defaults.
	runtime.GOMAXPROCS(clients)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s seed %d: attempted %d, failed %d, correct %v\n", *name, *seed, res.Attempted, res.Failed, res.Correct)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if *out != "" {
		if err := appendRecord(*out, runRecord{Workload: *name, Seed: *seed, Trace: *trace, Seconds: *seconds, Result: *res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func appendRecord(path string, r runRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run executes one workload run.
func run(ctx context.Context, name string, seed int64, dur time.Duration, traced bool, bin, spansDir string) (*result, error) {
	w, err := newWorkload(name, seed, coldPoolSize)
	if err != nil {
		return nil, err
	}
	if err := expectBorders(w.sets); err != nil {
		return nil, err
	}
	ref, err := startReference(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	defer ref.stop()
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	for k := 0; k < repeats; k++ {
		if srv != nil {
			srv.stop()
		}
		var ready time.Duration
		if srv, ready, err = startServer(ctx, bin); err != nil {
			return nil, err
		}
		warm, err := warmUp(ctx, srv.c, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (ready + warm).Seconds())
	}
	if !traced {
		return runEndToEnd(ctx, srv, ref.c, w, dur, setups)
	}
	res, m, err := runTraced(ctx, srv.c, ref.c, w, seed, dur, spansDir)
	if err != nil {
		return nil, err
	}
	srv.stop() // the in-process pass gets the machine to itself
	srv = nil
	layers, err := inproc(ctx, w)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	res.Metrics = withUnits(m)
	return res, nil
}

// warmUp sends the workload's warm-up requests one at a time and returns
// how long that took. On decide-hot it must run exactly one decomposition
// per canonical class: more means the variants left their classes.
func warmUp(ctx context.Context, c *client, w *workload) (time.Duration, error) {
	p := sequential(ctx, c, w.warm)
	if p.failed > 0 || p.invalid != nil {
		return 0, fmt.Errorf("warm-up: %d of %d operations failed (%v)", p.failed, p.units, p.invalid)
	}
	if w.name == "decide-hot" {
		k, err := scrape(ctx, c, w.endpoint)
		if err != nil {
			return 0, err
		}
		if k.Decompositions > hotClasses {
			return 0, fmt.Errorf("invalid run: decide-hot warm-up ran %d decompositions for %d classes", k.Decompositions, hotClasses)
		}
	}
	return p.elapsed, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// validate applies the workload-validity gates to one measurement and the
// counter delta around it (the generator's lateness is checkLateness's).
func validate(w *workload, m *measured, d counters) error {
	for _, p := range []*phase{&m.open, &m.closed} {
		if p.invalid != nil {
			return fmt.Errorf("invalid run: %w", p.invalid)
		}
	}
	share := ratio(float64(d.Cache.Hits), float64(d.Cache.Hits+d.Cache.Misses))
	switch {
	case w.name == "decide-hot" && share < hotMinHitShare:
		return fmt.Errorf("invalid run: decide-hot cache-hit share %.4f < %v", share, hotMinHitShare)
	case w.name == "decide-cold" && share > coldMaxHitShare:
		return fmt.Errorf("invalid run: decide-cold cache-hit share %.4f > %v", share, coldMaxHitShare)
	}
	return nil
}

// measureWithCounters runs one normalized measurement between two counter
// snapshots and applies the validity gates.
func measureWithCounters(ctx context.Context, c, ref *client, srv *server, w *workload, next, refNext *atomic.Int64, dur time.Duration, traced bool) (normalized, counters, error) {
	before, err := scrape(ctx, c, w.endpoint)
	if err != nil {
		return normalized{}, counters{}, err
	}
	m, err := measureNormalized(ctx, c, ref, srv, w, next, refNext, dur, traced)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return normalized{}, counters{}, err
	}
	after, err := scrape(ctx, c, w.endpoint)
	if err != nil {
		return normalized{}, counters{}, err
	}
	d := after.minus(before)
	if err := validate(w, &m.measured, d); err != nil {
		return m, d, err
	}
	return m, d, checkLateness(&m.open)
}

// checkLateness voids an open loop whose sends ran late: a void run, not a
// slow one.
func checkLateness(open *phase) error {
	late := millis(open.lateness())
	if len(late) == 0 {
		return nil
	}
	p99 := percentile(late, 0.99)
	fmt.Fprintf(os.Stderr, "bench: open-loop generator lateness p99 %.3f ms over %d idle sends\n", p99, len(late))
	if p99 > float64(maxLateness)/float64(time.Millisecond) {
		return fmt.Errorf("invalid run: the open loop ran %.3f ms late at p99 (limit %v)", p99, maxLateness)
	}
	return nil
}

func summarize(ps ...phase) *result {
	var t phase
	for _, p := range ps {
		t.add(outcome{failed: p.failed, wrong: p.wrong}, p.units)
	}
	return &result{Correct: t.wrong == 0, Attempted: t.units, Failed: t.failed}
}

// runEndToEnd measures the end-to-end metrics with tracing off. Timing
// metrics are reported at nominal machine speed; RSS is not a timing.
func runEndToEnd(ctx context.Context, srv *server, ref *client, w *workload, dur time.Duration, setups []float64) (*result, error) {
	var next, refNext atomic.Int64
	m, _, err := measureWithCounters(ctx, srv.c, ref, srv, w, &next, &refNext, dur, false)
	if err != nil {
		return nil, err
	}
	res := summarize(m.open, m.closed)
	lat := m.latencies()
	_, setup, _ := quartiles(setups)
	speed := m.speed()
	_, rss, _ := quartiles(m.rssMB)
	fmt.Fprintf(os.Stderr, "bench: machine speed %.4f of nominal (median over %d slices); unscaled setup %.6g s\n",
		speed, len(m.slices), setup)
	res.Metrics = withUnits(map[string]float64{
		"throughput_ops_s":     m.rate(),
		"latency_p50_ms":       percentile(lat, 0.5),
		"latency_p90_ms":       percentile(lat, 0.9),
		"server_cpu_ms_per_op": m.cpuPerOp(),
		"server_rss_mb":        rss,
		"setup_s":              setup * speed,
	})
	return res, nil
}

// runTraced measures the workload twice for half the time each, untraced
// and then with ?trace=1 on every /v1/decide, and derives the HTTP-side
// per-layer metrics from the traced half.
func runTraced(ctx context.Context, c, ref *client, w *workload, seed int64, dur time.Duration, spansDir string) (*result, map[string]float64, error) {
	var next, refNext atomic.Int64
	plain, _, err := measureWithCounters(ctx, c, ref, nil, w, &next, &refNext, dur/2, false)
	if err != nil {
		return nil, nil, err
	}
	tr, d, err := measureWithCounters(ctx, c, ref, nil, w, &next, &refNext, dur-dur/2, true)
	if err != nil {
		return nil, nil, err
	}
	if err := writeSpans(spansDir, w.name, seed, &tr.measured); err != nil {
		return nil, nil, err
	}
	res := summarize(plain.open, plain.closed, tr.open, tr.closed)
	all := tr.total()

	reqUs := ratio(d.reqSeconds*1e6, d.reqCount)
	var client, self float64
	nTraced := 0
	for _, r := range all.recs {
		client += float64(r.end-r.start) / 1e3
		if r.trace != nil {
			self += float64(r.trace.WallNs-r.trace.stagesNs()) / 1e3
			nTraced++
		}
	}
	client = ratio(client, float64(len(all.recs)))
	if nTraced > 0 {
		self /= float64(nTraced)
	} else {
		// No per-request trace on this endpoint: subtract the decision
		// stages the server's histograms recorded, if any.
		self = reqUs - ratio(d.stageSeconds*1e6, d.reqCount)
	}
	decisions := float64(d.Decompositions) + float64(all.checks)
	m := map[string]float64{
		"service.request_us_mean":            reqUs,
		"service.self_us_mean":               self,
		"service.transport_us_mean":          client - reqUs,
		"service.coalesced":                  float64(d.Coalesced),
		"service.sheds":                      float64(d.Resilience.Sheds),
		"service.timeouts":                   float64(d.Resilience.Timeouts),
		"batch.cache.hit_ratio":              ratio(float64(d.Cache.Hits), float64(d.Cache.Hits+d.Cache.Misses)),
		"batch.scheduler.dedup_ratio":        ratio(float64(d.Batch.Deduped), float64(d.Batch.Items)),
		"batch.scheduler.rows_per_decision":  ratio(float64(d.Batch.Items), float64(d.Batch.Decisions)),
		"engine.memo.hit_ratio":              ratio(float64(d.Memo.Hits), float64(d.Memo.Hits+d.Memo.Misses)),
		"engine.memo.evictions_per_decision": ratio(float64(d.Memo.Evictions), decisions),
		"core.decisions":                     decisions,
		"trace.overhead_pct":                 100 * ratio(plain.rate()-tr.rate(), plain.rate()),
	}
	if w.name == "batch-mixed" {
		// A batch looks each distinct row up once.
		m["batch.cache.hit_ratio"] = ratio(float64(d.Batch.CacheHits), float64(d.Batch.Unique))
	}
	return res, m, nil
}

func withUnits(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(values))
	for k, v := range values {
		u, ok := units[k]
		if !ok {
			panic("metric without a unit: " + k)
		}
		out[k] = metric{Value: v, Unit: u}
	}
	return out
}

// spanLine is one traced request: the client span and, for /v1/decide, the
// server's wall span and stage spans (durations; the stages run inside the
// wall span in the order listed).
type spanLine struct {
	ID      int64       `json:"id"`
	Phase   string      `json:"phase"`
	StartNs int64       `json:"start_ns"`
	EndNs   int64       `json:"end_ns"`
	Server  *traceBlock `json:"server,omitempty"`
}

// writeSpans writes the traced phase's spans, kept in memory until now, as
// JSON lines.
func writeSpans(dir, name string, seed int64, m *measured) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, ph := range []struct {
		name string
		p    *phase
	}{{"open", &m.open}, {"closed", &m.closed}} {
		for _, r := range ph.p.recs {
			if err := enc.Encode(spanLine{ID: r.id, Phase: ph.name, StartNs: int64(r.start), EndNs: int64(r.end), Server: r.trace}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
