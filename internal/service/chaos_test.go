package service

// The chaos suite: the resilience layer's claims, proven against the armed
// fault-injection harness (internal/faultinject). Each test arms a
// process-global injector for its own duration (armFaults disarms on
// cleanup), so these tests cannot run in parallel with each other — none
// calls t.Parallel.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dualspace/internal/faultinject"
)

func armFaults(t *testing.T, spec string) {
	t.Helper()
	inj, err := faultinject.ParseSpec(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)
}

// resilienceStats reads the /statsz resilience section.
func resilienceStats(t *testing.T, url string) map[string]any {
	t.Helper()
	return getJSON(t, url+"/statsz")["resilience"].(map[string]any)
}

// blockWorker occupies one worker slot with a slow decide until the
// returned release func runs; it returns once the decomposition has
// actually started (the slot is held).
func blockWorker(t *testing.T, s *Server, ts *httptest.Server) (release func()) {
	t.Helper()
	started := make(chan struct{})
	var once sync.Once
	s.testHookSlotAcquired = func() { once.Do(func() { close(started) }) }
	g, h := matchingText(12)
	body, _ := json.Marshal(map[string]any{"g": g, "h": h})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking decide never started")
	}
	return func() {
		cancel()
		<-done
	}
}

// postRaw sends body and returns the raw response (caller closes).
func postRaw(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDecidePanicContainedAndPoolSelfHeals: an injected kernel panic comes
// back as a clean 500 with reason "panic", the poisoned session is swapped
// for a fresh one, and the very next request computes normally.
func TestDecidePanicContainedAndPoolSelfHeals(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	armFaults(t, "decide:panic:every=1")
	code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != http.StatusInternalServerError || out["reason"] != reasonPanic {
		t.Fatalf("panicked decide: code=%d out=%v", code, out)
	}
	faultinject.Disable()
	code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != 200 || out["dual"] != true {
		t.Fatalf("decide after self-heal: code=%d out=%v", code, out)
	}
	res := resilienceStats(t, ts.URL)
	if res["panics"].(float64) < 1 {
		t.Errorf("resilience.panics = %v, want >= 1", res["panics"])
	}
	if res["sessions_replaced"].(float64) < 1 {
		t.Errorf("resilience.sessions_replaced = %v, want >= 1", res["sessions_replaced"])
	}
	if res["faults_injected"].(float64) < 1 {
		t.Errorf("resilience.faults_injected = %v, want >= 1", res["faults_injected"])
	}
	if s.pool.Replaced() < 1 {
		t.Error("pool never replaced the poisoned session")
	}
}

// TestDecideBudgetTimeout: a client ?timeout_ms= budget expiring mid-compute
// is a 504 with reason "timeout" and a timeout counter hit — distinguished
// from a client disconnect even though both surface as context errors.
func TestDecideBudgetTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	armFaults(t, "decide:delay=30s")
	start := time.Now()
	code, out := post(t, ts.URL+"/v1/decide?timeout_ms=50", map[string]any{"g": gDual, "h": hDual})
	if code != http.StatusGatewayTimeout || out["reason"] != reasonTimeout {
		t.Fatalf("budget-expired decide: code=%d out=%v", code, out)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timeout answer took %v; the injected delay ignored the budget", elapsed)
	}
	if res := resilienceStats(t, ts.URL); res["timeouts"].(float64) < 1 {
		t.Errorf("resilience.timeouts = %v, want >= 1", res["timeouts"])
	}
}

// TestDecideServerTimeoutConfig: the same budget via Config.DecideTimeout,
// no client opt-in needed.
func TestDecideServerTimeoutConfig(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1, DecideTimeout: 50 * time.Millisecond})
	armFaults(t, "decide:delay=30s")
	code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != http.StatusGatewayTimeout || out["reason"] != reasonTimeout {
		t.Fatalf("code=%d out=%v", code, out)
	}
}

func TestBadTimeoutParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"bogus", "0", "-5"} {
		code, out := post(t, ts.URL+"/v1/decide?timeout_ms="+q, map[string]any{"g": gDual, "h": hDual})
		if code != http.StatusBadRequest || out["reason"] != reasonBadRequest {
			t.Errorf("timeout_ms=%s: code=%d out=%v", q, code, out)
		}
	}
}

// TestInjectedComputeError: a non-panic injected failure flows through the
// ordinary 422 semantic-rejection path.
func TestInjectedComputeError(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	armFaults(t, "decide:error")
	code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != http.StatusUnprocessableEntity || out["reason"] != reasonUnprocessable {
		t.Fatalf("code=%d out=%v", code, out)
	}
}

// TestShedWhenQueueFull: with a zero-depth queue and every worker busy, new
// compute is shed immediately with 503 + Retry-After and reason "shed".
func TestShedWhenQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1, QueueDepth: -1})
	release := blockWorker(t, s, ts)
	defer release()
	resp := postRaw(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hNonDual})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	if out["reason"] != reasonShed {
		t.Errorf("reason = %v, want shed", out["reason"])
	}
	if res := resilienceStats(t, ts.URL); res["sheds"].(float64) < 1 {
		t.Errorf("resilience.sheds = %v, want >= 1", res["sheds"])
	}
}

// TestQueueWaitShed: a parked waiter whose bounded wait expires is shed
// instead of queueing forever.
func TestQueueWaitShed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1, QueueDepth: 4, QueueWait: 30 * time.Millisecond})
	release := blockWorker(t, s, ts)
	defer release()
	start := time.Now()
	resp := postRaw(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hNonDual})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("shed after %v, before the queue-wait bound", elapsed)
	}
}

// TestCacheHitsFlowWhileSaturated: the degraded mode's availability claim —
// a saturated worker pool does not block answers the verdict cache already
// holds, because the cache path never claims a slot.
func TestCacheHitsFlowWhileSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	code, _ := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != 200 {
		t.Fatalf("warmup: code=%d", code)
	}
	release := blockWorker(t, s, ts)
	defer release()
	code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != 200 || out["cached"] != true {
		t.Fatalf("cache hit under saturation: code=%d out=%v", code, out)
	}
}

// TestDrainShedsParkedWaitersAndRefusesNewWork: the shutdown-vs-queue fix.
// Waiters parked before drain begins fail fast with the shed taxonomy (not
// after their full queue-wait), /readyz flips to 503 while /healthz stays
// alive, and new compute is refused.
func TestDrainShedsParkedWaitersAndRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1, QueueDepth: 4, QueueWait: time.Hour})
	release := blockWorker(t, s, ts)
	defer release()

	parked := make(chan *http.Response, 1)
	go func() {
		buf, _ := json.Marshal(map[string]any{"g": gDual, "h": hNonDual})
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(buf))
		if err == nil {
			parked <- resp
		}
		close(parked)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for resilienceStats(t, ts.URL)["queue_waiters"].(float64) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never parked in the admission queue")
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.BeginDrain()
	select {
	case resp := <-parked:
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || out["reason"] != reasonShed {
			t.Fatalf("parked waiter got code=%d out=%v, want shed 503", resp.StatusCode, out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked waiter not failed fast by drain (would have waited the full queue-wait)")
	}

	// Readiness splits from liveness: the draining process reports healthy
	// but not ready, and /statsz says why.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready["ready"] != false || ready["draining"] != true {
		t.Fatalf("/readyz during drain: code=%d body=%v", resp.StatusCode, ready)
	}
	if ok := getJSON(t, ts.URL+"/healthz")["ok"]; ok != true {
		t.Fatalf("/healthz during drain = %v, want alive", ok)
	}
	if d := getJSON(t, ts.URL+"/statsz")["draining"]; d != true {
		t.Fatalf("/statsz draining = %v", d)
	}
	code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hNonDual})
	if code != http.StatusServiceUnavailable || out["reason"] != reasonShed {
		t.Fatalf("new compute during drain: code=%d out=%v, want shed 503", code, out)
	}
}

// TestReadyBeforeDrain: /readyz is 200 on a serving instance.
func TestReadyBeforeDrain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready map[string]any
	json.NewDecoder(resp.Body).Decode(&ready)
	if resp.StatusCode != 200 || ready["ready"] != true {
		t.Fatalf("/readyz: code=%d body=%v", resp.StatusCode, ready)
	}
}

// TestDrainInFlightCompletes: graceful shutdown does not cut off work that
// already holds a slot — the in-flight decide runs to its verdict.
func TestDrainInFlightCompletes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	started := make(chan struct{})
	var once sync.Once
	s.testHookSlotAcquired = func() { once.Do(func() { close(started) }) }
	g, h := matchingText(8)
	type result struct {
		code int
		out  map[string]any
	}
	done := make(chan result, 1)
	go func() {
		code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": g, "h": h})
		done <- result{code, out}
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("decide never started")
	}
	s.BeginDrain()
	r := <-done
	if r.code != 200 || r.out["dual"] != true {
		t.Fatalf("in-flight decide under drain: code=%d out=%v", r.code, r.out)
	}
}

// syncBuffer is an access-log sink safe for the server's concurrent
// handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// record returns the access-log record of the first request to path, or
// nil if none has been logged yet.
func (b *syncBuffer) record(t *testing.T, path string) map[string]any {
	b.mu.Lock()
	defer b.mu.Unlock()
	dec := json.NewDecoder(bytes.NewReader(b.buf.Bytes()))
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("access log is not JSON lines: %v", err)
		}
		if rec["path"] == path {
			return rec
		}
	}
	return nil
}

// TestStreamEndings: every streaming endpoint ends a stream that has
// already written records the same way. Drain and an expired budget end it
// with a terminal record whose reason names the class, counted under the
// endpoint's shed or timeout series; a client that hangs up gets no
// terminal record and is counted as cancelled. The access log carries the
// same class as its outcome. Writes are slowed so each ending lands
// mid-stream; the batch body arrives through a pipe so its intake is still
// open when the ending begins.
func TestStreamEndings(t *testing.T) {
	g10, _ := matchingText(10) // 2^10 transversals
	// Ten transactions, each missing one of ten items, at z = 1: every
	// 8-itemset is maximal frequent and every 9-itemset minimal infrequent,
	// 55 border elements in all.
	var data strings.Builder
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if j != i {
				fmt.Fprintf(&data, "i%d ", j)
			}
		}
		data.WriteString("\n")
	}
	jsonLine := func(v any) string {
		b, _ := json.Marshal(v)
		return string(b) + "\n"
	}
	endpoints := []struct {
		name, path string
		// body is sent whole; a batch instead sends rows[0] and keeps its
		// body open, feeding rows[1] when the case asks for more input.
		body string
		rows []string
	}{
		{name: "transversals", path: "/v1/transversals", body: jsonLine(map[string]any{"h": g10})},
		{name: "mine", path: "/v1/mine", body: jsonLine(map[string]any{"data": data.String(), "z": 1})},
		{name: "batch", path: "/v1/batch", rows: []string{
			jsonLine(map[string]any{"g": gDual, "h": hDual}),
			jsonLine(map[string]any{"g": gDual, "h": hNonDual}),
		}},
	}
	cases := []struct {
		name    string
		query   string
		outcome string // access-log outcome; also the terminal reason unless "cancelled"
	}{
		{name: "drain", outcome: reasonShed},
		{name: "timeout", query: "?timeout_ms=100", outcome: reasonTimeout},
		{name: "client_gone", outcome: "cancelled"},
	}
	for _, ep := range endpoints {
		for _, tc := range cases {
			t.Run(ep.name+"/"+tc.name, func(t *testing.T) {
				logs := &syncBuffer{}
				s, ts := newTestServer(t, Config{Workers: 1, Logger: slog.New(slog.NewJSONHandler(logs, nil))})
				armFaults(t, "stream_write:delay=5ms")

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var body io.Reader = strings.NewReader(ep.body)
				more, closeInput := func() {}, func() {}
				if ep.rows != nil {
					pr, pw := io.Pipe()
					body = pr
					go io.WriteString(pw, ep.rows[0])
					more = func() { io.WriteString(pw, ep.rows[1]) }
					closeInput = func() { pw.Close() }
					defer pw.Close()
				}
				req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+ep.path+tc.query, body)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Fatalf("status = %d", resp.StatusCode)
				}
				sc := bufio.NewScanner(resp.Body)
				if !sc.Scan() {
					t.Fatalf("no first record: %v", sc.Err())
				}

				switch tc.name {
				case "drain":
					s.BeginDrain()
					more()
				case "timeout":
					time.Sleep(200 * time.Millisecond)
					closeInput()
				case "client_gone":
					cancel()
				}
				if tc.name != "client_gone" {
					var last string
					for sc.Scan() {
						last = sc.Text()
					}
					if err := sc.Err(); err != nil {
						t.Fatalf("stream broke instead of ending cleanly: %v", err)
					}
					var term struct {
						Done   bool   `json:"done"`
						Error  string `json:"error"`
						Reason string `json:"reason"`
					}
					if err := json.Unmarshal([]byte(last), &term); err != nil {
						t.Fatalf("terminal line is not JSON: %q", last)
					}
					if term.Done || term.Reason != tc.outcome || term.Error == "" {
						t.Fatalf("terminal record = %s, want reason %q", last, tc.outcome)
					}
				}

				// The access record is logged once the handler returns,
				// which for a vanished client is some time after the hang-up.
				var rec map[string]any
				for deadline := time.Now().Add(10 * time.Second); rec == nil; time.Sleep(5 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("no access-log record for the stream")
					}
					rec = logs.record(t, ep.path)
				}
				if rec["outcome"] != tc.outcome {
					t.Errorf("access-log outcome = %v, want %s", rec["outcome"], tc.outcome)
				}
				samples, _ := scrapeMetrics(t, ts.URL)
				label := `endpoint="` + ep.name + `"`
				want := map[string]float64{"dualspace_sheds_total": 0, "dualspace_timeouts_total": 0, "dualspace_cancelled_total": 0}
				switch tc.outcome {
				case reasonShed:
					want["dualspace_sheds_total"] = 1
				case reasonTimeout:
					want["dualspace_timeouts_total"] = 1
				default:
					want["dualspace_cancelled_total"] = 1
				}
				for name, w := range want {
					frags := []string{label}
					if name == "dualspace_cancelled_total" {
						frags = nil
					}
					if got, _ := find(samples, name, frags...); got != w {
						t.Errorf("%s = %v, want %v", name, got, w)
					}
				}
			})
		}
	}
}

// TestStreamFailsBeforeFirstRecord: a stream that fails before writing
// its first record still owns its status line, so the failure is an
// ordinary HTTP error — 503 + Retry-After for drain, 504 for an expired
// budget — not a 200 whose only line is a terminal record. The slot hook
// drains the server, or outwaits the budget, after admission and before
// the first record.
func TestStreamFailsBeforeFirstRecord(t *testing.T) {
	mine := map[string]any{"data": "milk bread\nmilk bread\nbeer\n", "z": 1}
	cases := []struct {
		name, path, query string
		body              any
		hook              func(s *Server)
		status            int
	}{
		{"transversals/drain", "/v1/transversals", "", map[string]any{"h": gDual}, (*Server).BeginDrain, http.StatusServiceUnavailable},
		{"transversals/timeout", "/v1/transversals", "?timeout_ms=5", map[string]any{"h": gDual},
			func(*Server) { time.Sleep(50 * time.Millisecond) }, http.StatusGatewayTimeout},
		{"mine/drain", "/v1/mine", "", mine, (*Server).BeginDrain, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			s.testHookSlotAcquired = func() { tc.hook(s) }
			resp := postRaw(t, ts.URL+tc.path+tc.query, tc.body)
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || out["reason"] != reasonForStatus(tc.status) {
				t.Fatalf("status = %d, body = %v; want %d", resp.StatusCode, out, tc.status)
			}
			if tc.status == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
				t.Error("shed answer without Retry-After")
			}
		})
	}
}

// TestBatchPanicRows: injected drain-step panics become per-row errors with
// reason "panic" — the rest of the batch completes, the terminal record
// balances, and the pool replaces every poisoned session.
func TestBatchPanicRows(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	armFaults(t, "decide:panic:every=2")
	tri := "a b\nb c\na c\n"
	g3, h3 := matchingText(3)
	rows := []map[string]any{
		{"g": gDual, "h": hDual},
		{"g": gDual, "h": hNonDual},
		{"g": tri, "h": tri},
		{"g": g3, "h": h3},
	}
	var body bytes.Buffer
	for _, r := range rows {
		b, _ := json.Marshal(r)
		body.Write(b)
		body.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	panicsSeen, verdicts := 0, 0
	var term map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q", sc.Text())
		}
		switch {
		case row["done"] != nil:
			term = row
		case row["reason"] == reasonPanic:
			panicsSeen++
			if !strings.Contains(row["error"].(string), "panic") {
				t.Errorf("panic row error = %v", row["error"])
			}
		case row["error"] != nil:
			t.Errorf("unexpected error row: %v", row)
		default:
			verdicts++
		}
	}
	// every=2 over 4 distinct rows: exactly two drain steps panic.
	if panicsSeen != 2 || verdicts != 2 {
		t.Fatalf("panic rows = %d, verdicts = %d, want 2 + 2", panicsSeen, verdicts)
	}
	if term == nil || term["done"] != true || term["errors"].(float64) != 2 {
		t.Fatalf("terminal record = %v", term)
	}
	if res := resilienceStats(t, ts.URL); res["sessions_replaced"].(float64) < 2 {
		t.Errorf("sessions_replaced = %v, want >= 2", res["sessions_replaced"])
	}
}

// TestChaosMixedFaultsServerSurvives is the suite's integral claim: under a
// mixed fault storm — panics, delays, cancels, failing stream writes, cache
// faults — the process keeps answering, never wedges, and every poisoned
// session is replaced. Run with -race in CI.
func TestChaosMixedFaultsServerSurvives(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, CacheSize: 64, QueueDepth: 8, QueueWait: 100 * time.Millisecond})
	armFaults(t, "decide:panic:every=5,decide:delay=2ms:p=0.2,decide:cancel:every=13,"+
		"cache_lookup:error:every=7,decide:panic:every=9,stream_write:error:every=11")

	instances := make([]map[string]any, 0, 6)
	tri := "a b\nb c\na c\n"
	instances = append(instances, map[string]any{"g": tri, "h": tri})
	for k := 2; k <= 6; k++ {
		g, h := matchingText(k)
		instances = append(instances, map[string]any{"g": g, "h": h})
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				code, _ := post(t, ts.URL+"/v1/decide", instances[(c+i)%len(instances)])
				mu.Lock()
				statuses[code]++
				mu.Unlock()
			}
		}(c)
	}
	// One batch per client rides along, exercising the drain-step boundary.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var body bytes.Buffer
			for i := 0; i < len(instances); i++ {
				b, _ := json.Marshal(instances[(c+i)%len(instances)])
				body.Write(b)
				body.WriteByte('\n')
			}
			resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", &body)
			if err != nil {
				return // a shed batch under storm is fine; the server must just survive
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(c)
	}
	wg.Wait()

	faultinject.Disable()
	// The storm is over: the server must answer cleanly, at full capacity.
	for _, in := range instances {
		code, _ := post(t, ts.URL+"/v1/decide", in)
		if code != 200 {
			t.Fatalf("post-storm decide: code=%d", code)
		}
	}
	res := resilienceStats(t, ts.URL)
	if res["panics"].(float64) < 1 {
		t.Errorf("storm fired no panics (statuses=%v)", statuses)
	}
	if got, want := s.pool.Replaced(), int64(res["panics"].(float64)); got < want {
		t.Errorf("sessions replaced = %d, panics = %d: some poisoned session was never swapped", got, want)
	}
	if s.pool.Free() != 4 {
		t.Errorf("pool free = %d, want full capacity 4 (a slot leaked)", s.pool.Free())
	}
	for code := range statuses {
		switch code {
		case 200, http.StatusInternalServerError, http.StatusServiceUnavailable,
			http.StatusUnprocessableEntity, http.StatusGatewayTimeout:
		default:
			t.Errorf("unexpected status %d under fault storm (statuses=%v)", code, statuses)
		}
	}
	if statuses[200] == 0 {
		t.Error("no request survived the storm — shedding is not bounded")
	}
}
