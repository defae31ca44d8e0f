package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dualspace/internal/hgio"
)

// Canonical small instances, in the wire's hgio edge-text format.
const (
	gDual    = "a b\nc d\n"
	hDual    = "a c\na d\nb c\nb d\n"
	hNonDual = "a c\na d\nb c\n"
)

// matchingText renders the k-edge matching and its 2^k-edge dual as edge
// text, for instances whose decision takes long enough to cancel.
func matchingText(k int) (g, h string) {
	var gb, hb strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&gb, "v%da v%db\n", i, i)
	}
	for mask := 0; mask < 1<<k; mask++ {
		for i := 0; i < k; i++ {
			side := "a"
			if mask&(1<<i) != 0 {
				side = "b"
			}
			fmt.Fprintf(&hb, "v%d%s ", i, side)
		}
		hb.WriteString("\n")
	}
	return gb.String(), hb.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes a JSON object response.
func post(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if ok := getJSON(t, ts.URL+"/healthz")["ok"]; ok != true {
		t.Fatalf("healthz = %v", ok)
	}
	stats := getJSON(t, ts.URL+"/statsz")
	for _, key := range []string{"uptime_seconds", "requests", "cache", "decompositions", "cancelled"} {
		if _, present := stats[key]; !present {
			t.Errorf("statsz missing %q", key)
		}
	}
}

func TestDecideVerdicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != 200 || out["dual"] != true {
		t.Fatalf("dual pair: code=%d out=%v", code, out)
	}
	code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hNonDual})
	if code != 200 || out["dual"] != false {
		t.Fatalf("non-dual pair: code=%d out=%v", code, out)
	}
	if out["reason"] != "new transversal exists" {
		t.Errorf("reason = %v", out["reason"])
	}
	wit, ok := out["witness"].([]any)
	if !ok || len(wit) == 0 {
		t.Errorf("missing witness: %v", out["witness"])
	}
	// Self-duality: the majority triangle.
	code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": "a b\nb c\na c\n", "h": "a b\nb c\na c\n"})
	if code != 200 || out["dual"] != true {
		t.Fatalf("self-dual triangle: code=%d out=%v", code, out)
	}
}

func TestDecideErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: hgio.Limits{MaxEdges: 4, MaxUniverse: 8}})
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	// Unknown field.
	code, _ := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual, "bogus": 1})
	if code != 400 {
		t.Errorf("unknown field: status %d", code)
	}
	// Non-simple input is a semantic (422) failure.
	code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": "a\na b\n", "h": hDual})
	if code != 422 {
		t.Errorf("non-simple input: status %d body %v", code, out)
	}
	// Input limits map to 413.
	code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": "a\nb\nc\nd\ne\n", "h": "x\n"})
	if code != 413 {
		t.Errorf("limit violation: status %d body %v", code, out)
	}
	// GET on a POST endpoint.
	resp, err = http.Get(ts.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET decide: status %d", resp.StatusCode)
	}
}

func TestDecideBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	code, out := post(t, ts.URL+"/v1/decide", map[string]any{
		"g": strings.Repeat("a b\n", 64), "h": hDual})
	if code != 413 {
		t.Fatalf("oversized body: status %d body %v", code, out)
	}
}

func TestDecideFingerprintCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stats := func() map[string]any { return getJSON(t, ts.URL+"/statsz") }

	code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != 200 || out["cached"] != false {
		t.Fatalf("first decide: code=%d cached=%v", code, out["cached"])
	}
	s0 := stats()
	if d := s0["decompositions"].(float64); d != 1 {
		t.Fatalf("decompositions after first decide = %v", d)
	}

	// Identical repeat: served from cache, zero additional decompositions.
	code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
	if code != 200 || out["dual"] != true || out["cached"] != true {
		t.Fatalf("repeat decide: code=%d out=%v", code, out)
	}

	// Permuted edge order canonicalizes to the same fingerprint.
	code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": "c d\na b\n", "h": "b d\na c\nb c\na d\n"})
	if code != 200 || out["cached"] != true {
		t.Fatalf("permuted decide not cached: code=%d out=%v", code, out)
	}

	// Renamed vertices inducing the same index families hit too, and the
	// verdict resolves in the new request's names.
	code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": "p q\nr s\n", "h": "p r\np s\nq r\nq s\n"})
	if code != 200 || out["cached"] != true || out["dual"] != true {
		t.Fatalf("renamed decide not cached: code=%d out=%v", code, out)
	}

	s1 := stats()
	if d := s1["decompositions"].(float64); d != 1 {
		t.Errorf("cached repeats recomputed: decompositions = %v", d)
	}
	cache := s1["cache"].(map[string]any)
	if hits := cache["hits"].(float64); hits != 3 {
		t.Errorf("cache hits = %v, want 3", hits)
	}
	if misses := cache["misses"].(float64); misses != 1 {
		t.Errorf("cache misses = %v, want 1", misses)
	}

	// A different instance misses and recomputes.
	code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hNonDual})
	if code != 200 || out["cached"] != false {
		t.Fatalf("distinct instance served from cache: %v", out)
	}
	if d := stats()["decompositions"].(float64); d != 2 {
		t.Errorf("decompositions = %v, want 2", d)
	}
}

// TestDecideEngineSelection drives /v1/decide across every registry engine:
// all must agree on the verdict, echo the resolved engine name, and an
// unknown name must be rejected before any work runs.
func TestDecideEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, name := range []string{"portfolio", "core", "core-parallel", "fk-a", "fk-b", "logspace"} {
		code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual, "engine": name})
		if code != 200 || out["dual"] != true || out["engine"] != name {
			t.Errorf("engine %s: code=%d out=%v", name, code, out)
		}
		code, out = post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hNonDual, "engine": name})
		if code != 200 || out["dual"] != false {
			t.Errorf("engine %s non-dual: code=%d out=%v", name, code, out)
		}
		if wit, ok := out["witness"].([]any); !ok || len(wit) == 0 {
			t.Errorf("engine %s: missing witness: %v", name, out["witness"])
		}
	}
	// The empty engine resolves to the portfolio.
	if _, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual}); out["engine"] != "portfolio" {
		t.Errorf("default engine = %v", out["engine"])
	}
	// Unknown engines are client errors.
	if code, _ := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual, "engine": "quantum"}); code != 400 {
		t.Errorf("unknown engine: code=%d", code)
	}
}

// TestDecideEngineKeyedCache is the satellite guard: a verdict cached for
// one engine is never served for an explicit request of another, and the
// per-engine /statsz counters track hits and decisions separately.
func TestDecideEngineKeyedCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	decide := func(eng string) map[string]any {
		code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual, "engine": eng})
		if code != 200 || out["dual"] != true {
			t.Fatalf("engine %s: code=%d out=%v", eng, code, out)
		}
		return out
	}
	if out := decide("core"); out["cached"] != false {
		t.Fatalf("first core decide cached: %v", out)
	}
	// The same instance on fk-b must be a fresh miss, not the core entry.
	if out := decide("fk-b"); out["cached"] != false {
		t.Fatalf("fk-b served from the core cache entry: %v", out)
	}
	// Repeats hit within each engine.
	if out := decide("core"); out["cached"] != true || out["engine"] != "core" {
		t.Fatalf("core repeat not cached: %v", out)
	}
	if out := decide("fk-b"); out["cached"] != true || out["engine"] != "fk-b" {
		t.Fatalf("fk-b repeat not cached: %v", out)
	}
	engines := getJSON(t, ts.URL+"/statsz")["engines"].(map[string]any)
	for _, eng := range []string{"core", "fk-b"} {
		c := engines[eng].(map[string]any)
		if c["hits"].(float64) != 1 || c["decisions"].(float64) != 1 {
			t.Errorf("engine %s counters = %v, want 1 hit / 1 decision", eng, c)
		}
	}
	if c := engines["portfolio"].(map[string]any); c["decisions"].(float64) != 0 {
		t.Errorf("portfolio counters moved without portfolio traffic: %v", c)
	}
}

// streamTransversals posts to /v1/transversals and returns the streamed
// sets plus the terminal record.
func streamTransversals(t *testing.T, url string, body any) ([][]string, map[string]any) {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url+"/v1/transversals", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var sets [][]string
	var terminal map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if tv, ok := rec["transversal"].([]any); ok {
			set := make([]string, len(tv))
			for i, v := range tv {
				set[i] = v.(string)
			}
			sets = append(sets, set)
			continue
		}
		if terminal != nil {
			t.Fatalf("multiple terminal records: %v then %v", terminal, rec)
		}
		terminal = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal == nil {
		t.Fatal("stream ended without a terminal record")
	}
	return sets, terminal
}

func TestTransversalsStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The 3-matching has exactly 8 minimal transversals.
	sets, term := streamTransversals(t, ts.URL, map[string]any{"h": "a b\nc d\ne f\n"})
	if len(sets) != 8 {
		t.Fatalf("streamed %d sets, want 8", len(sets))
	}
	if term["done"] != true || term["count"].(float64) != 8 || term["truncated"] == true {
		t.Fatalf("terminal = %v", term)
	}
	for _, set := range sets {
		if len(set) != 3 {
			t.Errorf("transversal %v has size %d, want 3", set, len(set))
		}
	}

	// The limit knob truncates the stream.
	sets, term = streamTransversals(t, ts.URL, map[string]any{"h": "a b\nc d\ne f\n", "limit": 5})
	if len(sets) != 5 || term["truncated"] != true || term["count"].(float64) != 5 {
		t.Fatalf("limited stream: %d sets, terminal %v", len(sets), term)
	}

	// A limit hit exactly at |tr(h)| is a complete stream, not a truncated
	// one: no 9th transversal exists to prove truncation.
	sets, term = streamTransversals(t, ts.URL, map[string]any{"h": "a b\nc d\ne f\n", "limit": 8})
	if len(sets) != 8 || term["truncated"] == true || term["done"] != true {
		t.Fatalf("exact-limit stream: %d sets, terminal %v", len(sets), term)
	}

	// Constant conventions: tr(∅) = {∅} over an implicit empty universe...
	sets, term = streamTransversals(t, ts.URL, map[string]any{"h": ""})
	if len(sets) != 1 || len(sets[0]) != 0 || term["done"] != true {
		t.Fatalf("tr(empty family): %v / %v", sets, term)
	}
	// ...and tr({∅}) = ∅.
	sets, term = streamTransversals(t, ts.URL, map[string]any{"h": "-\n"})
	if len(sets) != 0 || term["count"].(float64) != 0 {
		t.Fatalf("tr({∅}): %v / %v", sets, term)
	}
}

func TestBordersEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := "milk bread\nmilk bread\nmilk bread\nbeer chips\nbeer chips\nbeer chips\nmilk beer\n"
	code, out := post(t, ts.URL+"/v1/borders", map[string]any{"data": data, "z": 2})
	if code != 200 {
		t.Fatalf("borders: code=%d out=%v", code, out)
	}
	maxF := out["max_frequent"].([]any)
	if len(maxF) == 0 {
		t.Fatal("no maximal frequent itemsets")
	}
	found := false
	for _, is := range maxF {
		var items []string
		for _, v := range is.([]any) {
			items = append(items, v.(string))
		}
		set := strings.Join(items, " ")
		if set == "milk bread" || set == "bread milk" {
			found = true
		}
	}
	if !found {
		t.Errorf("milk+bread not in IS+: %v", maxF)
	}
	if out["duality_checks"].(float64) < 1 {
		t.Errorf("duality_checks = %v", out["duality_checks"])
	}
	// Threshold out of range is a 422.
	if code, _ := post(t, ts.URL+"/v1/borders", map[string]any{"data": data, "z": 99}); code != 422 {
		t.Errorf("bad threshold: code=%d", code)
	}
}

func TestKeysEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := "name,dept,room\nann,sales,101\nbob,sales,102\ncyd,eng,101\n"
	code, out := post(t, ts.URL+"/v1/keys", map[string]any{"csv": csv})
	if code != 200 {
		t.Fatalf("keys: code=%d out=%v", code, out)
	}
	keys := out["keys"].([]any)
	hasName := false
	for _, k := range keys {
		ks := k.([]any)
		if len(ks) == 1 && ks[0] == "name" {
			hasName = true
		}
	}
	if !hasName {
		t.Errorf("name not reported as a minimal key: %v", keys)
	}

	// Claiming only {name} must surface an additional key.
	code, out = post(t, ts.URL+"/v1/keys", map[string]any{"csv": csv, "known": "name\n"})
	if code != 200 || out["complete"] != false {
		t.Fatalf("additional key: code=%d out=%v", code, out)
	}
	if nk, ok := out["new_key"].([]any); !ok || len(nk) == 0 {
		t.Errorf("missing new_key: %v", out)
	}
	// Unknown attribute in the claim is a client error.
	if code, _ := post(t, ts.URL+"/v1/keys", map[string]any{"csv": csv, "known": "salary\n"}); code != 400 {
		t.Errorf("unknown attribute: code=%d", code)
	}
}

func TestCoteriesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, out := post(t, ts.URL+"/v1/coteries", map[string]any{"quorums": "a b\nb c\na c\n"})
	if code != 200 || out["non_dominated"] != true {
		t.Fatalf("majority coterie: code=%d out=%v", code, out)
	}
	code, out = post(t, ts.URL+"/v1/coteries", map[string]any{"quorums": "hub a\nhub b\nhub c\n", "improve": true})
	if code != 200 || out["non_dominated"] != false {
		t.Fatalf("star coterie: code=%d out=%v", code, out)
	}
	if dom, ok := out["dominating"].([]any); !ok || len(dom) == 0 {
		t.Errorf("no dominating coterie returned: %v", out)
	}
	// Non-intersecting quorums are not a coterie.
	if code, _ := post(t, ts.URL+"/v1/coteries", map[string]any{"quorums": "a\nb\n"}); code != 422 {
		t.Errorf("invalid coterie: code=%d", code)
	}
}

// TestConcurrentMixedTraffic drives every endpoint from 32 concurrent
// clients against a real socket; run under -race this checks the pool,
// cache and counter paths for data races.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, CacheSize: 64})
	data := "milk bread\nmilk bread\nbeer chips\nbeer chips\nmilk beer\n"
	csv := "name,dept\nann,sales\nbob,eng\n"
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				switch (i + rep) % 6 {
				case 0:
					code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hDual})
					if code != 200 || out["dual"] != true {
						errs <- fmt.Errorf("decide dual: %d %v", code, out)
					}
				case 1:
					code, out := post(t, ts.URL+"/v1/decide", map[string]any{"g": gDual, "h": hNonDual})
					if code != 200 || out["dual"] != false {
						errs <- fmt.Errorf("decide nondual: %d %v", code, out)
					}
				case 2:
					sets, term := streamTransversals(t, ts.URL, map[string]any{"h": "a b\nc d\ne f\n"})
					if len(sets) != 8 || term["done"] != true {
						errs <- fmt.Errorf("stream: %d sets", len(sets))
					}
				case 3:
					code, _ := post(t, ts.URL+"/v1/borders", map[string]any{"data": data, "z": 1})
					if code != 200 {
						errs <- fmt.Errorf("borders: %d", code)
					}
				case 4:
					code, _ := post(t, ts.URL+"/v1/keys", map[string]any{"csv": csv})
					if code != 200 {
						errs <- fmt.Errorf("keys: %d", code)
					}
				case 5:
					code, out := post(t, ts.URL+"/v1/coteries", map[string]any{"quorums": "a b\nb c\na c\n"})
					if code != 200 || out["non_dominated"] != true {
						errs <- fmt.Errorf("coteries: %d %v", code, out)
					}
				}
				getJSON(t, ts.URL+"/statsz")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats := getJSON(t, ts.URL+"/statsz")
	reqs := stats["requests"].(map[string]any)
	if reqs["decide"].(float64) < 16 {
		t.Errorf("decide requests = %v", reqs["decide"])
	}
	if stats["in_flight"].(float64) < 1 {
		t.Errorf("in_flight while serving statsz = %v", stats["in_flight"])
	}
}

// TestDecideCancellation closes the client side of an in-flight /v1/decide
// and asserts the server aborts the decomposition via context (observable
// as the cancelled counter) instead of finishing the work.
func TestDecideCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	var once sync.Once
	s.testHookSlotAcquired = func() { once.Do(func() { close(started) }) }

	g, h := matchingText(12) // |H| = 4096: far more work than the cancel latency
	body, _ := json.Marshal(map[string]any{"g": g, "h": h})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with status %d despite cancellation", resp.StatusCode)
		}
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("decide never started")
	}
	cancel() // closes the client connection; the server ctx must fire
	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client err = %v; want context canceled", err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if getJSON(t, ts.URL+"/statsz")["cancelled"].(float64) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d := getJSON(t, ts.URL+"/statsz")["decompositions"].(float64); d != 1 {
		t.Errorf("decompositions = %v, want exactly the aborted one", d)
	}
}

// The verdict cache's LRU/sharding behavior is tested in internal/batch
// (TestCacheShardingAndLRU); here only its integration is covered
// (TestDecideFingerprintCache, TestBatchEndpoint).
