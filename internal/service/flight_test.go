package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestDecideCoalescesStampede drives a stampede of identical cache-miss
// /v1/decide requests and asserts exactly one decomposition runs: the first
// request becomes the flight leader (blocked on the test hook until every
// other request has attached as a follower), the rest coalesce onto its
// verdict.
func TestDecideCoalescesStampede(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	const clients = 8

	release := make(chan struct{})
	s.testHookSlotAcquired = func() { <-release }

	g, h := matchingText(4)
	body, err := json.Marshal(map[string]any{"g": g, "h": h})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		code int
		resp map[string]any
		err  error
	}
	results := make(chan outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			err = json.NewDecoder(resp.Body).Decode(&out)
			results <- outcome{code: resp.StatusCode, resp: out, err: err}
		}()
	}

	// Hold the leader until every other request is blocked on its flight,
	// so the test is deterministic rather than a race the stampede usually
	// wins. (The coalesced counter increments only when a follower is
	// served, which requires releasing the leader — hence the waiter
	// gauge.)
	deadline := time.Now().Add(30 * time.Second)
	for s.scheduler.FlightWaiters() < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests waiting on the flight", s.scheduler.FlightWaiters(), clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	served := 0
	for o := range results {
		if o.err != nil {
			t.Fatalf("request failed: %v", o.err)
		}
		if o.code != http.StatusOK {
			t.Fatalf("status %d, body %v", o.code, o.resp)
		}
		if o.resp["dual"] != true {
			t.Fatalf("verdict %v, want dual", o.resp)
		}
		served++
	}
	if served != clients {
		t.Fatalf("served %d responses, want %d", served, clients)
	}
	if got := s.decompositions.Load(); got != 1 {
		t.Errorf("stampede ran %d decompositions, want exactly 1", got)
	}
	if got := s.coalesced.Load(); got != clients-1 {
		t.Errorf("coalesced = %d, want %d", got, clients-1)
	}

	// The counters surface through /statsz.
	stats := getJSON(t, ts.URL+"/statsz")
	if stats["coalesced"].(float64) != clients-1 {
		t.Errorf("/statsz coalesced = %v, want %d", stats["coalesced"], clients-1)
	}
	if stats["decompositions"].(float64) != 1 {
		t.Errorf("/statsz decompositions = %v, want 1", stats["decompositions"])
	}
	memo, ok := stats["memo"].(map[string]any)
	if !ok {
		t.Fatalf("/statsz has no memo block: %v", stats)
	}
	if memo["misses"].(float64) == 0 {
		t.Errorf("memo counters all zero after a decomposition: %v", memo)
	}
}

// TestDecideCoalesceDistinctKeysRunSeparately guards the key discipline:
// requests differing in engine or instance must not coalesce.
func TestDecideCoalesceDistinctKeysRunSeparately(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	g, h := matchingText(3)
	for _, engine := range []string{"core", "fk-b"} {
		code, resp := post(t, ts.URL+"/v1/decide", map[string]any{"g": g, "h": h, "engine": engine})
		if code != http.StatusOK || resp["dual"] != true {
			t.Fatalf("engine %s: code %d, resp %v", engine, code, resp)
		}
	}
	if got := s.coalesced.Load(); got != 0 {
		t.Errorf("distinct engines coalesced %d times, want 0", got)
	}
	if got := s.decompositions.Load(); got != 2 {
		t.Errorf("decompositions = %d, want 2 (one per engine)", got)
	}
}

// reply is one raw answer, collected off the test goroutine.
type reply struct {
	code       int
	retryAfter string
	reason     string
	dual       any
}

// ask posts body to url; safe to call from any goroutine.
func ask(url string, body any) reply {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return reply{code: -1, reason: err.Error()}
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	r := reply{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), dual: out["dual"]}
	r.reason, _ = out["reason"].(string)
	return r
}

// waitUntil polls cond until it holds, failing the test after 30s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightFollowersOfFailedLeader: a flight whose leader fails before it
// computes must not hand its followers a wrong answer. Followers of a shed
// leader are shed too (503 + Retry-After); followers of a leader whose own
// budget expired race for leadership again and get the verdict. Neither is
// counted as coalesced. Both verdict endpoints share the flight.
func TestFlightFollowersOfFailedLeader(t *testing.T) {
	body := map[string]any{"g": gDual, "h": hDual}
	for _, path := range []string{"/v1/decide", "/v1/cluster/verdict"} {
		t.Run(endpointOf(path)+"/shed_leader", func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueWait: 300 * time.Millisecond})
			release := blockWorker(t, s, ts)
			defer release()
			const n = 6
			replies := make(chan reply, n)
			for i := 0; i < n; i++ {
				go func() { replies <- ask(ts.URL+path, body) }()
			}
			for i := 0; i < n; i++ {
				if r := <-replies; r.code != http.StatusServiceUnavailable || r.reason != reasonShed || r.retryAfter == "" {
					t.Errorf("reply %d = %+v, want 503 shed with Retry-After", i, r)
				}
			}
			if got := s.coalesced.Load(); got != 0 {
				t.Errorf("coalesced = %d, want 0: a shed flight served nobody", got)
			}
		})
		t.Run(endpointOf(path)+"/budget_leader", func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})
			release := blockWorker(t, s, ts)
			defer release()
			leader := make(chan reply, 1)
			go func() { leader <- ask(ts.URL+path+"?timeout_ms=200", body) }()
			waitUntil(t, "the leader to park in admission", func() bool { return s.queueWaiters.Load() == 1 })
			const followers = 3
			replies := make(chan reply, followers)
			for i := 0; i < followers; i++ {
				go func() { replies <- ask(ts.URL+path+"?timeout_ms=2000", body) }()
			}
			waitUntil(t, "the followers to join the leader's flight", func() bool {
				return s.scheduler.FlightWaiters() == followers
			})
			if r := <-leader; r.code != http.StatusGatewayTimeout || r.reason != reasonTimeout {
				t.Fatalf("leader = %+v, want 504 timeout", r)
			}
			// One follower takes over the flight and parks in admission; the
			// other two follow it. Freeing the slot lets it compute.
			waitUntil(t, "a follower to lead the flight again", func() bool {
				return s.queueWaiters.Load() == 1 && s.scheduler.FlightWaiters() == followers-1
			})
			release()
			for i := 0; i < followers; i++ {
				if r := <-replies; r.code != http.StatusOK || r.dual != true {
					t.Errorf("follower %d = %+v, want the dual verdict", i, r)
				}
			}
			// Only the followers of the second flight coalesced.
			if got := s.coalesced.Load(); got != followers-1 {
				t.Errorf("coalesced = %d, want %d", got, followers-1)
			}
		})
	}
}
