package service

// Foreign verdicts — a verdict-log record replayed into the cache, a peer
// replica's fill — are checked where they meet the instance they answer
// (core.CheckVerdict in the batch pipeline). These tests plant verdicts
// that decode cleanly but do not fit their instance, and pin the peer
// wire's JSON.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/cluster"
	"dualspace/internal/core"
	"dualspace/internal/verdictlog"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// metric reads one unlabelled sample from the /metricsz exposition (-1
// when the series is absent).
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v
		}
	}
	return -1
}

// statNum reads a number from a nested /statsz block (-1 when absent).
func statNum(st map[string]any, block, key string) float64 {
	m, _ := st[block].(map[string]any)
	v, ok := m[key].(float64)
	if !ok {
		return -1
	}
	return v
}

// TestForeignVerdictsChecked: a foreign verdict that does not fit its
// instance is counted, never served, and recomputed locally — answered 200
// with the local verdict after exactly one decomposition.
func TestForeignVerdictsChecked(t *testing.T) {
	const (
		pairG, pairH = "a\nb\n", "a b\n" // |V| = 2, dual
		triangle     = "a b\nb c\na c\n" // |V| = |G| = |H| = 3, self-dual
	)
	// serveLogged starts a server whose verdict log holds res as the
	// verdict of (g, h) on the core engine.
	serveLogged := func(t *testing.T, g, h string, n int, res *core.Result) string {
		t.Helper()
		dir := t.TempDir()
		key := keyFor(t, "core", g, h)
		lg, err := verdictlog.Open(dir, verdictlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Append(verdictlog.Record{Engine: "core", FG: key.FG, FH: key.FH, N: n, Res: res}); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		lg, err = verdictlog.Open(dir, verdictlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lg.Close() })
		s, ts := newTestServer(t, Config{VerdictLog: lg})
		t.Cleanup(s.Close)
		return ts.URL
	}
	// decideLocally asks for (g, h) and checks the answer is the local
	// verdict, computed once.
	decideLocally := func(t *testing.T, base, g, h string) {
		t.Helper()
		code, out := post(t, base+"/v1/decide", map[string]any{"g": g, "h": h, "engine": "core"})
		if code != http.StatusOK || out["dual"] != true || out["cached"] != false {
			t.Fatalf("planted verdict served: code=%d out=%v", code, out)
		}
		if d := getJSON(t, base+"/statsz")["decompositions"].(float64); d != 1 {
			t.Errorf("decompositions = %v, want 1", d)
		}
	}

	t.Run("log record over a 64-vertex universe", func(t *testing.T) {
		res := &core.Result{Reason: core.ReasonNewTransversal, GEdge: -1, HEdge: -1, RedundantVertex: -1,
			Witness: bitset.FromSlice(64, []int{40}), CoWitness: bitset.FromSlice(64, []int{41})}
		base := serveLogged(t, pairG, pairH, 64, res)
		decideLocally(t, base, pairG, pairH)
		if got := statNum(getJSON(t, base+"/statsz"), "batch", "invalid_hits"); got != 1 {
			t.Errorf("/statsz batch.invalid_hits = %v, want 1", got)
		}
		if got := metric(t, base, "dualspace_batch_invalid_hits_total"); got != 1 {
			t.Errorf("dualspace_batch_invalid_hits_total = %v, want 1", got)
		}
	})

	t.Run("log record with g_edge 5 and h_edge -7", func(t *testing.T) {
		res := &core.Result{Reason: core.ReasonNotCrossIntersecting, GEdge: 5, HEdge: -7, RedundantVertex: -1}
		base := serveLogged(t, triangle, triangle, 3, res)
		decideLocally(t, base, triangle, triangle)
		if got := statNum(getJSON(t, base+"/statsz"), "batch", "invalid_hits"); got != 1 {
			t.Errorf("/statsz batch.invalid_hits = %v, want 1", got)
		}
		// The recompute replaced the cache entry: the next ask is a hit.
		code, out := post(t, base+"/v1/decide", map[string]any{"g": triangle, "h": triangle, "engine": "core"})
		if code != http.StatusOK || out["dual"] != true || out["cached"] != true {
			t.Errorf("recomputed verdict not cached: code=%d out=%v", code, out)
		}
	})

	// peerAnswering serves the triangle from a replica whose only peer
	// owns it and answers every fill with body; each body must be rejected.
	peerAnswering := func(t *testing.T, body string) {
		t.Helper()
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, body)
		}))
		defer peer.Close()
		// Pick this replica's (never dialled) address so that the ring
		// makes the peer the triangle's owner.
		key := keyFor(t, "core", triangle, triangle)
		var c *cluster.Client
		for port := 1; c == nil; port++ {
			cand, err := cluster.New(cluster.Config{Self: fmt.Sprintf("http://192.0.2.1:%d", port), Peers: []string{peer.URL}})
			if err != nil {
				t.Fatal(err)
			}
			if _, remote := cand.Owner(key.Hash64()); remote {
				c = cand
			}
		}
		_, ts := newTestServer(t, Config{Cluster: c})
		decideLocally(t, ts.URL, triangle, triangle)
		st := getJSON(t, ts.URL+"/statsz")
		if got := statNum(st, "cluster", "invalid_verdicts"); got != 1 {
			t.Errorf("/statsz cluster.invalid_verdicts = %v, want 1", got)
		}
		if got := statNum(st, "cluster", "peer_filled"); got != 0 {
			t.Errorf("/statsz cluster.peer_filled = %v, want 0", got)
		}
		if got := metric(t, ts.URL, "dualspace_cluster_invalid_verdicts_total"); got != 1 {
			t.Errorf("dualspace_cluster_invalid_verdicts_total = %v, want 1", got)
		}
	}

	t.Run("peer answering g_edge = |G|", func(t *testing.T) {
		peerAnswering(t, `{"n":3,"dual":false,"reason":2,"g_edge":3,"h_edge":0,"redundant_vertex":-1,"swapped":false,"engine":"core","cached":true}`)
	})

	// A dual verdict carries no witness, so only the universe compare sees
	// that the peer decided an instance over |V|+1 vertices.
	t.Run("peer answering a dual verdict with n = |V|+1", func(t *testing.T) {
		peerAnswering(t, `{"n":4,"dual":true,"reason":0,"g_edge":-1,"h_edge":-1,"redundant_vertex":-1,"swapped":false,"engine":"core","cached":true}`)
	})
}

// TestClusterVerdictWireGolden pins the /v1/cluster/verdict body of a fixed
// non-dual verdict (swapped, with witnesses and a fail path) byte for byte:
// replicas of different builds must keep understanding each other.
func TestClusterVerdictWireGolden(t *testing.T) {
	const golden = "testdata/cluster_verdict.golden"
	g, h := matchingText(3)
	h = strings.Join(strings.SplitAfter(h, "\n")[1:], "") // drop one dual edge
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"engine":"core","g":%q,"h":%q}`, g, h)
	resp, err := http.Post(ts.URL+"/v1/cluster/verdict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire verdict drifted:\n got  %s\n want %s", got, want)
	}
}
