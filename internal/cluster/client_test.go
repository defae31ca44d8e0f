package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dualspace/internal/core"
)

func TestNewDisabledWithoutPeers(t *testing.T) {
	c, err := New(Config{Self: "http://a:1"})
	if err != nil || c != nil {
		t.Fatalf("New with no peers = (%v, %v), want (nil, nil)", c, err)
	}
	// Self listed among peers still means a cluster of one: disabled.
	c, err = New(Config{Self: "a:1", Peers: []string{"http://a:1/"}})
	if err != nil || c != nil {
		t.Fatalf("New with only-self peers = (%v, %v), want (nil, nil)", c, err)
	}
}

func TestNewRequiresSelf(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://b:1"}}); err == nil {
		t.Fatal("New accepted peers without self")
	}
}

func TestClientFillRoundTrip(t *testing.T) {
	var gotHeader atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get(PeerHeader))
		if r.URL.Query().Get("no_forward") != "1" {
			t.Error("fill request missing no_forward=1")
		}
		var req FillRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding fill request: %v", err)
		}
		if req.G == "" || req.H == "" {
			t.Errorf("fill request carries empty texts: %+v", req)
		}
		_ = json.NewEncoder(w).Encode(WireVerdict{
			Verdict: core.Verdict{N: 3, Dual: true, GEdge: -1, HEdge: -1, RedundantVertex: -1},
			Cached:  true,
		})
	}))
	defer peer.Close()

	c, err := New(Config{Self: "http://self:1", Peers: []string{peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	wv, err := c.Fill(context.Background(), peer.URL, "core", "a b\nc\n", "a c\nb c\n")
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	if wv == nil || !wv.Dual || wv.N != 3 {
		t.Fatalf("Fill verdict = %+v", wv)
	}
	if got := gotHeader.Load(); got != "http://self:1" {
		t.Fatalf("peer header = %q, want self address", got)
	}
	st, ok := c.Peer(peer.URL)
	if !ok || st.Fills != 1 || st.Hits != 1 || st.Errors != 0 {
		t.Fatalf("peer stats = %+v", st)
	}
}

func TestClientFillMissAndErrors(t *testing.T) {
	status := atomic.Int64{}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(status.Load()))
	}))
	defer peer.Close()
	c, err := New(Config{Self: "http://self:1", Peers: []string{peer.URL}, BreakerThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}

	status.Store(http.StatusNotFound)
	wv, err := c.Fill(context.Background(), peer.URL, "", "a\n", "a\n")
	if wv != nil || err != nil {
		t.Fatalf("404 fill = (%v, %v), want miss", wv, err)
	}

	status.Store(http.StatusInternalServerError)
	for i := 0; i < 2; i++ {
		if _, err := c.Fill(context.Background(), peer.URL, "", "a\n", "a\n"); err == nil {
			t.Fatal("5xx fill reported no error")
		}
	}
	// Breaker open: next fill is a silent skip.
	wv, err = c.Fill(context.Background(), peer.URL, "", "a\n", "a\n")
	if wv != nil || err != nil {
		t.Fatalf("breaker-open fill = (%v, %v), want skip", wv, err)
	}
	st, _ := c.Peer(peer.URL)
	if !st.BreakerOpen || st.Skips != 1 || st.Errors != 2 || st.Misses != 1 {
		t.Fatalf("peer stats after failures = %+v", st)
	}
}

func TestClientFillPeerDown(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	addr := peer.URL
	peer.Close() // connection refused from here on

	c, err := New(Config{
		Self: "http://self:1", Peers: []string{addr},
		Timeout: 200 * time.Millisecond, BreakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fill(context.Background(), addr, "", "a\n", "a\n"); err == nil {
		t.Fatal("fill against a closed listener reported no error")
	}
	st, _ := c.Peer(addr)
	if !st.BreakerOpen {
		t.Fatal("breaker stayed closed after a transport failure with threshold 1")
	}
}

// A fill skipped on the fan-out bound after the breaker's cooldown must
// not consume the single probe token: if it did, the breaker would stay
// open (and the peer disabled) until restart.
func TestClientFillFanoutSkipDoesNotStrandProbe(t *testing.T) {
	var healthy atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(WireVerdict{
			Verdict: core.Verdict{N: 1, Dual: true, GEdge: -1, HEdge: -1, RedundantVertex: -1},
		})
	}))
	defer peer.Close()

	cur := time.Unix(1000, 0)
	c, err := New(Config{
		Self: "http://self:1", Peers: []string{peer.URL},
		BreakerThreshold: 1, BreakerCooldown: time.Second,
		MaxConcurrentFills: 1,
		now:                func() time.Time { return cur },
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Fill(context.Background(), peer.URL, "", "a\n", "a\n"); err == nil {
		t.Fatal("5xx fill reported no error")
	}
	if st, _ := c.Peer(peer.URL); !st.BreakerOpen {
		t.Fatal("breaker stayed closed after failure with threshold 1")
	}

	// Cooldown elapses, the peer recovers, but the only fan-out slot is
	// taken — this fill must be a plain skip, not a consumed probe.
	cur = cur.Add(2 * time.Second)
	healthy.Store(true)
	c.sem <- struct{}{}
	if wv, err := c.Fill(context.Background(), peer.URL, "", "a\n", "a\n"); wv != nil || err != nil {
		t.Fatalf("fan-out-bound fill = (%v, %v), want skip", wv, err)
	}
	<-c.sem

	wv, err := c.Fill(context.Background(), peer.URL, "", "a\n", "a\n")
	if err != nil || wv == nil {
		t.Fatalf("post-cooldown probe = (%v, %v): probe token stranded by the fan-out skip", wv, err)
	}
	if st, _ := c.Peer(peer.URL); st.BreakerOpen {
		t.Fatalf("breaker still open after successful probe: %+v", st)
	}
}

func TestOwnerCoversAllMembers(t *testing.T) {
	c, err := New(Config{Self: "http://self:1", Peers: []string{"http://b:1", "http://c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for h := uint64(0); h < 300000; h += 97 {
		addr, remote := c.Owner(mix64(h))
		seen[addr] = true
		if remote == (addr == c.Self()) {
			t.Fatalf("Owner(%#x) remote flag inconsistent: %q", h, addr)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("ownership did not cover all 3 members: %v", seen)
	}
}
