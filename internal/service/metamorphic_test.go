package service

// The metamorphic serving-path test: one seeded stream of DUAL queries —
// dual and non-dual pairs, exact duplicates, vertex renames and edge-order
// shuffles — must get the same verdict, reason and witness whichever path
// serves it and whatever source (compute, cache, coalesced flight) the
// verdict comes from.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"dualspace/internal/cluster"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hgio"
)

// servedVerdict is what every path must agree on; the witness and
// co-witness are vertex-name sets in the request's own names.
type servedVerdict struct {
	dual               bool
	reason             string
	witness, coWitness string
}

func nameSet(ns []string) string {
	sort.Strings(ns)
	return strings.Join(ns, " ")
}

// verdictOf renders an index-level result in sy's names, as /v1/decide
// does.
func verdictOf(res *core.Result, sy *hgio.Symbols) servedVerdict {
	v := servedVerdict{dual: res.Dual, reason: res.Reason.String()}
	if res.Reason == core.ReasonNewTransversal {
		v.witness, v.coWitness = nameSet(names(res.Witness, sy)), nameSet(names(res.CoWitness, sy))
	}
	return v
}

// verdictOfJSON reads a /v1/decide response body or /v1/batch item row.
func verdictOfJSON(out map[string]any) servedVerdict {
	set := func(v any) string {
		list, _ := v.([]any)
		ns := make([]string, len(list))
		for i, n := range list {
			ns[i], _ = n.(string)
		}
		return nameSet(ns)
	}
	v := servedVerdict{dual: out["dual"] == true, witness: set(out["witness"]), coWitness: set(out["cowitness"])}
	v.reason, _ = out["reason"].(string)
	return v
}

// metamorphicStream draws n queries from dual and non-dual base pairs.
// Renames keep first-appearance order and shuffles move only h's edges
// (g interns every vertex first), so both stay in their base's canonical
// class and coalesce or hit the cache like exact duplicates.
func metamorphicStream(r *rand.Rand, n int) []decideRequest {
	bases := []decideRequest{{G: gDual, H: hNonDual}, {G: "a b\nb c\na c\n", H: "a b\nb c\na c\n"}}
	for k := 2; k <= 4; k++ {
		g, h := matchingText(k)
		// Dropping one edge of the dual leaves a new transversal.
		bases = append(bases, decideRequest{G: g, H: h}, decideRequest{G: g, H: h[strings.Index(h, "\n")+1:]})
	}
	lines := func(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }
	rename := func(s, tag string) string {
		ls := lines(s)
		for i, l := range ls {
			fs := strings.Fields(l)
			for j := range fs {
				fs[j] += tag
			}
			ls[i] = strings.Join(fs, " ")
		}
		return strings.Join(ls, "\n") + "\n"
	}
	out := make([]decideRequest, n)
	for i := range out {
		q := bases[r.Intn(len(bases))]
		switch r.Intn(3) {
		case 1:
			tag := fmt.Sprintf("_r%d", r.Intn(3))
			q = decideRequest{G: rename(q.G, tag), H: rename(q.H, tag)}
		case 2:
			ls := lines(q.H)
			r.Shuffle(len(ls), func(a, b int) { ls[a], ls[b] = ls[b], ls[a] })
			q.H = strings.Join(ls, "\n") + "\n"
		}
		out[i] = q
	}
	return out
}

func TestServingPathsAgree(t *testing.T) {
	stream := metamorphicStream(rand.New(rand.NewSource(13)), 40)
	want := make([]servedVerdict, len(stream))
	syms := make([]*hgio.Symbols, len(stream))
	for i, q := range stream {
		hs, sy, err := hgio.ReadHypergraphs(strings.NewReader(q.G), strings.NewReader(q.H))
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.NewSession(nil).Decide(context.Background(), hs[0].Canonical(), hs[1].Canonical())
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		want[i], syms[i] = verdictOf(res, sy), sy
	}
	check := func(path string, i int, got servedVerdict) {
		if got != want[i] {
			t.Errorf("%s item %d: %+v, in-process session %+v", path, i, got, want[i])
		}
	}

	// One request of a path, safe off the test goroutine.
	post := func(url string, q decideRequest, dst any) bool {
		buf, _ := json.Marshal(q)
		resp, err := http.Post(url, "application/json", strings.NewReader(string(buf)))
		if err != nil {
			t.Errorf("%s: %v", url, err)
			return false
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, %v", url, resp.StatusCode, err)
			return false
		}
		return true
	}
	paths := []struct {
		path string
		ask  func(base string, i int) servedVerdict
	}{
		{"/v1/decide", func(base string, i int) servedVerdict {
			var out map[string]any
			if !post(base+"/v1/decide", stream[i], &out) {
				return servedVerdict{}
			}
			return verdictOfJSON(out)
		}},
		{"/v1/cluster/verdict", func(base string, i int) servedVerdict {
			var wv cluster.WireVerdict
			if !post(base+"/v1/cluster/verdict", stream[i], &wv) {
				return servedVerdict{}
			}
			res, err := wv.Result()
			if err != nil || wv.N != syms[i].Len() {
				t.Errorf("item %d: universe %d of %d, %v", i, wv.N, syms[i].Len(), err)
				return servedVerdict{}
			}
			return verdictOf(res, syms[i])
		}},
	}
	for _, p := range paths {
		s, ts := newTestServer(t, Config{Workers: 2})
		// The first query as a held stampede: one request computes, the two
		// others coalesce onto its flight.
		hold := make(chan struct{})
		s.testHookSlotAcquired = func() { <-hold }
		var wg sync.WaitGroup
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(p.path, 0, p.ask(ts.URL, 0))
			}()
		}
		waitUntil(t, "the stampede to join one flight", func() bool { return s.scheduler.FlightWaiters() == 2 })
		close(hold)
		wg.Wait()
		// Then the stream in order: first sightings compute, repeats hit.
		for i := range stream {
			check(p.path, i, p.ask(ts.URL, i))
		}
		if s.coalesced.Load() != 2 || s.engStats["portfolio"].hits.Load() == 0 {
			t.Errorf("%s: coalesced = %d, cache hits = %d; the stream missed a source",
				p.path, s.coalesced.Load(), s.engStats["portfolio"].hits.Load())
		}
	}

	// /v1/batch, in two halves: in-batch duplicates dedup, and the second
	// half hits what the first half computed.
	_, ts := newTestServer(t, Config{Workers: 2})
	cacheHits := 0.0
	for _, half := range [][2]int{{0, len(stream) / 2}, {len(stream) / 2, len(stream)}} {
		var body strings.Builder
		for _, q := range stream[half[0]:half[1]] {
			body.WriteString(ndjsonRow(t, q))
		}
		items, errRows, term := postNDJSON(t, ts.URL, body.String())
		if len(errRows) != 0 || len(items) != half[1]-half[0] {
			t.Fatalf("batch %v: %d items, error rows %v", half, len(items), errRows)
		}
		for idx, row := range items {
			check("/v1/batch", half[0]+idx, verdictOfJSON(row))
		}
		cacheHits += term["cache_hits"].(float64)
	}
	if cacheHits == 0 {
		t.Error("/v1/batch: the second half hit nothing the first half computed")
	}
}
