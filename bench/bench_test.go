package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualspace/internal/hypergraph"
	"dualspace/internal/service"
)

// testPool is the cold-pool size of the tests' workloads.
const testPool = 4096

var seed1 sync.Map // workload name → *workload for seed 1, shared by tests

func workloadSeed1(t *testing.T, name string) *workload {
	t.Helper()
	if w, ok := seed1.Load(name); ok {
		return w.(*workload)
	}
	w, err := newWorkload(name, 1, testPool)
	if err != nil {
		t.Fatal(err)
	}
	seed1.Store(name, w)
	return w
}

func streamBytes(t *testing.T, w *workload, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range w.warm {
		b.Write(r.body)
	}
	for i := 0; i < n; i++ {
		r := w.next(i)
		b.WriteString(r.path)
		b.Write(r.body)
	}
	return b.Bytes()
}

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	t.Parallel()
	for _, name := range workloadNames {
		fresh := func(seed int64) *workload {
			w, err := newWorkload(name, seed, testPool)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		a := streamBytes(t, workloadSeed1(t, name), 100)
		if !bytes.Equal(a, streamBytes(t, fresh(1), 100)) {
			t.Errorf("%s: seed 1 rendered two different streams", name)
		}
		if bytes.Equal(a, streamBytes(t, fresh(2), 100)) {
			t.Errorf("%s: seeds 1 and 2 rendered the same stream", name)
		}
	}
}

func TestHotSetHas48Classes(t *testing.T) {
	hot := hotVariantsOf(1)
	if len(hot) != hotClasses*hotVariants {
		t.Fatalf("%d hot variants, want %d", len(hot), hotClasses*hotVariants)
	}
	perClass := map[[2]hypergraph.Fingerprint]int{}
	for _, q := range hot {
		k, err := classKey(q.body)
		if err != nil {
			t.Fatal(err)
		}
		perClass[k]++
	}
	if len(perClass) != hotClasses {
		t.Fatalf("%d fingerprint classes, want %d", len(perClass), hotClasses)
	}
	for _, n := range perClass {
		if n != hotVariants {
			t.Fatalf("a class has %d variants, want %d", n, hotVariants)
		}
	}
}

// TestColdPoolIsMostlyDistinct checks the first quarter of the pool (four
// generation chunks); the whole pool measured 97.3% distinct (README.md).
func TestColdPoolIsMostlyDistinct(t *testing.T) {
	t.Parallel()
	pool := coldPoolOf(1, streamCold, coldPoolSize/4)
	keys := make([][2]hypergraph.Fingerprint, len(pool))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(pool) && errs[w] == nil; i += len(errs) {
				keys[i], errs[w] = classKey(pool[i].body)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	seen := map[[2]hypergraph.Fingerprint]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if share := float64(len(seen)) / float64(len(pool)); share < 0.95 {
		t.Fatalf("only %.3f of the cold pool are distinct fingerprint pairs", share)
	}
}

func TestWitnessChecker(t *testing.T) {
	// The 2-matching {v0 v1, v2 v3} against its dual without {v1 v3}: the
	// one new transversal is {v1, v3}.
	q := query{prefix: "p_", inst: &instance{
		g:    []uint64{0b0011, 0b1100},
		h:    []uint64{0b0101, 0b1001, 0b0110},
		dual: false,
	}}
	if err := checkWitness(q, []string{"p_v3", "p_v1"}); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
	for _, bad := range [][]string{
		{"p_v0", "p_v2"}, // contains the h-edge {v0, v2}
		{"p_v1"},         // misses the g-edge {v2, v3}
		{"p_v1", "q_v3"}, // a name outside the request's prefix
	} {
		if checkWitness(q, bad) == nil {
			t.Errorf("bad witness %v accepted", bad)
		}
	}
	body, _ := json.Marshal(map[string]any{"dual": false, "reason": reasonNewTransversal, "witness": []string{"p_v0", "p_v2"}})
	if o := checkDecide(q, body); o.wrong != 1 {
		t.Errorf("planted bad witness in a response: outcome %+v, want one wrong answer", o)
	}
	body, _ = json.Marshal(map[string]any{"dual": true, "reason": "dual"})
	if o := checkDecide(q, body); o.wrong != 1 {
		t.Errorf("wrong verdict: outcome %+v, want one wrong answer", o)
	}
}

func TestStatsHelpers(t *testing.T) {
	one2ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q, want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := percentile(one2ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Expected values from Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
		}
	}
	if got := relIQR(one2ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("relIQR(1..10) = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	throughput := judged{higher: true, bound: 0.10}
	for _, c := range []struct {
		name       string
		j          judged
		head       []float64
		want       string
		wins, runs int
	}{
		{"clear gain", throughput, shift(5), "win", 10, 10},
		{"gain inside the base spread", throughput, shift(1), "no change", 10, 10},
		{"loss beyond the bound", throughput, shift(-15), "REGRESSION", 0, 10},
		{"loss inside the bound", throughput, shift(-5), "no change", 0, 10},
		{"spread wider than the bound", throughput, []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}, "unresolved", 4, 10},
		{"per-layer gain", judged{higher: false}, shift(-5), "win", 10, 10},
		{"per-layer loss", judged{higher: false}, shift(5), "-", 0, 10},
	} {
		got, wins, runs := judge(c.j, base, c.head)
		if got != c.want || wins != c.wins || runs != c.runs {
			t.Errorf("%s: judge = %s %d/%d, want %s %d/%d", c.name, got, wins, runs, c.want, c.wins, c.runs)
		}
	}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		listed[m.Name] = m.Unit
	}
	if len(listed) != len(units) {
		t.Errorf("BENCHMARK.json lists %d metrics, the harness reports %d", len(listed), len(units))
	}
	for name, unit := range units {
		if listed[name] != unit {
			t.Errorf("metric %s: BENCHMARK.json unit %q, harness unit %q", name, listed[name], unit)
		}
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestSmoke drives every workload briefly against an in-process server and
// requires correct answers and passed validity gates.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	refSrv := httptest.NewServer(referenceHandler())
	defer refSrv.Close()
	for _, name := range workloadNames {
		w := workloadSeed1(t, name)
		srv := httptest.NewServer(service.New(service.Config{}))
		c, ref := newClient(srv.URL), newClient(refSrv.URL)
		if _, err := warmUp(ctx, c, w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The generator-lateness gate is left out: here the server shares
		// the test's process, and a 100 ms open loop has too few sends.
		var next, refNext atomic.Int64
		before, err := scrape(ctx, c, w.endpoint)
		if err != nil {
			t.Fatal(err)
		}
		m, err := measureNormalized(ctx, c, ref, nil, w, &next, &refNext, 400*time.Millisecond, true)
		if err != nil {
			t.Fatal(err)
		}
		after, err := scrape(ctx, c, w.endpoint)
		if err != nil {
			t.Fatal(err)
		}
		c.close()
		ref.close()
		srv.Close()
		if err := validate(w, &m.measured, after.minus(before)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := summarize(m.open, m.closed)
		if res.Attempted == 0 || res.Failed != 0 || !res.Correct || !(m.speed() > 0) {
			t.Fatalf("%s: %+v, machine speed %v", name, res, m.speed())
		}
	}
}
