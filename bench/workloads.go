package main

import (
	"bytes"
	"fmt"
)

// The four workloads. Why each exists is in README.md; in short:
//
//   - decide-hot: every answer is a cache hit, isolating the per-request
//     path (decode, parse, canonicalize, cache lookup, render, net/http).
//   - decide-cold: nearly every request misses the cache and runs a full
//     decomposition, so core and engine dominate.
//   - batch-mixed: the only workload that runs batch.Scheduler's dedup and
//     fan-out.
//   - mine-borders: the paper's application, ~150 related duality checks
//     per request behind one parse and no verdict cache.
var workloadNames = []string{"decide-hot", "decide-cold", "batch-mixed", "mine-borders"}

// decideHotRate is decide-hot's open-loop arrival rate (req/s), below the
// knee of a 2-core machine, where latency still measures service rather
// than queueing.
const decideHotRate = 2000

// openShare is the share of a decide-hot phase spent in the open loop; the
// rest is a closed loop that measures capacity.
const openShare = 0.6

// request is one HTTP call of a workload and how to check its answer.
type request struct {
	path  string
	body  []byte
	units int // operations the call carries: decisions, rows or mines
	check func(body []byte) outcome
}

// workload is a generated input set plus the request stream over it.
type workload struct {
	name     string
	endpoint string // the /metricsz endpoint label its requests land on
	openRate float64
	warm     []request
	next     func(i int) request // the i-th timed request

	hot, cold []query   // decide inputs (cold: the pool the stream walks)
	sets      []dataset // mine-borders inputs
}

func decideRequest(q query) request {
	return request{path: "/v1/decide", body: q.body, units: 1,
		check: func(b []byte) outcome { return checkDecide(q, b) }}
}

func mineRequest(d *dataset) request {
	return request{path: "/v1/mine", body: d.body, units: 1,
		check: func(b []byte) outcome { return checkMine(d, b) }}
}

// batchRequest renders batch b: the 192 decide-hot variants and 64 fresh
// cold rows in a seeded order fixed per batch.
func batchRequest(hot, cold []query, perm []int, b int) request {
	rows := make([]query, 0, batchRows)
	rows = append(rows, hot...)
	for j := 0; j < batchColdRows; j++ {
		rows = append(rows, cold[(b*batchColdRows+j)%len(cold)])
	}
	ordered := make([]query, len(rows))
	var body bytes.Buffer
	for i, p := range perm {
		ordered[i] = rows[p]
		body.Write(rows[p].body)
		body.WriteByte('\n')
	}
	return request{path: "/v1/batch", body: body.Bytes(), units: len(rows),
		check: func(resp []byte) outcome { return checkBatch(ordered, resp) }}
}

// newWorkload generates the inputs of workload name for seed, with cold
// pools of pool queries (coldPoolSize in a run).
func newWorkload(name string, seed int64, pool int) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "decide-hot":
		w.endpoint, w.openRate = "decide", decideHotRate
		w.hot = hotVariantsOf(seed)
		for _, q := range w.hot {
			w.warm = append(w.warm, decideRequest(q))
		}
		order := rng(seed, streamOrder, 0).Perm(len(w.hot))
		w.next = func(i int) request { return decideRequest(w.hot[order[i%len(order)]]) }
	case "decide-cold":
		w.endpoint = "decide"
		w.cold = coldPoolOf(seed, streamCold, pool)
		for _, q := range coldPoolOf(seed, streamWarm, warmPoolSize) {
			w.warm = append(w.warm, decideRequest(q))
		}
		w.next = func(i int) request { return decideRequest(w.cold[i%len(w.cold)]) }
	case "batch-mixed":
		w.endpoint = "batch"
		w.hot = hotVariantsOf(seed)
		w.cold = coldPoolOf(seed, streamBatchCold, pool)
		r := rng(seed, streamOrder, 1)
		perms := make([][]int, 64)
		for i := range perms {
			perms[i] = r.Perm(batchRows)
		}
		w.warm = []request{batchRequest(w.hot, coldPoolOf(seed, streamWarm, batchColdRows), perms[0], 0)}
		w.next = func(i int) request { return batchRequest(w.hot, w.cold, perms[i%len(perms)], i) }
	case "mine-borders":
		w.endpoint = "mine"
		sets := datasetsOf(seed)
		w.sets = sets
		for i := range sets[:mineWarm] {
			w.warm = append(w.warm, mineRequest(&sets[i]))
		}
		w.next = func(i int) request { return mineRequest(&sets[i%len(sets)]) }
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}
