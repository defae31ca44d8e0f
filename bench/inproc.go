package main

// The in-process pass of a traced run: the workload's own inputs go through
// each layer's public functions directly, one layer at a time, so a layer's
// cost is measured without HTTP, other layers or other goroutines (the
// scheduler pass, which runs two drain workers like the server, excepted).
// Work counts from this pass (nodes, depth, duality checks) repeat exactly
// for a seed.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
	"time"

	"dualspace/internal/batch"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
	"dualspace/internal/obs"
	"dualspace/internal/service"
)

const (
	// inprocCold bounds the cold-pool prefix the pass uses, keeping it
	// within a few seconds.
	inprocCold = 2048
	// inprocBatches is how many batch bodies the batch-mixed pass replays.
	inprocBatches = 8
	// inprocDatasets is how many datasets the mine-borders pass mines.
	inprocDatasets = 64
	// minPass is the least time a stateless micro-pass repeats for.
	minPass = 100 * time.Millisecond
)

// pair is one instance as parsed (raw) and canonicalized, with its cache
// key.
type pair struct {
	rawG, rawH, g, h *hypergraph.Hypergraph
	key              batch.Key
}

func newPair(rawG, rawH *hypergraph.Hypergraph) pair {
	g, h := rawG.Canonical(), rawH.Canonical()
	return pair{rawG: rawG, rawH: rawH, g: g, h: h,
		key: batch.NewKey(engine.Default().Name(), g.Fingerprint(), h.Fingerprint())}
}

// timed repeats pass over its n items until minPass has elapsed and returns
// the mean nanoseconds per item.
func timed(n int, pass func()) float64 {
	if n == 0 {
		return 0
	}
	reps := 0
	t0 := time.Now()
	for reps == 0 || time.Since(t0) < minPass {
		pass()
		reps++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*n)
}

// streams returns the workload's decide inputs in request order, grouped
// into the streams a scheduler would drain: one stream for the decide
// workloads, one per batch body for batch-mixed.
func (w *workload) streams() [][]query {
	switch w.name {
	case "decide-hot":
		return [][]query{w.hot}
	case "decide-cold":
		return [][]query{w.cold[:min(inprocCold, len(w.cold))]}
	case "batch-mixed":
		out := make([][]query, inprocBatches)
		for b := range out {
			out[b] = append(append([]query(nil), w.hot...), w.cold[b*batchColdRows:(b+1)*batchColdRows]...)
		}
		return out
	}
	return nil
}

// inproc measures every in-process per-layer metric on w's inputs.
func inproc(ctx context.Context, w *workload) (map[string]float64, error) {
	m := map[string]float64{}
	var streams [][]pair
	if w.name == "mine-borders" {
		pairs, err := inprocMine(ctx, w, m)
		if err != nil {
			return nil, err
		}
		streams = [][]pair{pairs}
	} else {
		var err error
		if streams, err = inprocParse(w, m); err != nil {
			return nil, err
		}
		m["itemsets.duality_checks_per_mine"] = 0
		m["itemsets.self_share"] = 0
	}
	var all []pair
	for _, s := range streams {
		all = append(all, s...)
	}

	m["hypergraph.canon_fp_ns_op"] = timed(len(all), func() {
		for _, p := range all {
			_ = p.rawG.Canonical().Fingerprint()
			_ = p.rawH.Canonical().Fingerprint()
		}
	})
	placeholder := &core.Result{}
	m["batch.cache.get_ns_op"] = timed(len(all), func() {
		c := batch.NewCache(1024, 0)
		for _, p := range all {
			if _, ok := c.Get(p.key); !ok {
				c.Add(p.key, placeholder)
			}
		}
	})

	// The scheduler drains each stream like one /v1/batch body, over a
	// 2-session pool and a shared cache, exactly as the server wires it.
	sched := batch.NewScheduler(batch.Config{
		Pool: engine.NewSessionPool(nil, 2, 0), Cache: batch.NewCache(1024, 0)})
	dflt := engine.Default()
	t0 := time.Now()
	for _, s := range streams {
		reqs := make(chan batch.Request)
		go func() {
			defer close(reqs)
			for i := range s {
				reqs <- batch.Request{Index: i, EngineName: dflt.Name(), Engine: dflt,
					G: s[i].g, H: s[i].h, Key: &s[i].key}
			}
		}()
		st := sched.Run(ctx, reqs, func(batch.Response) {})
		if st.Errors > 0 {
			return nil, fmt.Errorf("scheduler pass: %d errors", st.Errors)
		}
	}
	m["batch.scheduler.run_ns_per_row"] = float64(time.Since(t0).Nanoseconds()) / float64(len(all))

	distinct := distinctPairs(all)
	if err := inprocEngine(ctx, distinct, m); err != nil {
		return nil, err
	}
	return m, inprocCore(ctx, distinct, m)
}

// inprocParse times hgio on the workload's request texts and returns the
// parsed instances, grouped into streams.
func inprocParse(w *workload, m map[string]float64) ([][]pair, error) {
	type texts struct{ g, h string }
	var out [][]pair
	var all []texts
	for _, s := range w.streams() {
		ps := make([]pair, len(s))
		for i, q := range s {
			var d decideBody
			if err := json.Unmarshal(q.body, &d); err != nil {
				return nil, err
			}
			all = append(all, texts{d.G, d.H})
			hs, _, err := hgio.ReadHypergraphsLimited(service.DefaultLimits,
				strings.NewReader(d.G), strings.NewReader(d.H))
			if err != nil {
				return nil, err
			}
			ps[i] = newPair(hs[0], hs[1])
		}
		out = append(out, ps)
	}
	m["hgio.parse_ns_op"] = timed(len(all), func() {
		for _, t := range all {
			_, _, _ = hgio.ReadHypergraphsLimited(service.DefaultLimits,
				strings.NewReader(t.g), strings.NewReader(t.h))
		}
	})
	return out, nil
}

// checkRecorder wraps the miner's duality engine to time each decision and
// keep the instances it was asked, which are the mining workload's inputs
// to the lower layers.
type checkRecorder struct {
	engine.Engine
	decide, own time.Duration // time in decisions; time keeping instances
	checks      int
	pairs       []pair
}

func (e *checkRecorder) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	t0 := time.Now()
	res, err := e.Engine.Decide(ctx, g, h)
	t1 := time.Now()
	e.decide += t1.Sub(t0)
	e.checks++
	e.pairs = append(e.pairs, newPair(g.Clone(), h.Clone()))
	e.own += time.Since(t1)
	return res, err
}

// inprocMine times hgio's dataset reader and the itemsets layer, mining
// the first inprocDatasets datasets once each on one default-portfolio
// session.
func inprocMine(ctx context.Context, w *workload, m map[string]float64) ([]pair, error) {
	sets := w.sets[:min(inprocDatasets, len(w.sets))]
	m["hgio.parse_ns_op"] = timed(len(sets), func() {
		for i := range sets {
			_, _, _ = hgio.ReadDatasetLimited(strings.NewReader(sets[i].text), service.DefaultLimits)
		}
	})
	rec := &checkRecorder{Engine: engine.NewSession(nil)}
	var mine time.Duration
	for i := range sets {
		ds, _, err := hgio.ReadDatasetLimited(strings.NewReader(sets[i].text), service.DefaultLimits)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := itemsets.ComputeBordersStreamWith(ctx, ds, mineZ, rec, nil); err != nil {
			return nil, fmt.Errorf("mining: %w", err)
		}
		mine += time.Since(t0)
	}
	mine -= rec.own
	m["itemsets.duality_checks_per_mine"] = float64(rec.checks) / float64(len(sets))
	m["itemsets.self_share"] = float64(mine-rec.decide) / float64(mine)
	return rec.pairs, nil
}

func distinctPairs(all []pair) []pair {
	seen := map[batch.Key]bool{}
	var out []pair
	for _, p := range all {
		if !seen[p.key] {
			seen[p.key] = true
			out = append(out, p)
		}
	}
	return out
}

// inprocEngine times a default-portfolio session over the distinct
// instances, the way a server worker decides them.
func inprocEngine(ctx context.Context, ps []pair, m map[string]float64) error {
	s := engine.NewSession(nil)
	t0 := time.Now()
	for _, p := range ps {
		if _, err := s.Decide(ctx, p.g, p.h); err != nil {
			return err
		}
	}
	m["engine.session_decide_ns_op"] = float64(time.Since(t0).Nanoseconds()) / float64(len(ps))
	return nil
}

// inprocCore runs the distinct instances on a core session with its stage
// recorder attached, and checks the decomposition depth bound of Prop
// 2.1(2): depth ≤ ⌊log₂ min(|G|,|H|)⌋.
func inprocCore(ctx context.Context, ps []pair, m map[string]float64) error {
	eng, err := engine.ByName("core")
	if err != nil {
		return err
	}
	s := engine.NewSession(eng)
	rec := s.Recorder()
	var stages obs.StageTimings
	nodes, maxDepth, violations := 0, 0, 0
	for _, p := range ps {
		rec.Reset()
		res, err := s.Decide(ctx, p.g, p.h)
		if err != nil {
			return err
		}
		t := rec.Timings()
		for i := range stages {
			stages[i] += t[i]
		}
		nodes += res.Stats.Nodes
		maxDepth = max(maxDepth, res.Stats.MaxDepth)
		if side := min(p.g.M(), p.h.M()); side > 0 && res.Stats.MaxDepth > bits.Len(uint(side))-1 {
			violations++
		}
	}
	n := float64(len(ps))
	for _, st := range []obs.Stage{obs.StagePrecheck, obs.StageIndexSync, obs.StageWalk, obs.StageMemo} {
		m["core."+st.String()+"_us_per_decision"] = float64(stages[st]) / 1e3 / n
	}
	m["core.nodes_per_decision"] = float64(nodes) / n
	m["core.max_depth"] = float64(maxDepth)
	m["core.depth_bound_violations"] = float64(violations)
	return nil
}
