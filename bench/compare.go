package main

// compare judges a head commit's runs against a base commit's. Per
// (workload, metric) it gives each side's median and quartiles; a win only
// when the head wins at least 9 of 10 run pairs (ties count for neither)
// and the medians differ by more than the base's interquartile range; a
// regression when the head's median is worse than the base's by more than
// the metric's bound; unresolved when a side's spread exceeds the bound,
// unless every head run beats every base run.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type judged struct {
	higher bool
	bound  float64 // 0: no bound (per-layer)
}

func readSpec(path string) (map[string]judged, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]judged{}
	for _, m := range s.EndToEnd {
		out[m.Name] = judged{higher: m.Better == "higher", bound: m.Bound}
	}
	for _, m := range s.PerLayer {
		out[m.Name] = judged{higher: m.Better == "higher"}
	}
	return out, nil
}

// readRuns groups an -out file's values by workload and metric, in file
// order.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// judge applies the rule to one (workload, metric) and returns the verdict
// with the head's pair wins.
func judge(j judged, base, head []float64) (string, int, int) {
	better := func(h, b float64) bool {
		if j.higher {
			return h > b
		}
		return h < b
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	win := pairs > 0 && wins*10 >= 9*pairs && math.Abs(hmed-bmed) > bq3-bq1 && better(hmed, bmed)
	switch {
	case j.bound == 0 && win:
		return "win", wins, pairs
	case j.bound == 0:
		return "-", wins, pairs
	case better(bmed, hmed) && math.Abs(hmed-bmed) > j.bound*math.Abs(bmed):
		return "REGRESSION", wins, pairs
	case (relIQR(base) > j.bound || relIQR(head) > j.bound) && !allBetter:
		return "unresolved", wins, pairs
	case win:
		return "win", wins, pairs
	}
	return "no change", wins, pairs
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with directions and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-benchmark BENCHMARK.json] base.jsonl head.jsonl")
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	head, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	var wls []string
	for wl := range base {
		if head[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	regressions := 0
	for _, wl := range wls {
		var names []string
		for name := range base[wl] {
			if _, ok := head[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			j, ok := spec[name]
			if !ok {
				continue
			}
			b, h := base[wl][name], head[wl][name]
			v, wins, pairs := judge(j, b, h)
			if v == "REGRESSION" {
				regressions++
			}
			bq1, bmed, bq3 := quartiles(b)
			hq1, hmed, hq3 := quartiles(h)
			fmt.Printf("%-12s %-34s base %.6g [%.6g, %.6g] n=%d  head %.6g [%.6g, %.6g] n=%d  head/base %.4f× of %.6g  wins %d/%d  %s\n",
				wl, name, bmed, bq1, bq3, len(b), hmed, hq1, hq3, len(h), ratio(hmed, bmed), bmed, wins, pairs, v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}
