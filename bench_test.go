package dualspace

// bench_test.go exposes one testing.B benchmark per reproduction
// experiment (E1–E16, see DESIGN.md §3 and EXPERIMENTS.md) plus
// micro-benchmarks of the individual engines. The experiment benchmarks
// execute the full table-generating workload per iteration, so `go test
// -bench=.` regenerates every experiment's work; `cmd/dualbench` prints
// the tables themselves.

import (
	"context"
	"math/rand"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/experiments"
	"dualspace/internal/fkdual"
	"dualspace/internal/gen"
	"dualspace/internal/itemsets"
	"dualspace/internal/logspace"
	"dualspace/internal/transversal"
)

func benchmarkExperiment(b *testing.B, id string) {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tbl := e.Run(); !tbl.Pass {
			b.Fatalf("%s failed:\n%s", id, tbl.String())
		}
	}
}

func BenchmarkE1Correctness(b *testing.B)  { benchmarkExperiment(b, "E1") }
func BenchmarkE2Depth(b *testing.B)        { benchmarkExperiment(b, "E2") }
func BenchmarkE3Branching(b *testing.B)    { benchmarkExperiment(b, "E3") }
func BenchmarkE4Witness(b *testing.B)      { benchmarkExperiment(b, "E4") }
func BenchmarkE5StrictSpace(b *testing.B)  { benchmarkExperiment(b, "E5") }
func BenchmarkE6Decompose(b *testing.B)    { benchmarkExperiment(b, "E6") }
func BenchmarkE7Certificate(b *testing.B)  { benchmarkExperiment(b, "E7") }
func BenchmarkE8TradeOff(b *testing.B)     { benchmarkExperiment(b, "E8") }
func BenchmarkE9Baselines(b *testing.B)    { benchmarkExperiment(b, "E9") }
func BenchmarkE10Mining(b *testing.B)      { benchmarkExperiment(b, "E10") }
func BenchmarkE11Keys(b *testing.B)        { benchmarkExperiment(b, "E11") }
func BenchmarkE12Coteries(b *testing.B)    { benchmarkExperiment(b, "E12") }
func BenchmarkE13Inclusion(b *testing.B)   { benchmarkExperiment(b, "E13") }
func BenchmarkE14Minimalize(b *testing.B)  { benchmarkExperiment(b, "E14") }
func BenchmarkE15Orientation(b *testing.B) { benchmarkExperiment(b, "E15") }
func BenchmarkE16Structure(b *testing.B)   { benchmarkExperiment(b, "E16") }
func BenchmarkE17Delay(b *testing.B)       { benchmarkExperiment(b, "E17") }
func BenchmarkE18Armstrong(b *testing.B)   { benchmarkExperiment(b, "E18") }

// Orientation ablation micro-benchmarks: the same non-trivial instance
// decomposed with the paper's |H| ≤ |G| convention and against it.
func BenchmarkAblationOrientPaper(b *testing.B) {
	g, h := gen.Threshold(7, 3), gen.ThresholdDual(7, 3) // |G|=35, |H|=21
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.TrSubset(g, h)
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkAblationOrientReversed(b *testing.B) {
	g, h := gen.Threshold(7, 3), gen.ThresholdDual(7, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.TrSubset(h, g)
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

// --- engine micro-benchmarks -------------------------------------------

func benchPair(k int) (g, h *Hypergraph) {
	return gen.Matching(k), gen.MatchingDual(k)
}

func BenchmarkDecideBMDualMatching5(b *testing.B) {
	g, h := benchPair(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Decide(g, h)
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkDecideBMNonDualMatching5(b *testing.B) {
	g, h := benchPair(5)
	h = gen.DropEdge(h, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Decide(g, h)
		if err != nil || res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkDecideBMParallelMatching5(b *testing.B) {
	g, h := benchPair(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ExplainWith(context.Background(), g, h, Options{Engine: NewParallelEngine(0)})
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkDecideFKAMatching5(b *testing.B) {
	g, h := benchPair(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fkdual.DecideA(g, h)
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkDecideFKBMatching5(b *testing.B) {
	g, h := benchPair(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fkdual.DecideB(g, h)
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkDecideSelfDualMajority7(b *testing.B) {
	m := gen.Majority(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Decide(m, m)
		if err != nil || !res.Dual {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkTransversalDFSThreshold12_3(b *testing.B) {
	h := gen.Threshold(12, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c, _ := transversal.CountContext(context.Background(), h); c == 0 {
			b.Fatal("no transversals")
		}
	}
}

func BenchmarkTransversalBergeThreshold12_3(b *testing.B) {
	h := gen.Threshold(12, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if transversal.Berge(h).M() == 0 {
			b.Fatal("no transversals")
		}
	}
}

func BenchmarkPathNodeReplayMatching4(b *testing.B)    { benchmarkPathNode(b, logspace.ModeReplay) }
func BenchmarkPathNodeStrictMatching4(b *testing.B)    { benchmarkPathNode(b, logspace.ModeStrict) }
func BenchmarkPathNodePipelinedMatching2(b *testing.B) { benchmarkPathNodeTiny(b) }

func benchmarkPathNode(b *testing.B, mode logspace.Mode) {
	g := gen.Matching(4)
	h := gen.DropEdge(gen.MatchingDual(4), 3)
	pi, _, found, err := logspace.FindFailPath(g, h, logspace.Options{})
	if err != nil || !found {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := logspace.PathNode(g, h, pi, logspace.Options{Mode: mode}); err != nil || !ok {
			b.Fatal("pathnode failed")
		}
	}
}

func benchmarkPathNodeTiny(b *testing.B) {
	g := gen.Matching(2)
	h := gen.DropEdge(gen.MatchingDual(2), 1)
	pi, _, found, err := logspace.FindFailPath(g, h, logspace.Options{})
	if err != nil || !found {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := logspace.PathNode(g, h, pi, logspace.Options{Mode: logspace.ModePipelined}); err != nil || !ok {
			b.Fatal("pathnode failed")
		}
	}
}

// bordersDatasets are the mining benchmarks' inputs: a small 80-row case,
// and a case shaped like one mine of the serving benchmark's mine-borders
// workload (1,000 rows, 22 items, 6 planted patterns of 2–5 items, dropout
// 0.1, noise 0.05, z = 50).
func bordersDatasets() []struct {
	name string
	d    *itemsets.Dataset
	z    int
} {
	r := rand.New(rand.NewSource(99))
	small := itemsets.GeneratePlanted(r, 9, 80, [][]int{{0, 1, 2}, {4, 5}, {6, 7, 8}}, 0.1, 0.05)
	r = rand.New(rand.NewSource(7))
	pats := make([][]int, 6)
	for p := range pats {
		pats[p] = r.Perm(22)[:2+r.Intn(4)]
	}
	serving := itemsets.GeneratePlanted(r, 22, 1000, pats, 0.1, 0.05)
	return []struct {
		name string
		d    *itemsets.Dataset
		z    int
	}{{"rows=80", small, 8}, {"rows=1000", serving, 50}}
}

func BenchmarkBordersDualize(b *testing.B) {
	for _, c := range bordersDatasets() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeBorders(c.d, c.z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBordersApriori(b *testing.B) {
	for _, c := range bordersDatasets() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := itemsets.BordersApriori(c.d, c.z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
