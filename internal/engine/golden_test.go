package engine_test

// Conformance golden: a seeded corpus — dual pairs, one instance per
// non-dual Reason, and |H| > |G| pairs that force the tree stage onto the
// swapped orientation — decided by every registry engine three ways:
// stateless Engine.Decide, twice in a row on one memo-less Session, and
// core.Decide. The deterministic engines must reproduce every recorded
// field exactly; engines whose fail leaf depends on goroutine scheduling
// (core-parallel, and the portfolio whenever it may pick it) are checked
// for verdict, reason and witness validity only.
//
// Regenerate testdata/conformance.golden with
//
//	go test ./internal/engine -run TestConformanceGolden -update

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/gen"
	"dualspace/internal/hypergraph"
	"dualspace/internal/transversal"
)

var update = flag.Bool("update", false, "rewrite testdata/conformance.golden")

const goldenPath = "testdata/conformance.golden"

type goldenPair struct {
	name string
	g, h *hypergraph.Hypergraph
}

// goldenCorpus builds the corpus deterministically from fixed constructions
// and one seeded random stream.
func goldenCorpus() []goldenPair {
	var out []goldenPair
	for _, p := range gen.Families(23) {
		out = append(out, goldenPair{p.Name, p.G, p.H})
	}
	n := 4
	bottom, top := hypergraph.New(n), hypergraph.MustFromEdges(n, [][]int{{}})
	full := hypergraph.MustFromEdges(n, [][]int{{0, 1, 2, 3}})
	m3 := gen.Matching(3)
	out = append(out,
		goldenPair{"bottom-top", bottom, top},
		goldenPair{"top-bottom", top, bottom},
		goldenPair{"bottom-bottom", bottom, bottom},
		goldenPair{"top-top", top, top},
		goldenPair{"bottom-full", bottom, full},
		goldenPair{"not-cross-intersecting", gen.Matching(2), hypergraph.MustFromEdges(4, [][]int{{0, 1}})},
		goldenPair{"h-edge-not-minimal", gen.Matching(2), hypergraph.MustFromEdges(4, [][]int{{0, 2}, {0, 1, 3}})},
		goldenPair{"g-edge-not-minimal", hypergraph.MustFromEdges(3, [][]int{{0, 1, 2}}), hypergraph.MustFromEdges(3, [][]int{{0}, {1}})},
		goldenPair{"swap-dual", m3, gen.MatchingDual(3)},
		goldenPair{"swap-new-transversal", m3, gen.DropEdge(gen.MatchingDual(3), 5)},
		goldenPair{"noswap-new-transversal", gen.DropEdge(gen.MatchingDual(3), 2), m3},
	)
	r := rand.New(rand.NewSource(20261018))
	for i := 0; i < 12; i++ {
		g := gen.Random(r, 5+r.Intn(4), 3+r.Intn(4), 0.3+0.2*r.Float64())
		if g.M() == 0 || g.HasEmptyEdge() {
			continue
		}
		h := transversal.AsHypergraph(g)
		out = append(out, goldenPair{fmt.Sprintf("rand-%d", i), g, h})
		out = append(out, goldenPair{fmt.Sprintf("rand-%d-swapped", i), h, g})
		if h.M() >= 2 {
			d := gen.DropEdge(h, r.Intn(h.M()))
			out = append(out, goldenPair{fmt.Sprintf("rand-%d-dropped", i), g, d})
			out = append(out, goldenPair{fmt.Sprintf("rand-%d-dropped-swapped", i), d, g})
		}
	}
	return out
}

// render is the exact record of one verdict.
func render(res *core.Result) string {
	return fmt.Sprintf("dual=%v reason=%d gedge=%d hedge=%d rv=%d swapped=%v witness=%v failpath=%v nodes=%d maxdepth=%d",
		res.Dual, int(res.Reason), res.GEdge, res.HEdge, res.RedundantVertex, res.Swapped,
		res.Witness.Elems(), res.FailPath, res.Stats.Nodes, res.Stats.MaxDepth)
}

// loose renders the scheduling-independent part of a verdict.
func loose(res *core.Result) string {
	return fmt.Sprintf("dual=%v reason=%d", res.Dual, int(res.Reason))
}

// scheduled reports whether eng's fail leaf may depend on goroutine
// scheduling on (g, h): the parallel engine, or a portfolio that would pick
// it on some host (decided with a fixed 4-worker policy, so the
// classification does not depend on this machine's GOMAXPROCS).
func scheduled(eng engine.Engine, g, h *hypergraph.Hypergraph) bool {
	if eng.Name() == "portfolio" {
		sel, _ := engine.NewPortfolio(engine.PortfolioConfig{Workers: 4}).Select(g, h)
		eng = sel
	}
	return eng.Name() == "core-parallel"
}

func TestConformanceGolden(t *testing.T) {
	ctx := context.Background()
	var lines []string
	reasons := map[core.Reason]bool{}
	swaps := 0
	for _, p := range goldenCorpus() {
		ref, err := core.Decide(p.g, p.h)
		if err != nil {
			t.Fatalf("%s: core.Decide: %v", p.name, err)
		}
		reasons[ref.Reason] = true
		if ref.Swapped {
			swaps++
		}
		lines = append(lines, fmt.Sprintf("%s core.Decide %s", p.name, render(ref)))
		for _, name := range engine.Names() {
			eng := mustEngine(t, name)
			rec := render
			if scheduled(eng, p.g, p.h) {
				rec = loose
			}
			res, err := eng.Decide(ctx, p.g, p.h)
			if err != nil {
				t.Fatalf("%s/%s: Decide: %v", p.name, name, err)
			}
			checkWitness(t, p, name, res)
			checkVerdict(t, p, name, res)
			lines = append(lines, fmt.Sprintf("%s %s stateless %s", p.name, name, rec(res)))
			s := engine.NewSessionMemo(eng, -1)
			for i := 1; i <= 2; i++ {
				res, err := s.Decide(ctx, p.g, p.h)
				if err != nil {
					t.Fatalf("%s/%s: session call %d: %v", p.name, name, i, err)
				}
				checkWitness(t, p, name, res)
				checkVerdict(t, p, name, res)
				lines = append(lines, fmt.Sprintf("%s %s session%d %s", p.name, name, i, rec(res)))
			}
		}
	}
	for r := core.ReasonDual; r <= core.ReasonNewTransversal; r++ {
		if !reasons[r] {
			t.Errorf("corpus lacks an instance with reason %v", r)
		}
	}
	if swaps == 0 {
		t.Error("corpus lacks an instance decided on the swapped orientation")
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("record %d differs:\n got  %s\n want %s", i, lines[i], want[i])
		}
	}
}

// checkWitness asserts the paper's witness contract on a new-transversal
// verdict: a transversal of g containing no edge of h.
func checkWitness(t *testing.T, p goldenPair, name string, res *core.Result) {
	t.Helper()
	if res.Dual || res.Reason != core.ReasonNewTransversal {
		return
	}
	if !p.g.IsNewTransversal(res.Witness, p.h) {
		t.Errorf("%s/%s: witness %v is not a new transversal of g w.r.t. h", p.name, name, res.Witness)
	}
}

// checkVerdict asserts that the serving pipeline's check accepts the
// verdict, both as computed and after a flatten/decode round trip (the
// form it takes in the verdict log and on the peer wire).
func checkVerdict(t *testing.T, p goldenPair, name string, res *core.Result) {
	t.Helper()
	if err := core.CheckVerdict(p.g, p.h, res); err != nil {
		t.Errorf("%s/%s: CheckVerdict rejected a computed verdict: %v", p.name, name, err)
	}
	v := core.Flatten(res, p.g.N())
	back, err := v.Result()
	if err == nil {
		err = core.CheckVerdict(p.g, p.h, back)
	}
	if err != nil {
		t.Errorf("%s/%s: flattened verdict rejected: %v", p.name, name, err)
	}
}
