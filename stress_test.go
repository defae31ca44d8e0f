package dualspace

// Scale tests: moderately large instances exercising the engines at
// laptop scale. Skipped under -short.

import (
	"context"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/gen"
	"dualspace/internal/itemsets"
	"dualspace/internal/logspace"
	"dualspace/internal/transversal"

	"math/rand"
)

func TestStressMatching8(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// |H| = 256 minimal transversals over 16 vertices.
	g, h := gen.Matching(8), gen.MatchingDual(8)
	res, err := core.Decide(g, h)
	if err != nil || !res.Dual {
		t.Fatalf("matching-8: %v %v", res, err)
	}
	// Perturbed: must find a witness quickly despite 255 remaining edges.
	bad := gen.DropEdge(h, 137)
	res, err = core.Decide(g, bad)
	if err != nil || res.Dual {
		t.Fatalf("matching-8 dropped: %v %v", res, err)
	}
	if res.Reason == core.ReasonNewTransversal && !g.IsNewTransversal(res.Witness, bad) {
		t.Fatal("invalid witness at scale")
	}
}

func TestStressThreshold10(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// |G| = C(10,4) = 210, |H| = C(10,7) = 120.
	g, h := gen.Threshold(10, 4), gen.ThresholdDual(10, 4)
	res, err := core.Decide(g, h)
	if err != nil || !res.Dual {
		t.Fatalf("threshold-10-4: %v %v", res, err)
	}
	par, err := ExplainWith(context.Background(), g, h, Options{Engine: NewParallelEngine(0)})
	if err != nil || !par.Dual {
		t.Fatalf("parallel threshold-10-4: %v %v", par, err)
	}
	if par.Stats.Nodes != res.Stats.Nodes {
		t.Errorf("parallel visited %d nodes, serial %d", par.Stats.Nodes, res.Stats.Nodes)
	}
}

func TestStressSelfDualMajority9(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	m := gen.Majority(9) // 126 edges of size 5 over 9 vertices, self-dual
	res, err := core.Decide(m, m)
	if err != nil || !res.Dual {
		t.Fatalf("majority-9: %v %v", res, err)
	}
}

func TestStressEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// tr of threshold(14, 3): C(14,12) = 91 transversals out of 364 edges.
	h := gen.Threshold(14, 3)
	got, err := transversal.CountContext(context.Background(), h)
	if want := binom(14, 12); err != nil || got != want {
		t.Fatalf("count = %d, %v; want %d", got, err, want)
	}
}

func binom(n, k int) int {
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestStressMiningWide(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := rand.New(rand.NewSource(2013))
	d := itemsets.GeneratePlanted(r, 14, 300,
		[][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8}, {9, 10, 11, 12, 13}}, 0.1, 0.03)
	b, err := ComputeBorders(d, 30)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := itemsets.BordersApriori(d, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !b.MaxFrequent.EqualAsFamily(ap.MaxFrequent) || !b.MinInfrequent.EqualAsFamily(ap.MinInfrequent) {
		t.Fatal("dualize-and-advance disagrees with apriori at scale")
	}
	okID, err := itemsets.VerifyBorderIdentity(b)
	if err != nil || !okID {
		t.Fatalf("border identity at scale: %v %v", okID, err)
	}
}

func TestStressCertificateMatching7(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := gen.Matching(7)
	h := gen.DropEdge(gen.MatchingDual(7), 100)
	pi, w, found, err := logspace.FindFailPath(g, h, logspace.Options{Mode: logspace.ModeReplay})
	if err != nil || !found {
		t.Fatalf("no certificate: %v", err)
	}
	if !g.IsNewTransversal(w, h) {
		t.Fatal("invalid witness")
	}
	spec := logspace.Certificate(g, h)
	if int64(len(pi))*spec.EntryBits > spec.TotalBits {
		t.Fatalf("certificate exceeds bound: %v", pi)
	}
	ok, _, err := logspace.VerifyFailPath(g, h, pi, logspace.Options{Mode: logspace.ModeStrict})
	if err != nil || !ok {
		t.Fatalf("strict verification failed: %v", err)
	}
}
