package itemsets

import (
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
)

// TestPropertyBorderCoverage checks the defining property of the borders:
// an itemset is frequent iff it is contained in some maximal frequent set,
// and infrequent iff it contains some minimal infrequent set — for every
// itemset of the lattice.
func TestPropertyBorderCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(4)
		rows := 3 + r.Intn(8)
		d := GenerateRandom(r, n, rows, 0.3+r.Float64()*0.3)
		z := 1 + r.Intn(rows)
		b, err := computeBorders(d, z)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<uint(n); mask++ {
			u := bitset.New(n)
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					u.Add(i)
				}
			}
			frequent := d.IsFrequent(u, z)
			coveredAbove := false
			for _, h := range b.MaxFrequent.Edges() {
				if u.SubsetOf(h) {
					coveredAbove = true
					break
				}
			}
			coveredBelow := b.MinInfrequent.ContainsEdgeSubsetOf(u)
			if frequent != coveredAbove {
				t.Fatalf("trial %d: %v frequent=%v but coveredAbove=%v", trial, u, frequent, coveredAbove)
			}
			if frequent == coveredBelow {
				t.Fatalf("trial %d: %v frequent=%v but coveredBelow=%v", trial, u, frequent, coveredBelow)
			}
		}
	}
}

// TestPropertyBordersAreAntichains: IS+ and IS− are always simple
// hypergraphs (antichains), and every member verifies its membership
// predicate.
func TestPropertyBordersAreAntichains(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(5)
		rows := 3 + r.Intn(10)
		d := GenerateRandom(r, n, rows, 0.4)
		z := 1 + r.Intn(rows)
		b, err := computeBorders(d, z)
		if err != nil {
			t.Fatal(err)
		}
		if !b.MaxFrequent.IsSimple() || !b.MinInfrequent.IsSimple() {
			t.Fatalf("trial %d: borders not antichains", trial)
		}
		for _, h := range b.MaxFrequent.Edges() {
			if !d.IsMaximalFrequent(h, z) {
				t.Fatalf("trial %d: %v not maximal frequent", trial, h)
			}
		}
		for _, g := range b.MinInfrequent.Edges() {
			if !d.IsMinimalInfrequent(g, z) {
				t.Fatalf("trial %d: %v not minimal infrequent", trial, g)
			}
		}
	}
}

// TestPropertyFrequencyAntimonotone: frequency is antimonotone under
// inclusion — the lattice property all border reasoning rests on.
func TestPropertyFrequencyAntimonotone(t *testing.T) {
	r := rand.New(rand.NewSource(139))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(8)
		d := GenerateRandom(r, n, 2+r.Intn(12), 0.5)
		u := bitset.New(n)
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				u.Add(v)
			}
		}
		w := u.Clone()
		for v := 0; v < n; v++ {
			if r.Intn(3) == 0 {
				w.Add(v)
			}
		}
		if d.Frequency(w) > d.Frequency(u) {
			t.Fatalf("antimonotonicity violated: f(%v)=%d > f(%v)=%d",
				w, d.Frequency(w), u, d.Frequency(u))
		}
	}
}
