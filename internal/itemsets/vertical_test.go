package itemsets

import (
	"context"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/engine"
)

// rowScan is the loop's support computed by the paper's definition: every
// frequency test scans the rows (Dataset.IsFrequent), and the greedy walks
// add or remove one item and rescan. The vertical support must answer
// every question of the loop exactly as this does.
type rowScan struct {
	d *Dataset
	z int
}

func (s rowScan) frequent(u bitset.Set) bool { return s.d.IsFrequent(u, s.z) }

func (s rowScan) extendToMaximal(u bitset.Set) bitset.Set {
	r := u.Clone()
	for i := 0; i < s.d.NumItems(); i++ {
		if r.Contains(i) {
			continue
		}
		r.Add(i)
		if !s.frequent(r) {
			r.Remove(i)
		}
	}
	return r
}

func (s rowScan) shrinkToMinimalInfrequent(u bitset.Set) bitset.Set {
	r := u.Clone()
	u.ForEach(func(i int) bool {
		r.Remove(i)
		if s.frequent(r) {
			r.Add(i)
		}
		return true
	})
	return r
}

// randomItemset returns a subset of [0, n) whose density is itself random,
// so both near-empty and near-full itemsets occur.
func randomItemset(r *rand.Rand, n int) bitset.Set {
	u := bitset.New(n)
	p := r.Float64()
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			u.Add(i)
		}
	}
	return u
}

// TestVerticalFrequencyMatchesRowScan: the tid-set count equals Frequency
// on random datasets at and around the word boundaries of the row ids,
// with empty and full rows planted, for the empty itemset, every single
// item, the full itemset and random itemsets. (A mutation that drops the
// last row from the tid sets, or starts the count from rows−1, fails it.)
func TestVerticalFrequencyMatchesRowScan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, rows := range []int{0, 1, 63, 64, 65, 1000} {
		for _, n := range []int{0, 1, 7, 64, 70} {
			d := GenerateRandom(r, n, rows, 0.2+0.6*r.Float64())
			if rows > 2 {
				d.rows[r.Intn(rows)] = bitset.New(n)
				d.rows[r.Intn(rows)] = bitset.Full(n)
			}
			v := newVertical(d, 1)
			check := func(u bitset.Set) {
				if got, want := v.frequency(u), d.Frequency(u); got != want {
					t.Fatalf("rows=%d n=%d: vertical f(%v) = %d, row scan %d", rows, n, u, got, want)
				}
			}
			check(bitset.New(n))
			check(bitset.Full(n))
			for i := 0; i < n; i++ {
				check(bitset.FromSlice(n, []int{i}))
			}
			for k := 0; k < 50; k++ {
				check(randomItemset(r, n))
			}
		}
	}
}

// minedEvents runs the dualize-and-advance loop on sup with the serial
// engine (whose witnesses are deterministic) and records every event.
func minedEvents(t *testing.T, d *Dataset, sup support) ([]BorderEvent, int) {
	t.Helper()
	eng, err := engine.ByName("core")
	if err != nil {
		t.Fatal(err)
	}
	var evs []BorderEvent
	b, err := dualizeAndAdvance(context.Background(), d.NumItems(), sup, eng, func(ev BorderEvent) error {
		ev.Set = ev.Set.Clone()
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return evs, b.DualityChecks
}

// TestLoopMatchesRowScan is the differential test of the vertical support:
// on random and planted datasets the loop streams the same border elements
// in the same order, with the same check counts, as on the row-scan copy
// of the greedy walks; and from random seeds the walks themselves agree.
// (A mutation that tests f(r∖{e_j}) against suffix[j] instead of
// suffix[j+1], or that skips the swap in extendToMaximal, fails it.)
func TestLoopMatchesRowScan(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	type dataset struct {
		name string
		d    *Dataset
		z    int
	}
	var sets []dataset
	for i := 0; i < 12; i++ {
		n, rows := 3+r.Intn(8), 1+r.Intn(130)
		d := GenerateRandom(r, n, rows, 0.3+0.5*r.Float64())
		sets = append(sets, dataset{"random", d, 1 + r.Intn(rows)})
	}
	for i := 0; i < 6; i++ {
		n := 10 + r.Intn(8)
		pats := make([][]int, 2+r.Intn(4))
		for p := range pats {
			pats[p] = r.Perm(n)[:2+r.Intn(4)]
		}
		rows := 60 + r.Intn(300)
		d := GeneratePlanted(r, n, rows, pats, 0.1, 0.05)
		sets = append(sets, dataset{"planted", d, 1 + r.Intn(rows/4)})
	}
	for i, c := range sets {
		vert, scan := newVertical(c.d, c.z), rowScan{c.d, c.z}
		got, gotChecks := minedEvents(t, c.d, vert)
		want, wantChecks := minedEvents(t, c.d, scan)
		if gotChecks != wantChecks || len(got) != len(want) {
			t.Fatalf("%s #%d: %d events after %d checks, row scan %d after %d",
				c.name, i, len(got), gotChecks, len(want), wantChecks)
		}
		for k := range got {
			if got[k].MaxFrequent != want[k].MaxFrequent || !got[k].Set.Equal(want[k].Set) ||
				got[k].DualityChecks != want[k].DualityChecks {
				t.Fatalf("%s #%d: event %d is %+v, row scan %+v", c.name, i, k, got[k], want[k])
			}
		}
		for k := 0; k < 40; k++ {
			u := randomItemset(r, c.d.NumItems())
			if scan.frequent(u) != vert.frequent(u) {
				t.Fatalf("%s #%d: frequent(%v) differs", c.name, i, u)
			}
			var g, w bitset.Set
			if scan.frequent(u) {
				g, w = vert.extendToMaximal(u), scan.extendToMaximal(u)
			} else {
				g, w = vert.shrinkToMinimalInfrequent(u), scan.shrinkToMinimalInfrequent(u)
			}
			if !g.Equal(w) {
				t.Fatalf("%s #%d: walk from %v reached %v, row scan %v", c.name, i, u, g, w)
			}
		}
	}
}

// datasetFromBytes decodes a fuzz input: data[0] mod 71 items, then one
// row per ⌈items/8⌉ bytes (one row per byte when there are no items), item
// i present when bit i of the row's bytes is set; bits of set name the
// itemset's items.
func datasetFromBytes(data, set []byte) (*Dataset, bitset.Set) {
	n := 0
	if len(data) > 0 {
		n, data = int(data[0])%71, data[1:]
	}
	bitsOf := func(b []byte) []int {
		var items []int
		for i := 0; i < n && i/8 < len(b); i++ {
			if b[i/8]&(1<<(i%8)) != 0 {
				items = append(items, i)
			}
		}
		return items
	}
	width := max((n+7)/8, 1)
	d := NewDataset(n)
	for ; len(data) >= width; data = data[width:] {
		d.AddRow(bitsOf(data[:width])...)
	}
	return d, bitset.FromSlice(n, bitsOf(set))
}

// FuzzVerticalFrequency: for any dataset and itemset the tid-set count
// equals the row scan. Its named seeds are in
// testdata/fuzz/FuzzVerticalFrequency.
func FuzzVerticalFrequency(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, set []byte) {
		d, u := datasetFromBytes(data, set)
		if got, want := newVertical(d, 1).frequency(u), d.Frequency(u); got != want {
			t.Fatalf("%d items, %d rows: vertical f(%v) = %d, row scan %d", d.NumItems(), d.NumRows(), u, got, want)
		}
	})
}
