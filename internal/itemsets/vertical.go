package itemsets

import "dualspace/internal/bitset"

// support answers the frequency questions of the dualize-and-advance loop
// for one dataset and threshold z: whether an itemset is frequent, and the
// greedy walks from a seed to a border element. Both walks try items in
// increasing order, one frequency test per item, so every implementation
// finds the same border element from the same seed.
type support interface {
	// frequent reports f(u) > z.
	frequent(u bitset.Set) bool
	// extendToMaximal grows the frequent itemset u to a maximal frequent
	// itemset by greedily adding items in increasing order.
	extendToMaximal(u bitset.Set) bitset.Set
	// shrinkToMinimalInfrequent shrinks the infrequent itemset u to a
	// minimal infrequent itemset by greedily removing items in increasing
	// order. (By anti-monotonicity of frequency the result's proper subsets
	// are all frequent.)
	shrinkToMinimalInfrequent(u bitset.Set) bitset.Set
}

// vertical is the loop's support: the dataset in its vertical (tid-set)
// layout, built in one pass over the rows. tid[i] is the set of row ids
// containing item i, so f(U) = |⋀_{i∈U} tid[i]| costs |U| word-parallel
// ANDs over ⌈rows/64⌉ words instead of one subset test per row. The greedy
// walks keep running intersections, so each item they try costs one AND.
type vertical struct {
	z    int
	rows int
	tid  []bitset.Set // tid[i]: the rows containing item i
	all  bitset.Set   // every row: the tid set of ∅
	// Scratch. acc and tmp hold running intersections; suffix[j] is the
	// intersection of the tid sets of a shrink seed's items from its j-th
	// on (suffix[len(items)] = all), and items lists that seed's items.
	acc, tmp bitset.Set
	suffix   []bitset.Set
	items    []int
}

func newVertical(d *Dataset, z int) *vertical {
	n, rows := d.nItems, len(d.rows)
	sets := bitset.NewBatch(rows, 2*n+3)
	v := &vertical{
		z: z, rows: rows,
		tid: sets[:n], suffix: sets[n : 2*n+1],
		acc: sets[2*n+1], tmp: sets[2*n+2],
		all:   bitset.Full(rows),
		items: make([]int, 0, n),
	}
	for r, row := range d.rows {
		row.ForEach(func(i int) bool {
			v.tid[i].Add(r)
			return true
		})
	}
	return v
}

// frequency returns f(u) and leaves ⋀_{i∈u} tid[i] in acc.
func (v *vertical) frequency(u bitset.Set) int {
	v.acc.CopyFrom(v.all)
	c := v.rows
	for i := range v.tid {
		if u.Contains(i) {
			c = v.acc.IntersectIntoCount(v.tid[i], v.acc) //dual:allow(bitsetalias: in-place running intersection)
		}
	}
	return c
}

func (v *vertical) frequent(u bitset.Set) bool { return v.frequency(u) > v.z }

// extendToMaximal keeps acc = ⋀ tid over the itemset grown so far; trying
// item i is one AND of acc with tid[i] into tmp, and the two swap when i
// stays.
func (v *vertical) extendToMaximal(u bitset.Set) bitset.Set {
	r := u.Clone()
	v.frequency(u)
	for i := range v.tid {
		if r.Contains(i) {
			continue
		}
		if v.acc.IntersectIntoCount(v.tid[i], v.tmp) > v.z {
			r.Add(i)
			v.acc, v.tmp = v.tmp, v.acc
		}
	}
	return r
}

// shrinkToMinimalInfrequent visits the seed's items e_0 < … < e_{k-1} and
// keeps acc = ⋀ tid over the items kept so far. When e_j is tried, the
// itemset without it is the kept items plus e_{j+1}, …, e_{k-1}, so its
// frequency is |acc ∩ suffix[j+1]|: one AND per item tried.
func (v *vertical) shrinkToMinimalInfrequent(u bitset.Set) bitset.Set {
	r := u.Clone()
	v.items = v.items[:0]
	for i := range v.tid {
		if u.Contains(i) {
			v.items = append(v.items, i)
		}
	}
	k := len(v.items)
	v.suffix[k].CopyFrom(v.all)
	for j := k - 1; j >= 0; j-- {
		v.suffix[j+1].IntersectInto(v.tid[v.items[j]], v.suffix[j])
	}
	v.acc.CopyFrom(v.all)
	for j, i := range v.items {
		if v.acc.IntersectionCount(v.suffix[j+1]) > v.z {
			v.acc.IntersectInto(v.tid[i], v.acc) //dual:allow(bitsetalias: in-place running intersection)
		} else {
			r.Remove(i)
		}
	}
	return r
}
