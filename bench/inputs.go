package main

// Input generation. Every input is a pure function of the workload seed: the
// same seed renders byte-identical request streams, and the server receives
// only the rendered texts. Each pool draws from its own seeded stream, so
// resizing one pool never shifts another's inputs.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dualspace/internal/gen"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
	"dualspace/internal/service"
)

const (
	hotClasses   = 48
	hotVariants  = 4
	coldPoolSize = 65536
	warmPoolSize = 256
	batchRows    = batchHotRows + batchColdRows
	batchHotRows = hotClasses * hotVariants
	// batchColdRows is the number of fresh cold rows in each batch body.
	batchColdRows = 64
	mineDatasets  = 256
	// mineWarm is how many datasets a mine-borders warm-up mines.
	mineWarm = 16
	mineRows = 1000
	mineZ    = 50
)

// Seed streams, one per pool.
const (
	streamHot = iota + 1
	streamCold
	streamBatchCold
	streamWarm
	streamMine
	streamOrder
)

// rng returns the generator of one (seed, stream, chunk) triple, mixed with
// splitmix64 so neighbouring seeds share no state.
func rng(seed int64, stream, chunk int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<32 ^ uint64(chunk)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// instance is one DUAL query with the answer known from how it was built.
// Edges are vertex bitmasks; vertex i is named "v<i>" behind a variant
// prefix.
type instance struct {
	g, h []uint64
	dual bool
}

// query is one rendered instance: the /v1/decide body, which is also a
// /v1/batch row, plus what the oracle needs to check the answer.
type query struct {
	inst   *instance
	prefix string
	body   []byte
}

type decideBody struct {
	G string `json:"g"`
	H string `json:"h"`
}

func masks(h *hypergraph.Hypergraph) []uint64 {
	out := make([]uint64, h.M())
	for i, e := range h.Edges() {
		e.ForEach(func(v int) bool { out[i] |= 1 << uint(v); return true })
	}
	return out
}

// writeEdge renders one edge's vertices in the given order.
func writeEdge(b *strings.Builder, vs []int, prefix string) {
	for j, v := range vs {
		if j > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(prefix)
		b.WriteByte('v')
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte('\n')
}

func verts(e uint64) []int {
	vs := make([]int, 0, bits.OnesCount64(e))
	for ; e != 0; e &= e - 1 {
		vs = append(vs, bits.TrailingZeros64(e))
	}
	return vs
}

// plainText renders edges in order with ascending vertices. Prefixing every
// name keeps hgio's first-appearance interning, so all prefixes of one
// instance fall into one canonical class.
func plainText(edges []uint64, prefix string) string {
	var b strings.Builder
	for _, e := range edges {
		writeEdge(&b, verts(e), prefix)
	}
	return b.String()
}

// shuffledText renders edges in a random order with each edge's vertices in
// a random order, which changes the interning order and hence, for
// asymmetric instances, the canonical class.
func shuffledText(r *rand.Rand, edges []uint64) string {
	var b strings.Builder
	for _, i := range r.Perm(len(edges)) {
		vs := verts(edges[i])
		r.Shuffle(len(vs), func(a, c int) { vs[a], vs[c] = vs[c], vs[a] })
		writeEdge(&b, vs, "")
	}
	return b.String()
}

func marshalBody(g, h string) []byte {
	b, err := json.Marshal(decideBody{G: g, H: h})
	if err != nil {
		panic(err) // two strings always marshal
	}
	return b
}

// classKey parses a rendered pair the way the server does and returns its
// canonical fingerprint pair: the cache key minus the engine name.
func classKey(body []byte) ([2]hypergraph.Fingerprint, error) {
	var d decideBody
	if err := json.Unmarshal(body, &d); err != nil {
		return [2]hypergraph.Fingerprint{}, err
	}
	hs, _, err := hgio.ReadHypergraphsLimited(service.DefaultLimits,
		strings.NewReader(d.G), strings.NewReader(d.H))
	if err != nil {
		return [2]hypergraph.Fingerprint{}, err
	}
	return [2]hypergraph.Fingerprint{hs[0].Canonical().Fingerprint(), hs[1].Canonical().Fingerprint()}, nil
}

// hotVariantsOf returns the 192 decide-hot requests: 48 canonical classes,
// each rendered under 4 name prefixes, class-major. The classes are the
// dual and near-dual matchings k=2..8, thresholds and majorities, then
// seeded random dual and near-dual pairs until 48 distinct fingerprint
// pairs exist. Near-dual means one seeded edge of the dual dropped.
func hotVariantsOf(seed int64) []query {
	r := rng(seed, streamHot, 0)
	seen := map[[2]hypergraph.Fingerprint]bool{}
	var out []query
	add := func(g, h *hypergraph.Hypergraph, dual bool) {
		in := &instance{g: masks(g), h: masks(h), dual: dual}
		var vs []query
		for p := 0; p < hotVariants; p++ {
			prefix := fmt.Sprintf("h%d_", p)
			vs = append(vs, query{inst: in, prefix: prefix,
				body: marshalBody(plainText(in.g, prefix), plainText(in.h, prefix))})
		}
		k, err := classKey(vs[0].body)
		if err != nil {
			panic(err) // generated texts are well-formed
		}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, vs...)
	}
	nearDual := func(h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
		return gen.DropEdge(h, r.Intn(h.M()))
	}
	for k := 2; k <= 8; k++ {
		add(gen.Matching(k), gen.MatchingDual(k), true)
		add(gen.Matching(k), nearDual(gen.MatchingDual(k)), false)
	}
	for _, nk := range [][2]int{{5, 2}, {6, 2}, {6, 3}, {7, 2}, {7, 3}, {8, 3}} {
		g, h := gen.Threshold(nk[0], nk[1]), gen.ThresholdDual(nk[0], nk[1])
		add(g, h, true)
		add(g, nearDual(h), false)
	}
	for _, n := range []int{3, 5, 7} {
		m := gen.Majority(n)
		add(m, m, true)
		add(m, nearDual(m), false)
	}
	for len(out) < hotClasses*hotVariants {
		g, h := gen.RandomDualPair(r, 8+r.Intn(5), 4+r.Intn(5), 0.35)
		if h.M() < 2 {
			continue
		}
		if dual := len(out)/hotVariants%2 == 0; dual {
			add(g, h, true)
		} else {
			add(g, nearDual(h), false)
		}
	}
	return out
}

// coldMinEdges is the least edge count of either side of a cold pair.
// Smaller pairs have so few shapes that their shuffled renderings collide
// into shared canonical classes, and the pool would no longer miss the
// cache.
const coldMinEdges = 4

// coldQuery draws one asymmetric random pair (n∈[10,14] vertices, m∈[6,11]
// edges, p=0.3) and its exact dual, drops one dual edge when dual is false,
// and renders it shuffled.
func coldQuery(r *rand.Rand, dual bool) query {
	g, h := gen.RandomDualPair(r, 10+r.Intn(5), 6+r.Intn(6), 0.3)
	for g.M() < coldMinEdges || h.M() < coldMinEdges {
		g, h = gen.RandomDualPair(r, 10+r.Intn(5), 6+r.Intn(6), 0.3)
	}
	if !dual {
		h = gen.DropEdge(h, r.Intn(h.M()))
	}
	in := &instance{g: masks(g), h: masks(h), dual: dual}
	return query{inst: in, body: marshalBody(shuffledText(r, in.g), shuffledText(r, in.h))}
}

// coldPoolOf generates size cold queries, even indices dual and odd ones
// near-dual, in chunks of 4096 with one seeded stream each, so two
// goroutines can share the work without changing the result.
func coldPoolOf(seed int64, stream, size int) []query {
	const chunk = 4096
	out := make([]query, size)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				r := rng(seed, stream, c)
				for i := c * chunk; i < min(size, (c+1)*chunk); i++ {
					out[i] = coldQuery(r, i%2 == 0)
				}
			}
		}()
	}
	for c := 0; c*chunk < size; c++ {
		next <- c
	}
	close(next)
	wg.Wait()
	return out
}

// dataset is one /v1/mine request with its expected borders, each border a
// set of item-name lists (sorted, space-joined).
type dataset struct {
	text string
	body []byte

	once           sync.Once
	maxFreq, minIn map[string]bool
	err            error
}

type mineBody struct {
	Data string `json:"data"`
	Z    int    `json:"z"`
}

// datasetsOf generates the mining datasets: 20–24 items, 1,000 rows, 6
// planted patterns of 2–5 items, dropout 0.1, noise 0.05, threshold z=50.
func datasetsOf(seed int64) []dataset {
	r := rng(seed, streamMine, 0)
	out := make([]dataset, mineDatasets)
	for i := range out {
		n := 20 + r.Intn(5)
		pats := make([][]int, 6)
		for p := range pats {
			pats[p] = r.Perm(n)[:2+r.Intn(4)]
		}
		d := itemsets.GeneratePlanted(r, n, mineRows, pats, 0.1, 0.05)
		var b strings.Builder
		for row := 0; row < d.NumRows(); row++ {
			items := d.Row(row).Elems()
			if len(items) == 0 {
				b.WriteString("-\n") // hgio's explicit empty row
				continue
			}
			for j, it := range items {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString("i" + strconv.Itoa(it))
			}
			b.WriteByte('\n')
		}
		out[i].text = b.String()
		body, err := json.Marshal(mineBody{Data: out[i].text, Z: mineZ})
		if err != nil {
			panic(err) // a string and an int always marshal
		}
		out[i].body = body
	}
	return out
}

// borders returns the dataset's borders as BordersApriori computes them
// over the text as the server parses it, so item interning order cannot
// skew the comparison. They are computed on first use.
func (d *dataset) borders() (maxFreq, minIn map[string]bool, err error) {
	d.once.Do(func() {
		parsed, sy, err := hgio.ReadDatasetLimited(strings.NewReader(d.text), service.DefaultLimits)
		if err != nil {
			d.err = err
			return
		}
		bd, err := itemsets.BordersApriori(parsed, mineZ)
		if err != nil {
			d.err = err
			return
		}
		d.maxFreq, d.minIn = borderKeys(bd.MaxFrequent, sy), borderKeys(bd.MinInfrequent, sy)
	})
	return d.maxFreq, d.minIn, d.err
}

// expectBorders computes every dataset's borders on two goroutines, so a
// run pays for them before the server starts rather than during warm-up.
func expectBorders(sets []dataset) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(sets) && errs[w] == nil; i += len(errs) {
				_, _, errs[w] = sets[i].borders()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func borderKeys(h *hypergraph.Hypergraph, sy *hgio.Symbols) map[string]bool {
	out := make(map[string]bool, h.M())
	for _, e := range h.Edges() {
		var names []string
		e.ForEach(func(v int) bool { names = append(names, sy.Name(v)); return true })
		out[setKey(names)] = true
	}
	return out
}

func setKey(names []string) string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return strings.Join(s, " ")
}
