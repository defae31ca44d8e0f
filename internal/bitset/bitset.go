// Package bitset implements dense bit-vector sets over the universe [0, n).
//
// Set is the edge representation used throughout dualspace: hypergraph
// edges, transversals, itemsets, keys and quorums are all Sets. The zero
// value of Set is the empty set over an empty universe; most callers create
// sets with New or FromSlice so that the universe size is explicit.
//
// All binary operations (Union, Intersect, ...) require operands of the same
// universe size and panic otherwise: mixing universes is always a programming
// error in this code base, never a data error.
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Set is a fixed-universe bit set. The universe size is len(words)*64 rounded
// down to the n supplied at construction; bits at positions >= n are always
// zero (maintained as an invariant by every operation).
type Set struct {
	n     int
	words []uint64
}

// New returns the empty set over the universe [0, n). n must be >= 0.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewBatch returns count empty sets over the universe [0, n) whose word
// storage is carved out of a single shared slab — two allocations total
// instead of count+1. The incidence index (internal/hypergraph) keeps one
// occurrence set per vertex; allocating them as a batch keeps index
// construction cheap and the words cache-adjacent. The sets behave exactly
// like individually allocated ones.
func NewBatch(n, count int) []Set {
	if n < 0 || count < 0 {
		panic("bitset: negative batch dimensions")
	}
	w := (n + wordBits - 1) / wordBits
	slab := make([]uint64, w*count)
	out := make([]Set, count)
	for i := range out {
		out[i] = Set{n: n, words: slab[i*w : (i+1)*w : (i+1)*w]}
	}
	return out
}

// FromSlice returns the set over [0, n) containing the given elements.
// It panics if any element is outside [0, n).
func FromSlice(n int, elems []int) Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Full returns the set containing every element of [0, n).
func Full(n int) Set {
	s := New(n)
	for w := range s.words {
		s.words[w] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears any bits at positions >= n.
func (s *Set) trim() {
	if len(s.words) == 0 {
		return
	}
	if r := s.n % wordBits; r != 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Universe returns the universe size n.
func (s Set) Universe() int { return s.n }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Add inserts e into s. It panics if e is outside [0, n).
func (s Set) Add(e int) {
	s.check(e)
	s.words[e/wordBits] |= 1 << uint(e%wordBits)
}

// Remove deletes e from s. It panics if e is outside [0, n).
func (s Set) Remove(e int) {
	s.check(e)
	s.words[e/wordBits] &^= 1 << uint(e%wordBits)
}

// Contains reports whether e is a member of s.
// It panics if e is outside [0, n).
func (s Set) Contains(e int) bool {
	s.check(e)
	return s.words[e/wordBits]&(1<<uint(e%wordBits)) != 0
}

func (s Set) check(e int) {
	if e < 0 || e >= s.n {
		panic(fmt.Sprintf("bitset: element %d outside universe [0,%d)", e, s.n))
	}
}

func (s Set) sameUniverse(t Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d != %d", s.n, t.n))
	}
}

// Len returns the cardinality of s.
func (s Set) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether s has no elements.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
// Sets over different universes are never equal.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊂ t strictly.
func (s Set) ProperSubsetOf(t Set) bool {
	return s.SubsetOf(t) && !s.Equal(t)
}

// Intersects reports whether s and t share at least one element.
func (s Set) Intersects(t Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// TripleIntersects reports whether s ∩ t ∩ u is non-empty, without
// materializing the intersection.
func (s Set) TripleIntersects(t, u Set) bool {
	s.sameUniverse(t)
	s.sameUniverse(u)
	for i, w := range s.words {
		if w&t.words[i]&u.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ t| without materializing the intersection.
func (s Set) IntersectionCount(t Set) int {
	s.sameUniverse(t)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & t.words[i])
	}
	return c
}

// IntersectionMin returns the smallest element of s ∩ t, or -1 if the
// intersection is empty, without materializing it.
func (s Set) IntersectionMin(t Set) int {
	s.sameUniverse(t)
	for i, w := range s.words {
		if x := w & t.words[i]; x != 0 {
			return i*wordBits + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	s.sameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] |= w
	}
	return r
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	s.sameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &= w
	}
	return r
}

// Diff returns s − t as a new set.
func (s Set) Diff(t Set) Set {
	s.sameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &^= w
	}
	return r
}

// Complement returns [0,n) − s as a new set.
func (s Set) Complement() Set {
	r := s.Clone()
	for i := range r.words {
		r.words[i] = ^r.words[i]
	}
	r.trim()
	return r
}

// WithElem returns s ∪ {e} as a new set.
func (s Set) WithElem(e int) Set {
	r := s.Clone()
	r.Add(e)
	return r
}

// WithoutElem returns s − {e} as a new set.
func (s Set) WithoutElem(e int) Set {
	r := s.Clone()
	r.Remove(e)
	return r
}

// Min returns the smallest element of s, or -1 if s is empty.
func (s Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// MinAbsent returns the smallest element of [0, n) that is NOT in s, or -1
// if s is full. The decomposition kernel uses it to pick the first edge
// index missing from an occurrence union without materializing the
// complement.
func (s Set) MinAbsent() int {
	for i, w := range s.words {
		if w != ^uint64(0) {
			e := i*wordBits + bits.TrailingZeros64(^w)
			if e >= s.n {
				return -1
			}
			return e
		}
	}
	return -1
}

// AppendDiffElems appends the elements of s − t to buf in increasing order
// and returns the extended slice, allowing tree walkers to collect the
// vertices removed between a node and its child without allocating.
func (s Set) AppendDiffElems(t Set, buf []int) []int {
	s.sameUniverse(t)
	for i := range s.words {
		w := s.words[i] &^ t.words[i]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			buf = append(buf, i*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return buf
}

// AppendWords appends the raw words of s to buf and returns the extended
// slice. Together with AppendIntersectionWords it is the zero-allocation
// encoder behind the subinstance memo keys of internal/core.
func (s Set) AppendWords(buf []uint64) []uint64 {
	return append(buf, s.words...)
}

// AppendIntersectionWords appends the words of s ∩ t to buf without
// materializing the intersection.
func (s Set) AppendIntersectionWords(t Set, buf []uint64) []uint64 {
	s.sameUniverse(t)
	for i := range s.words {
		buf = append(buf, s.words[i]&t.words[i])
	}
	return buf
}

// Elems returns the elements of s in increasing order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// ForEach calls f on each element of s in increasing order until f returns
// false or the elements are exhausted. It reports whether the iteration ran
// to completion.
func (s Set) ForEach(f func(e int) bool) bool {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(i*wordBits + b) {
				return false
			}
			w &^= 1 << uint(b)
		}
	}
	return true
}

// Compare orders sets over the same universe first by their smallest
// differing element ("lexicographic as sorted element sequences with absent
// elements last"): it returns a negative number if s sorts before t, zero if
// equal, positive otherwise. The order is total and is used to canonicalize
// hypergraphs.
func (s Set) Compare(t Set) int {
	s.sameUniverse(t)
	for i := range s.words {
		x, y := s.words[i], t.words[i]
		if x == y {
			continue
		}
		d := x ^ y
		low := d & -d // lowest differing bit
		// The set containing the lowest differing element sorts first.
		if x&low != 0 {
			return -1
		}
		return 1
	}
	return 0
}

// Key returns a compact string usable as a map key identifying the set's
// contents within its universe: the raw little-endian bytes of the words.
// The encoding is injective per universe (fixed length, one 8-byte group
// per word) and allocates only the returned string.
func (s Set) Key() string {
	return string(s.AppendKey(make([]byte, 0, len(s.words)*8)))
}

// AppendKey appends the Key encoding of s to buf and returns the extended
// slice, allowing callers that dedup in a loop to reuse one buffer
// (map lookups via string(buf) then do not allocate at all).
func (s Set) AppendKey(buf []byte) []byte {
	for _, w := range s.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Hash returns a 64-bit FNV-1a hash of the set's words. Equal sets over the
// same universe hash equal; callers using Hash for deduplication must
// confirm collisions with Equal.
func (s Set) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range s.words {
		h ^= w
		h *= prime64
	}
	return h
}

// String renders the set as "{e1 e2 ...}" with elements in increasing order.
func (s Set) String() string {
	elems := s.Elems()
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = fmt.Sprint(e)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// SortSets sorts a slice of sets in place using Compare. Compare is a
// total order (zero only for equal sets), so the result is a canonical
// order.
func SortSets(sets []Set) {
	slices.SortFunc(sets, Set.Compare)
}
