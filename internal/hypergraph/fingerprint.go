package hypergraph

// Canonical fingerprints. A Fingerprint identifies a hypergraph as a
// *family*: two hypergraphs fingerprint equal iff they have the same
// universe size and the same set of edges, ignoring edge order and
// duplicate edges. This is the cache key of the duality service
// (internal/service): a verdict computed for the canonicalized instance
// (Canonical() on both sides) is valid for every request whose inputs
// canonicalize to the same pair of fingerprints.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// FingerprintSize is the byte length of a Fingerprint (sha256).
const FingerprintSize = 32

// Fingerprint is a canonical digest of a hypergraph.
type Fingerprint [FingerprintSize]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// AppendTo appends the raw fingerprint bytes to buf, for callers composing
// multi-part cache keys.
func (f Fingerprint) AppendTo(buf []byte) []byte { return append(buf, f[:]...) }

// Hash64 returns a 64-bit view of the fingerprint for hash-based placement
// (shard selection, hash maps). The fingerprint is a sha256 digest, so any
// fixed 8 bytes of it are already uniformly mixed; the first 8 are used.
func (f Fingerprint) Hash64() uint64 { return binary.LittleEndian.Uint64(f[:8]) }

// Fingerprint returns the canonical digest of h: sha256 over the universe
// size, the number of distinct edges, and the distinct edge keys
// (bitset.AppendKey encoding, fixed-length per universe) in sorted order.
// Edge order and duplicate edges do not affect the result; the universe
// size does, so families over different universes never collide by
// construction.
func (h *Hypergraph) Fingerprint() Fingerprint {
	keyLen := (h.n + 63) / 64 * 8
	buf := make([]byte, 0, keyLen*len(h.edges))
	offs := make([]int, 0, len(h.edges))
	for _, e := range h.edges {
		offs = append(offs, len(buf))
		buf = e.AppendKey(buf)
	}
	slices.SortFunc(offs, func(a, b int) int {
		return bytes.Compare(buf[a:a+keyLen], buf[b:b+keyLen])
	})
	// Hash distinct keys only, so duplicate edges are ignored.
	offs = slices.CompactFunc(offs, func(a, b int) bool {
		return bytes.Equal(buf[a:a+keyLen], buf[b:b+keyLen])
	})
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(h.n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(offs)))
	d := sha256.New()
	d.Write(hdr[:])
	for _, o := range offs {
		d.Write(buf[o : o+keyLen])
	}
	var out Fingerprint
	d.Sum(out[:0])
	return out
}
