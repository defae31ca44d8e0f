package hgio

import (
	"errors"
	"strings"
	"testing"
)

// fuzzLimits is the limit profile the fuzzer exercises — small enough that
// the property checks stay cheap, shaped like the service defaults.
var fuzzLimits = Limits{MaxEdges: 64, MaxEdgeVerts: 16, MaxUniverse: 64, MaxLineBytes: 1 << 12}

// FuzzParseEdges asserts, on one arbitrary edge text, that ParseHypergraphs
// under limits (a) never panics, (b) never returns a hypergraph exceeding
// its limits, and (c) agrees with the unlimited parse whenever it accepts.
// The seed inputs double as the regression corpus in
// testdata/fuzz/FuzzParseEdges; FuzzParseHypergraphs, the differential
// check against the reference parser, carries the same seeds and is the
// target to fuzz.
func FuzzParseEdges(f *testing.F) {
	for _, seed := range []string{
		"",
		"a b\nc d\n",
		"# comment only\n\n   \n",
		"-\n",
		"a b\n-\nc\n",
		"a - b\n",
		"  leading ws\tand tabs \n",
		"dup dup dup\n",
		strings.Repeat("v ", 20) + "\n",
		strings.Repeat("edge\n", 70),
		strings.Repeat("x", 5000),
		"nul\x00byte\n",
		"ütf8 ✓\n",
		"\xff\xfe invalid utf8\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		hs, sy, err := ParseHypergraphs(fuzzLimits, nil, in)
		if err != nil {
			// Rejections must be classified: either a limit violation or a
			// syntax error mentioning the offending line.
			var le *LimitError
			if !errors.As(err, &le) && !strings.Contains(err.Error(), "line") {
				t.Fatalf("unclassified parse error: %v", err)
			}
			return
		}
		h := hs[0]
		if h.M() > fuzzLimits.MaxEdges {
			t.Fatalf("accepted %d edges > limit %d", h.M(), fuzzLimits.MaxEdges)
		}
		if sy.Len() > fuzzLimits.MaxUniverse || h.N() != sy.Len() {
			t.Fatalf("accepted universe %d (table %d) > limit %d", h.N(), sy.Len(), fuzzLimits.MaxUniverse)
		}
		for _, e := range h.Edges() {
			if e.Len() > fuzzLimits.MaxEdgeVerts {
				t.Fatalf("accepted edge with %d vertices > limit %d", e.Len(), fuzzLimits.MaxEdgeVerts)
			}
		}
		// Accepted input must parse identically without limits.
		plain, _, err := ParseHypergraphs(Limits{}, nil, in)
		if err != nil {
			t.Fatalf("limited parser accepted what the plain parser rejects: %v", err)
		}
		if !sameEdges(plain[0], h) {
			t.Fatalf("limited/plain parses differ: %v vs %v", h, plain[0])
		}
	})
}
