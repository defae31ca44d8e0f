package service

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dualspace/internal/hgio"
)

// parsePair returns a 10+10-edge instance pair in the request text format,
// the size of a typical /v1/decide body or batch row.
func parsePair() (g, h string) {
	var gb, hb strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&gb, "x%d y%d\n", i, i)
		fmt.Fprintf(&hb, "x%d y%d x%d\n", i, (i+1)%10, (i+2)%10)
	}
	return gb.String(), hb.String()
}

// TestParsePairAllocs bounds what parsing one request pair costs the
// allocator under the service's default limits.
func TestParsePairAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 32, 8 << 10
	g, h := parsePair()
	parse := func() {
		if _, _, err := hgio.ParseHypergraphs(DefaultLimits, nil, g, h); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, parse)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("parse pair: %.0f allocs, %d B", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("parse pair: %.0f allocs, %d B; want <= %d allocs, <= %d B", allocs, bytes, maxAllocs, maxBytes)
	}
}

func BenchmarkParsePair(b *testing.B) {
	g, h := parsePair()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := hgio.ParseHypergraphs(DefaultLimits, nil, g, h); err != nil {
			b.Fatal(err)
		}
	}
}
