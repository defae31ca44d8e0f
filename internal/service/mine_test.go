package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"

	"dualspace/internal/itemsets"
)

// plantedText renders a GeneratePlanted dataset the way a /v1/mine client
// sends it: one row per line, items named i<index>, "-" for an empty row.
func plantedText(seed int64, items, rows, patterns int) string {
	r := rand.New(rand.NewSource(seed))
	pats := make([][]int, patterns)
	for p := range pats {
		pats[p] = r.Perm(items)[:2+r.Intn(4)]
	}
	d := itemsets.GeneratePlanted(r, items, rows, pats, 0.1, 0.05)
	var b strings.Builder
	for i := 0; i < d.NumRows(); i++ {
		elems := d.Row(i).Elems()
		if len(elems) == 0 {
			b.WriteString("-\n")
			continue
		}
		for j, e := range elems {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString("i" + strconv.Itoa(e))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMineStreamGolden pins the /v1/mine NDJSON stream of two fixed planted
// datasets byte for byte: every border element, its order of discovery and
// its duality-check count. The first dataset has the shape of one
// benchmark mine (22 items, 1,000 rows, 6 patterns, z=50). Its later checks
// are large enough for the default portfolio to switch to the parallel
// search, whose witnesses depend on scheduling, so it runs on the serial
// "core" engine. The second is small enough to stay on the default
// portfolio's serial path.
func TestMineStreamGolden(t *testing.T) {
	const golden = "testdata/mine_stream.golden"
	cases := []struct {
		name   string
		data   string
		z      int
		engine string
	}{
		{"planted-22x1000-z50-core", plantedText(1, 22, 1000, 6), 50, "core"},
		{"planted-12x130-z9", plantedText(2, 12, 130, 3), 9, ""},
	}
	_, ts := newTestServer(t, Config{})
	var got bytes.Buffer
	for _, c := range cases {
		body, err := json.Marshal(mineRequest{Data: c.data, Z: c.z, Engine: c.engine})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/mine", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, raw)
		}
		fmt.Fprintf(&got, "# %s\n", c.name)
		got.Write(raw)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("mine stream drifted from %s:\n got  %s\n want %s", golden, got.Bytes(), want)
	}
}
