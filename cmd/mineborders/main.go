// Command mineborders computes the maximal frequent itemsets IS+ and the
// minimal infrequent itemsets IS− of a transaction database.
//
// Usage:
//
//	mineborders [-z threshold] [-method dualize|apriori] [-progress]
//	            [-server URL] data.tx
//
// The input lists one transaction per line as whitespace-separated item
// names. An itemset is frequent when strictly more than z transactions
// contain it (Gottlob, PODS 2013, §1). The default method is the
// incremental dualize-and-advance algorithm driven by the duality engine;
// apriori is the levelwise baseline.
//
// With -progress each border element is printed to stderr the moment its
// duality check verifies it ("+ items..." for IS+, "- items..." for IS−),
// so long mines are observable. With -server the mining runs remotely on a
// dualserved instance via its streaming POST /v1/mine endpoint (the
// dualize-and-advance loop advances server-side on pooled, memoizing
// sessions; elements stream back as found); -method is ignored in server
// mode.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"dualspace/internal/engine"
	"dualspace/internal/hgio"
	"dualspace/internal/itemsets"
)

func main() {
	z := flag.Int("z", 1, "frequency threshold (frequent ⟺ support > z)")
	method := flag.String("method", "dualize", "algorithm: dualize, apriori")
	progress := flag.Bool("progress", false, "print each border element to stderr as it is found (dualize only)")
	server := flag.String("server", "", "mine via a running dualserved base URL (e.g. http://127.0.0.1:8372)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mineborders [-z n] [-method dualize|apriori] [-progress] [-server URL] data.tx")
		os.Exit(2)
	}

	if *server != "" {
		mineRemote(*server, flag.Arg(0), *z)
		return
	}

	f, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer f.Close()
	d, sy, err := hgio.ReadDataset(f)
	exitOn(err)

	var b *itemsets.Borders
	switch *method {
	case "dualize":
		var onFound func(itemsets.BorderEvent) error
		if *progress {
			onFound = func(ev itemsets.BorderEvent) error {
				fmt.Fprintln(os.Stderr, progressLine(ev.MaxFrequent, setNames(ev, sy)))
				return nil
			}
		}
		b, err = itemsets.ComputeBordersStreamWith(context.Background(), d, *z, engine.NewSession(nil), onFound)
	case "apriori":
		b, err = itemsets.BordersApriori(d, *z)
	default:
		err = fmt.Errorf("unknown method %q", *method)
	}
	exitOn(err)

	fmt.Printf("# %d transactions, %d items, threshold z=%d (frequent ⟺ support > z)\n",
		d.NumRows(), d.NumItems(), *z)
	fmt.Printf("# maximal frequent itemsets (IS+): %d\n", b.MaxFrequent.M())
	exitOn(hgio.WriteHypergraph(os.Stdout, b.MaxFrequent.Canonical(), sy))
	fmt.Printf("# minimal infrequent itemsets (IS−): %d\n", b.MinInfrequent.M())
	exitOn(hgio.WriteHypergraph(os.Stdout, b.MinInfrequent.Canonical(), sy))
	if b.DualityChecks > 0 {
		fmt.Printf("# duality checks: %d\n", b.DualityChecks)
	}
}

// setNames renders an event's itemset through the local symbol table.
func setNames(ev itemsets.BorderEvent, sy *hgio.Symbols) []string {
	var out []string
	ev.Set.ForEach(func(v int) bool {
		out = append(out, sy.Name(v))
		return true
	})
	return out
}

func progressLine(maxFrequent bool, items []string) string {
	sign := "-"
	if maxFrequent {
		sign = "+"
	}
	if len(items) == 0 {
		return sign + " (empty)"
	}
	return sign + " " + strings.Join(items, " ")
}

// mineRemote streams POST /v1/mine from a dualserved instance, printing
// border elements as they arrive and a summary once the stream completes.
func mineRemote(base, path string, z int) {
	data, err := os.ReadFile(path)
	exitOn(err)
	body, err := json.Marshal(map[string]any{"data": string(data), "z": z})
	exitOn(err)
	resp, err := http.Post(strings.TrimRight(base, "/")+"/v1/mine", "application/json", bytes.NewReader(body))
	exitOn(err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		exitOn(fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(raw)))
	}

	type record struct {
		MaxFrequent   []string `json:"max_frequent"`
		MinInfrequent []string `json:"min_infrequent"`
		Check         int      `json:"check"`
		Done          bool     `json:"done"`
		MaxCount      int      `json:"max_frequent_count"`
		MinCount      int      `json:"min_infrequent_count"`
		DualityChecks int      `json:"duality_checks"`
		Error         string   `json:"error"`
	}
	var maxSets, minSets [][]string
	terminal := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec record
		exitOn(json.Unmarshal(sc.Bytes(), &rec))
		switch {
		case rec.Error != "":
			exitOn(fmt.Errorf("server error mid-stream: %s", rec.Error))
		case rec.Done:
			terminal = true
			fmt.Printf("# maximal frequent itemsets (IS+): %d\n", rec.MaxCount)
			printSets(maxSets)
			fmt.Printf("# minimal infrequent itemsets (IS−): %d\n", rec.MinCount)
			printSets(minSets)
			fmt.Printf("# duality checks: %d\n", rec.DualityChecks)
		case rec.MaxFrequent != nil:
			fmt.Fprintln(os.Stderr, progressLine(true, rec.MaxFrequent))
			maxSets = append(maxSets, rec.MaxFrequent)
		default:
			fmt.Fprintln(os.Stderr, progressLine(false, rec.MinInfrequent))
			minSets = append(minSets, rec.MinInfrequent)
		}
	}
	exitOn(sc.Err())
	if !terminal {
		exitOn(fmt.Errorf("stream ended without a terminal record"))
	}
}

// printSets writes one itemset per line in a stable order ("-" for the
// empty set, matching the hgio edge format).
func printSets(sets [][]string) {
	lines := make([]string, 0, len(sets))
	for _, s := range sets {
		if len(s) == 0 {
			lines = append(lines, "-")
			continue
		}
		lines = append(lines, strings.Join(s, " "))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mineborders:", err)
		os.Exit(2)
	}
}
