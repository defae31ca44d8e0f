// Command transversals enumerates the minimal transversals tr(H) of a
// simple hypergraph.
//
// Usage:
//
//	transversals [-method dfs|berge|oracle] [-count] [-limit n] H.hg
//
// Output: one minimal transversal per line in the same edge format. The
// oracle method enumerates through repeated duality-witness extraction,
// demonstrating the incremental pattern of Gottlob (PODS 2013), §1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dualspace/internal/bitset"
	"dualspace/internal/engine"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
	"dualspace/internal/transversal"
)

func main() {
	method := flag.String("method", "dfs", "enumeration method: dfs, berge, oracle")
	countOnly := flag.Bool("count", false, "print only the number of minimal transversals")
	limit := flag.Int("limit", 0, "stop after this many transversals (0 = all; dfs only)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: transversals [-method dfs|berge|oracle] H.hg")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer f.Close()
	hs, sy, err := hgio.ReadHypergraphs(f)
	exitOn(err)
	h := hs[0].Minimize()

	// Counting needs no materialization: stream the DFS enumerator and keep
	// only the integer.
	if *countOnly && *method == "dfs" && *limit <= 0 {
		c, err := transversal.CountContext(context.Background(), h)
		exitOn(err)
		fmt.Println(c)
		return
	}

	var result *hypergraph.Hypergraph
	switch *method {
	case "dfs":
		if *limit > 0 {
			out := hypergraph.New(h.N())
			exitOn(transversal.EnumerateContext(context.Background(), h, func(s bitset.Set) (bool, error) {
				out.AddEdge(s)
				return out.M() < *limit, nil
			}))
			result = out
		} else {
			result = transversal.AsHypergraph(h)
		}
	case "berge":
		result = transversal.Berge(h)
	case "oracle":
		// One pinned engine session serves the |tr(h)| + 1 oracle decisions.
		sess := engine.NewSession(nil)
		got, err := transversal.ViaOracle(h, sess.NewTransversalOracle(context.Background()))
		exitOn(err)
		result = got.Canonical()
	default:
		exitOn(fmt.Errorf("unknown method %q", *method))
	}

	if *countOnly {
		fmt.Println(result.M())
		return
	}
	exitOn(hgio.WriteHypergraph(os.Stdout, result, sy))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "transversals:", err)
		os.Exit(2)
	}
}
