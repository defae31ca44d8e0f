// Command keyscan discovers the minimal keys of a relational instance and
// answers the additional-key-for-instance problem (Gottlob, PODS 2013,
// Proposition 1.2).
//
// Usage:
//
//	keyscan [-known keys.hg] [-incremental] relation.csv
//
// The relation is CSV with an attribute header row. Without -known, all
// minimal keys are printed (attribute names per line). With -known (an
// edge file over attribute names), keyscan decides whether an additional
// minimal key exists and prints one if so. -incremental enumerates the
// keys one duality call at a time, reporting each discovery.
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
)

func main() {
	knownPath := flag.String("known", "", "edge file of already-known minimal keys (attribute names)")
	incremental := flag.Bool("incremental", false, "enumerate keys via repeated additional-key calls")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: keyscan [-known keys.hg] [-incremental] relation.csv")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer f.Close()
	rel, err := hgio.ReadRelationCSV(f)
	exitOn(err)

	attrSym := hgio.NewSymbols(rel.Attrs()...)

	switch {
	case *knownPath != "":
		text, err := os.ReadFile(*knownPath)
		exitOn(err)
		hs, _, err := hgio.ParseHypergraphs(hgio.Limits{}, attrSym, string(text))
		exitOn(err)
		if attrSym.Len() > rel.NumAttrs() {
			exitOn(fmt.Errorf("unknown attribute %q in %s", attrSym.Name(rel.NumAttrs()), *knownPath))
		}
		res, err := rel.AdditionalKeyWith(context.Background(), hs[0], engine.NewSessionMemo(nil, -1))
		exitOn(err)
		if res.Complete {
			fmt.Println("COMPLETE: no additional minimal key exists")
			return
		}
		fmt.Print("ADDITIONAL KEY: ")
		exitOn(hgio.WriteHypergraph(os.Stdout, hypergraph.FromSets(rel.NumAttrs(), []bitset.Set{res.NewKey}), attrSym))
		os.Exit(1)
	case *incremental:
		known, calls, err := rel.EnumerateKeysIncrementallyWith(context.Background(), engine.NewSession(nil))
		exitOn(err)
		fmt.Printf("# %d minimal keys in %d duality calls\n", known.M(), calls)
		exitOn(hgio.WriteHypergraph(os.Stdout, known.Canonical(), attrSym))
	default:
		keys := rel.MinimalKeys()
		fmt.Printf("# %d minimal keys of %d-attribute, %d-row relation\n",
			keys.M(), rel.NumAttrs(), rel.NumRows())
		exitOn(hgio.WriteHypergraph(os.Stdout, keys, attrSym))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "keyscan:", err)
		os.Exit(2)
	}
}
