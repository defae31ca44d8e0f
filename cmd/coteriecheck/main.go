// Command coteriecheck validates a quorum system as a coterie and decides
// non-domination via self-duality (Gottlob, PODS 2013, Proposition 1.3).
//
// Usage:
//
//	coteriecheck [-improve] quorums.hg
//
// The input lists one quorum per line as whitespace-separated node names.
// With -improve, a dominating coterie is printed when the input is
// dominated. Exit status: 0 non-dominated, 1 dominated, 2 invalid/error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dualspace/internal/coterie"
	"dualspace/internal/engine"
	"dualspace/internal/hgio"
)

func main() {
	improve := flag.Bool("improve", false, "print a dominating coterie when dominated")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: coteriecheck [-improve] quorums.hg")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer f.Close()
	hs, sy, err := hgio.ReadHypergraphs(f)
	exitOn(err)
	c, err := coterie.New(hs[0])
	exitOn(err)

	nd, err := c.IsNonDominatedWith(context.Background(), engine.Default())
	exitOn(err)
	if nd {
		fmt.Printf("NON-DOMINATED coterie (%d quorums over %d nodes)\n", c.NumQuorums(), c.Universe())
		return
	}
	fmt.Printf("DOMINATED coterie (%d quorums over %d nodes)\n", c.NumQuorums(), c.Universe())
	if *improve {
		dom, found, err := c.FindDominatingWith(context.Background(), engine.Default())
		exitOn(err)
		if found {
			fmt.Println("# a dominating coterie:")
			exitOn(hgio.WriteHypergraph(os.Stdout, dom.Hypergraph(), sy))
		}
	}
	os.Exit(1)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "coteriecheck:", err)
		os.Exit(2)
	}
}
