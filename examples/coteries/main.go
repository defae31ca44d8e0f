// Coteries: recognizing non-dominated quorum systems by self-duality
// (Gottlob, PODS 2013, Proposition 1.3).
//
// A coterie — a pairwise-intersecting antichain of quorums, as used for
// quorum-based updates in distributed databases — is non-dominated exactly
// when its quorum hypergraph equals its own transversal hypergraph. The
// example checks the classical constructions and repairs a dominated one.
//
// Run with: go run ./examples/coteries
package main

import (
	"context"
	"fmt"
	"log"

	"dualspace"
	"dualspace/internal/coterie"
	"dualspace/internal/engine"
)

func main() {
	fmt.Println("coterie                      verdict")
	fmt.Println("---------------------------  -------------")
	show("majority on 5 nodes", coterie.Majority(5))
	show("primary site (singleton)", coterie.Singleton(5, 0))
	show("star {0,i} on 5 nodes", coterie.Star(5, 0))
	show("wheel on 5 nodes", coterie.Wheel(5))
	show("3x3 grid (row+column)", coterie.Grid(3, 3))

	// Repairing a dominated coterie: the star is dominated; the duality
	// witness yields a strictly better quorum system.
	star := coterie.Star(5, 0)
	dom, found, err := star.FindDominatingWith(context.Background(), engine.Default())
	if err != nil {
		log.Fatal(err)
	}
	if found {
		fmt.Println("\nthe star coterie", star, "is dominated by", dom)
		nd, err := dualspace.IsNonDominated(dom)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("the dominating coterie is non-dominated:", nd)
	}

	// The same check through the public facade, from a raw quorum list.
	h, err := dualspace.HypergraphFromEdges(3, [][]int{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		log.Fatal(err)
	}
	c, err := dualspace.NewCoterie(h)
	if err != nil {
		log.Fatal(err)
	}
	nd, err := dualspace.IsNonDominated(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmajority-of-3 via the facade: non-dominated = %v\n", nd)
}

func show(name string, c *coterie.Coterie) {
	nd, err := dualspace.IsNonDominated(c)
	if err != nil {
		log.Fatal(err)
	}
	verdict := "DOMINATED"
	if nd {
		verdict = "non-dominated"
	}
	fmt.Printf("%-27s  %s  (%d quorums / %d nodes)\n", name, verdict, c.NumQuorums(), c.Universe())
}
