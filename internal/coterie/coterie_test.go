package coterie_test

import (
	"context"
	"math/rand"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/coterie"
	"dualspace/internal/engine"
	"dualspace/internal/hypergraph"
)

// isNonDominated and findDominating decide on the default portfolio under a
// background context.
func isNonDominated(c *coterie.Coterie) (bool, error) {
	return c.IsNonDominatedWith(context.Background(), engine.Default())
}

func findDominating(c *coterie.Coterie) (*coterie.Coterie, bool, error) {
	return c.FindDominatingWith(context.Background(), engine.Default())
}

func TestValidation(t *testing.T) {
	if _, err := coterie.New(hypergraph.New(3)); err == nil {
		t.Error("empty coterie accepted")
	}
	if _, err := coterie.New(hypergraph.MustFromEdges(3, [][]int{{}})); err == nil {
		t.Error("empty quorum accepted")
	}
	if _, err := coterie.New(hypergraph.MustFromEdges(3, [][]int{{0}, {0, 1}})); err == nil {
		t.Error("non-antichain accepted")
	}
	if _, err := coterie.New(hypergraph.MustFromEdges(3, [][]int{{0}, {1}})); err == nil {
		t.Error("non-intersecting quorums accepted")
	}
	if _, err := coterie.New(hypergraph.MustFromEdges(3, [][]int{{0, 1}, {1, 2}})); err != nil {
		t.Errorf("valid coterie rejected: %v", err)
	}
}

func TestKnownConstructions(t *testing.T) {
	cases := []struct {
		name         string
		c            *coterie.Coterie
		nonDominated bool
	}{
		{"majority-3", coterie.Majority(3), true},
		{"majority-5", coterie.Majority(5), true},
		{"singleton", coterie.Singleton(4, 2), true},
		{"star-4", coterie.Star(4, 0), false},
		{"star-5", coterie.Star(5, 1), false},
	}
	for _, c := range cases {
		got, err := isNonDominated(c.c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.nonDominated {
			t.Errorf("%s: IsNonDominated = %v, want %v", c.name, got, c.nonDominated)
		}
		// Proposition 1.3 against the brute-force domination search.
		if got == c.c.IsDominatedBrute() {
			t.Errorf("%s: self-duality and brute-force domination disagree", c.name)
		}
	}
}

func TestWheelAndGridAgainstBrute(t *testing.T) {
	// No hand-claimed ground truth here: just verify Proposition 1.3's
	// equivalence on further structured families.
	for _, c := range []*coterie.Coterie{coterie.Wheel(4), coterie.Wheel(5), coterie.Grid(2, 2), coterie.Grid(3, 3)} {
		nd, err := isNonDominated(c)
		if err != nil {
			t.Fatal(err)
		}
		if nd == c.IsDominatedBrute() {
			t.Errorf("coterie %v: Prop 1.3 equivalence broken", c)
		}
	}
}

func TestFindDominating(t *testing.T) {
	star := coterie.Star(5, 0)
	dom, found, err := findDominating(star)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("dominated star not improved")
	}
	if !dom.Dominates(star) {
		t.Fatalf("claimed dominator %v does not dominate %v", dom, star)
	}
	if star.Dominates(dom) {
		t.Error("domination should be asymmetric here")
	}

	maj := coterie.Majority(5)
	if _, found, err := findDominating(maj); err != nil || found {
		t.Errorf("majority wrongly dominated (found=%v err=%v)", found, err)
	}
}

func TestDominatesSemantics(t *testing.T) {
	star := coterie.Star(4, 0)
	if star.Dominates(star) {
		t.Error("a coterie must not dominate itself")
	}
	// {{0}} dominates the star (every {0,i} contains {0}).
	single := coterie.Singleton(4, 0)
	if !single.Dominates(star) {
		t.Error("singleton should dominate the star")
	}
	if single.Dominates(coterie.Singleton(4, 1)) {
		t.Error("unrelated singletons should not dominate")
	}
}

func TestRandomCoteriesProp13(t *testing.T) {
	// Random coteries: validate the Prop 1.3 equivalence broadly.
	r := rand.New(rand.NewSource(91))
	trials := 0
	for trials < 40 {
		n := 3 + r.Intn(4)
		h := hypergraph.New(n)
		m := 1 + r.Intn(4)
		for i := 0; i < m; i++ {
			e := bitset.New(n)
			for v := 0; v < n; v++ {
				if r.Intn(2) == 0 {
					e.Add(v)
				}
			}
			if e.IsEmpty() {
				e.Add(r.Intn(n))
			}
			h.AddEdge(e)
		}
		c, err := coterie.New(h.Minimize())
		if err != nil {
			continue // not a coterie; draw again
		}
		trials++
		nd, err := isNonDominated(c)
		if err != nil {
			t.Fatal(err)
		}
		if nd == c.IsDominatedBrute() {
			t.Fatalf("random coterie %v: Prop 1.3 equivalence broken", c)
		}
		// FindDominating must agree and produce a genuine dominator.
		dom, found, err := findDominating(c)
		if err != nil {
			t.Fatal(err)
		}
		if found == nd {
			t.Fatalf("FindDominating disagrees with IsNonDominated for %v", c)
		}
		if found && !dom.Dominates(c) {
			t.Fatalf("bogus dominator %v for %v", dom, c)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"majority-even": func() { coterie.Majority(4) },
		"star-small":    func() { coterie.Star(2, 0) },
		"wheel-small":   func() { coterie.Wheel(3) },
		"grid-small":    func() { coterie.Grid(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAccessors(t *testing.T) {
	c := coterie.Majority(3)
	if c.NumQuorums() != 3 || c.Universe() != 3 {
		t.Error("accessors wrong")
	}
	if c.String() == "" {
		t.Error("String empty")
	}
	h := c.Hypergraph()
	h.AddEdgeElems(0) // mutating the copy must not affect the coterie
	if c.NumQuorums() != 3 {
		t.Error("Hypergraph returned shared state")
	}
}
