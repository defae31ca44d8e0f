package engine

import (
	"context"

	"dualspace/internal/bitset"
	"dualspace/internal/hypergraph"
	"dualspace/internal/transversal"
)

// NewTransversalOracle returns a witness oracle on the session's pinned
// Decider, so the oracle call sites of the incremental applications
// (transversal.ViaOracle / EnumerateViaOracle, and through them the
// data-mining pattern of §1 of the paper) need not touch a decision
// procedure directly. It answers "give me a transversal of g containing no
// edge of partial, or report that partial ⊇ tr(g)" (ok = false: the
// enumeration is complete) with core.Decider.NewTransversal, degenerate
// shapes included; each non-degenerate call costs one raw tree stage. The
// witnesses alias the session storage exactly as long as the transversal
// enumerators need them (they minimalize into a fresh set before the next
// oracle call).
func (s *Session) NewTransversalOracle(ctx context.Context) transversal.WitnessOracle {
	return func(g, partial *hypergraph.Hypergraph) (bitset.Set, bool, error) {
		return s.dec.NewTransversal(ctx, g, partial)
	}
}
