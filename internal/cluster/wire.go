package cluster

import "dualspace/internal/core"

// PeerHeader marks a request as a peer cache-fill rather than client
// traffic: the client sets it to its own advertised address, the serving
// replica logs it and never forwards such a request onward (the header and
// the ?no_forward=1 query parameter are redundant loop guards — either
// alone stops a forwarding cycle).
const PeerHeader = "X-Dualspace-Peer"

// FillRequest is the POST /v1/cluster/verdict body. It carries the
// *original* request text of both hypergraphs, not a re-rendering of the
// canonical forms: hgio interns vertex names in first-appearance order, so
// the same text parses to the same integer structure on every replica —
// which is exactly what makes the canonical fingerprints (and therefore
// the cache key and the witness vertex numbering) agree across the wire.
// Re-rendering the canonical form could permute vertex indices on
// re-parse and silently change the key.
type FillRequest struct {
	Engine string `json:"engine,omitempty"`
	G      string `json:"g"`
	H      string `json:"h"`
}

// WireVerdict is the cluster fill response: the flattened verdict, whose
// witness indices refer to the vertex universe N of the shared-symbol-table
// parse, plus the engine that answered and whether it came from the
// serving replica's cache. The receiver decodes it with Verdict.Result and
// checks it against its own parse before serving it.
type WireVerdict struct {
	core.Verdict
	Engine string `json:"engine,omitempty"`
	Cached bool   `json:"cached"`
}
