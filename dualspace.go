// Package dualspace is a Go implementation of the algorithms in
//
//	Georg Gottlob. "Deciding Monotone Duality and Identifying Frequent
//	Itemsets in Quadratic Logspace." PODS 2013.
//
// It provides, through one façade:
//
//   - the monotone duality problem DUAL on simple hypergraphs and
//     irredundant monotone DNFs, decided by the Boros–Makino decomposition
//     with structured non-duality witnesses (internal/core);
//   - the paper's quadratic-logspace machinery: path-descriptor
//     recomputation (pathnode), full tree listing (decompose), witness
//     extraction and O(log²n)-bit fail certificates, runnable in three
//     space regimes with measured workspace (internal/logspace,
//     internal/space);
//   - minimal transversal enumeration by Berge multiplication, DFS with
//     critical-edge pruning, and duality-oracle iteration
//     (internal/transversal);
//   - the Fredman–Khachiyan baselines (internal/fkdual);
//   - the paper's three database applications: maximal-frequent /
//     minimal-infrequent itemset borders (Proposition 1.1), additional keys
//     of relational instances (Proposition 1.2), and coterie
//     non-domination (Proposition 1.3).
//
// Duality decisions route through the pluggable engine layer
// (internal/engine): five procedures behind one interface — the
// decomposition serial and parallel, the logspace replay, FK-A and FK-B —
// selected explicitly (ExplainWith with EngineByName or NewParallelEngine)
// or by the default portfolio, which dispatches on instance features;
// NewEngineSession pins scratch so repeated decisions from one holder are
// allocation-free across calls. Each operation has one entry point here.
// It is context-free, except ExplainWith and EnumerateMinimalTransversals,
// which take a ctx and abort within one decomposition-tree (or search)
// node of cancellation; the application layers' ctx-taking forms live in
// their own packages. The same machinery is served over HTTP by
// cmd/dualserved (internal/service), whose wire protocol —
// including the engine-keyed canonical-Fingerprint verdict cache and the
// streaming enumeration endpoint — is documented in docs/API.md.
//
// # Conventions
//
// Hypergraphs live over a dense vertex universe [0, n); tr(∅) = {∅} and
// tr({∅}) = ∅, matching the DNF constants ⊥ and ⊤. See DESIGN.md for the
// full design and EXPERIMENTS.md for the reproduction experiments.
package dualspace

import (
	"context"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
	"dualspace/internal/coterie"
	"dualspace/internal/dnf"
	"dualspace/internal/engine"
	"dualspace/internal/fkdual"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
	"dualspace/internal/keys"
	"dualspace/internal/logspace"
	"dualspace/internal/space"
	"dualspace/internal/transversal"
)

// Core types, re-exported for API users.
type (
	// Set is a fixed-universe vertex set.
	Set = bitset.Set
	// Hypergraph is a finite family of hyperedges over [0, n).
	Hypergraph = hypergraph.Hypergraph
	// Result is the verdict of a duality decision, with reason and witness.
	Result = core.Result
	// Reason classifies a non-duality verdict.
	Reason = core.Reason
	// Stats carries decomposition-tree measurements.
	Stats = core.Stats
	// DNF is an irredundant monotone formula in disjunctive normal form.
	DNF = dnf.DNF
	// Dataset is a Boolean-valued relation for itemset mining.
	Dataset = itemsets.Dataset
	// Borders holds the IS+ / IS− borders of a mining instance.
	Borders = itemsets.Borders
	// IdentifyResult is the outcome of MaxFreq-MinInfreq-Identification.
	IdentifyResult = itemsets.IdentifyResult
	// Relation is an explicit relational instance for key discovery.
	Relation = keys.Relation
	// Coterie is a validated quorum system.
	Coterie = coterie.Coterie
	// SpaceMeter measures retained workspace bits.
	SpaceMeter = space.Meter
	// SpaceMode selects the execution regime of the logspace machinery.
	SpaceMode = logspace.Mode
	// PathAttr is a decomposition-tree node attribute tuple.
	PathAttr = logspace.Attr
	// FKResult is the outcome of a Fredman–Khachiyan decision.
	FKResult = fkdual.Result
	// Engine is a pluggable duality decision procedure (see internal/engine):
	// the paper's decomposition (serial and parallel), the logspace replay
	// walker, the Fredman–Khachiyan baselines, or a feature-dispatching
	// portfolio over them.
	Engine = engine.Engine
	// EngineSession pins per-engine scratch so repeated decisions from one
	// long-lived holder are allocation-free across calls. Not safe for
	// concurrent use; results are valid until the session's next call.
	EngineSession = engine.Session
)

// Non-duality reasons (see core.Reason).
const (
	ReasonDual                 = core.ReasonDual
	ReasonConstantMismatch     = core.ReasonConstantMismatch
	ReasonNotCrossIntersecting = core.ReasonNotCrossIntersecting
	ReasonHEdgeNotMinimal      = core.ReasonHEdgeNotMinimal
	ReasonGEdgeNotMinimal      = core.ReasonGEdgeNotMinimal
	ReasonNewTransversal       = core.ReasonNewTransversal
)

// Space regimes (see logspace.Mode).
const (
	// ModeReplay stores full node sets per level: fast, polynomial space.
	ModeReplay = logspace.ModeReplay
	// ModeStrict retains O(log n) bits per level: the paper's
	// DSPACE[log²n] regime.
	ModeStrict = logspace.ModeStrict
	// ModePipelined recomputes everything per query: the literal pipelined
	// construction of Lemma 3.1 (slow; tiny instances only).
	ModePipelined = logspace.ModePipelined
)

// Fingerprint is a canonical hypergraph digest (see
// (*Hypergraph).Fingerprint): equal exactly for equal edge families over
// the same universe, ignoring edge order and duplicates. The HTTP service
// keys its verdict cache on it.
type Fingerprint = hypergraph.Fingerprint

// NewHypergraph returns an empty hypergraph over the universe [0, n).
func NewHypergraph(n int) *Hypergraph { return hypergraph.New(n) }

// HypergraphFromEdges builds a hypergraph from explicit vertex lists.
func HypergraphFromEdges(n int, edges [][]int) (*Hypergraph, error) {
	return hypergraph.FromEdges(n, edges)
}

// NewSet returns the set over [0, n) containing the given elements.
func NewSet(n int, elems ...int) Set { return bitset.FromSlice(n, elems) }

// IsDual reports whether h = tr(g), i.e. whether the monotone DNFs of g
// and h are mutually dual. Both hypergraphs must be simple and share a
// universe. The decision runs on the default engine portfolio, which
// dispatches per instance shape (see Options.Engine to choose explicitly).
func IsDual(g, h *Hypergraph) (bool, error) {
	res, err := Explain(g, h)
	if err != nil {
		return false, err
	}
	return res.Dual, nil
}

// Options configures an explicit duality decision.
type Options struct {
	// Engine selects the decision procedure; nil uses the default portfolio.
	// Engines come from EngineByName, NewParallelEngine, or a long-lived
	// NewEngineSession.
	Engine Engine
}

// Explain decides duality like IsDual and returns the full verdict: the
// reason for a negative answer, the offending edges, and — when the
// tree/recursion stage ran — a new-transversal witness (plus the fail
// leaf's path descriptor for engines with the FailPath capability).
func Explain(g, h *Hypergraph) (*Result, error) {
	return ExplainWith(context.Background(), g, h, Options{})
}

// ExplainWith is Explain with cancellation and an explicit engine choice.
// The decision polls ctx at every tree-node (or recursion-step) boundary,
// so cancelling aborts it within one boundary and returns ctx's error. All
// engines agree on verdicts and classify negative answers with the same
// Reason taxonomy; they differ in search strategy, parallelism, and whether
// a FailPath accompanies new-transversal witnesses.
func ExplainWith(ctx context.Context, g, h *Hypergraph, opts Options) (*Result, error) {
	eng := opts.Engine
	if eng == nil {
		eng = engine.Default()
	}
	return eng.Decide(ctx, g, h)
}

// EngineByName resolves an engine registry name — one of EngineNames() —
// with "" meaning the default portfolio.
func EngineByName(name string) (Engine, error) { return engine.ByName(name) }

// EngineNames lists the available engine names, default first.
func EngineNames() []string { return engine.Names() }

// NewParallelEngine returns the parallel decomposition engine with the given
// goroutine bound (0 = GOMAXPROCS) — the practical counterpart of the
// parallel origin of the Boros–Makino method. Its verdicts match the serial
// engine's; on non-dual instances the witness may name a different
// (equally valid) fail leaf.
func NewParallelEngine(workers int) Engine { return engine.NewCoreParallel(workers) }

// NewEngineSession returns a session pinning eng's scratch (nil = default
// portfolio) for allocation-free repeated decisions by one holder.
func NewEngineSession(eng Engine) *EngineSession { return engine.NewSession(eng) }

// IsSelfDual reports whether h = tr(h) (e.g. coterie non-domination,
// majority functions).
func IsSelfDual(h *Hypergraph) (bool, error) { return IsDual(h, h) }

// IsAcyclic reports α-acyclicity of a hypergraph (GYO reduction) — the
// structural class for which DUAL is known to be tractable (paper §6).
func IsAcyclic(h *Hypergraph) bool { return h.IsAcyclic() }

// Degeneracy returns the min-degree-elimination degeneracy of a
// hypergraph, the other bounded parameter the paper's §6 names.
func Degeneracy(h *Hypergraph) int { return h.Degeneracy() }

// ArmstrongRelation constructs a relation whose minimal keys are exactly
// the given antichain — the Armstrong-relation problem the paper lists
// among the DUAL-equivalent database problems (§1).
func ArmstrongRelation(k *Hypergraph, attrs []string) (*Relation, error) {
	return keys.ArmstrongRelation(k, attrs)
}

// NewTransversal returns a transversal of g containing no edge of h, or
// ok = false when none exists (tr(g) ⊆ h). This is the witness operation
// the incremental border/key algorithms are built on; the result is not
// necessarily minimal (see MinimalizeTransversal). It runs the raw tree
// stage, the decomposition's serial walk.
func NewTransversal(g, h *Hypergraph) (w Set, ok bool, err error) {
	return core.NewTransversal(g, h)
}

// MinimalizeTransversal shrinks a transversal of h to a minimal one.
func MinimalizeTransversal(h *Hypergraph, t Set) Set { return h.MinimalizeTransversal(t) }

// MinimalTransversals computes tr(h) by DFS enumeration.
func MinimalTransversals(h *Hypergraph) *Hypergraph { return transversal.AsHypergraph(h) }

// EnumerateMinimalTransversals streams tr(h), stopping early when yield
// returns false or an error; a yield error terminates the enumeration and
// is returned verbatim, so streaming consumers (e.g. the HTTP service's
// /v1/transversals endpoint, see docs/API.md) can surface mid-stream
// failures instead of silently truncating. A cancelled ctx aborts the
// enumeration within one search-node boundary and returns ctx's error. A
// nil return means the stream completed or was stopped cleanly by yield.
func EnumerateMinimalTransversals(ctx context.Context, h *Hypergraph, yield func(Set) (bool, error)) error {
	return transversal.EnumerateContext(ctx, h, yield)
}

// MinimalTransversalsBerge computes tr(h) by Berge multiplication (the
// classical baseline).
func MinimalTransversalsBerge(h *Hypergraph) *Hypergraph { return transversal.Berge(h) }

// FKDecideA tests duality with Fredman–Khachiyan Algorithm A, returning the
// algorithm's native result (assignment-style witness, recursion counters).
// This is raw baseline access for the reproduction experiments; decision
// paths that want FK semantics under the uniform Result vocabulary should
// use ExplainWith with the "fk-a" engine instead.
func FKDecideA(g, h *Hypergraph) (*FKResult, error) { return fkdual.DecideA(g, h) }

// FKDecideB tests duality with the Algorithm-B-inspired variant (see
// FKDecideA for the engine-layer alternative).
func FKDecideB(g, h *Hypergraph) (*FKResult, error) { return fkdual.DecideB(g, h) }

// ParseDNF parses an irredundant monotone DNF ("a b + b c"; "0"/"1" for
// the constants).
func ParseDNF(s string) (*DNF, error) { return dnf.Parse(s) }

// AreDualDNF reports whether two monotone DNFs are mutually dual, aligning
// their variable universes first.
func AreDualDNF(f, g *DNF) (bool, error) {
	fh, gh, _ := dnf.Align(f, g)
	return IsDual(fh.Minimize(), gh.Minimize())
}

// DualDNF computes the dual formula f^d(x) = ¬f(¬x) as an irredundant
// monotone DNF.
func DualDNF(f *DNF) *DNF { return f.Dual() }

// PathNode recovers the attributes of the T(g,h) node addressed by the
// path descriptor pi (ok = false for "wrongpath"), in the given space
// regime with optional metering — the paper's pathnode procedure.
func PathNode(g, h *Hypergraph, pi []int, mode SpaceMode, meter *SpaceMeter) (PathAttr, bool, error) {
	return logspace.PathNode(g, h, pi, logspace.Options{Mode: mode, Meter: meter})
}

// FailCertificate searches T(g,h) for a fail leaf and returns its path
// descriptor (the O(log²n)-bit certificate of Theorem 5.1) and witness;
// found = false when tr(g) ⊆ h.
func FailCertificate(g, h *Hypergraph, mode SpaceMode, meter *SpaceMeter) (pi []int, witness Set, found bool, err error) {
	return logspace.FindFailPath(g, h, logspace.Options{Mode: mode, Meter: meter})
}

// VerifyCertificate checks a fail-path certificate (Lemma 5.1's checking
// procedure).
func VerifyCertificate(g, h *Hypergraph, pi []int, mode SpaceMode, meter *SpaceMeter) (bool, PathAttr, error) {
	return logspace.VerifyFailPath(g, h, pi, logspace.Options{Mode: mode, Meter: meter})
}

// NewSpaceMeter returns a fresh workspace meter.
func NewSpaceMeter() *SpaceMeter { return space.NewMeter() }

// NewDataset returns an empty transaction database over nItems items.
func NewDataset(nItems int) *Dataset { return itemsets.NewDataset(nItems) }

// ComputeBorders computes IS+(M, z) and IS−(M, z) by the incremental
// dualize-and-advance algorithm driven by the duality engine; its checks
// share one default-portfolio session.
func ComputeBorders(d *Dataset, z int) (*Borders, error) {
	return itemsets.ComputeBordersStreamWith(context.Background(), d, z, engine.NewSession(nil), nil)
}

// IdentifyBorders solves MaxFreq-MinInfreq-Identification (Proposition
// 1.1): are the claimed families g ⊆ IS− and h ⊆ IS+ complete?
func IdentifyBorders(d *Dataset, z int, g, h *Hypergraph) (*IdentifyResult, error) {
	return itemsets.IdentifyWith(context.Background(), d, z, g, h, engine.Default())
}

// NewRelation returns an empty relational instance with the given
// attribute names.
func NewRelation(attrs []string) (*Relation, error) { return keys.NewRelation(attrs) }

// MinimalKeys enumerates all minimal keys of a relational instance.
func MinimalKeys(r *Relation) *Hypergraph { return r.MinimalKeys() }

// AdditionalKey decides the additional-key-for-instance problem
// (Proposition 1.2) and returns a concrete new minimal key when one
// exists. The one decision runs on a memo-less session.
func AdditionalKey(r *Relation, known *Hypergraph) (*keys.AdditionalKeyResult, error) {
	return r.AdditionalKeyWith(context.Background(), known, engine.NewSessionMemo(nil, -1))
}

// NewCoterie validates a quorum hypergraph as a coterie.
func NewCoterie(h *Hypergraph) (*Coterie, error) { return coterie.New(h) }

// IsNonDominated decides coterie non-domination via self-duality
// (Proposition 1.3).
func IsNonDominated(c *Coterie) (bool, error) {
	return c.IsNonDominatedWith(context.Background(), engine.Default())
}
