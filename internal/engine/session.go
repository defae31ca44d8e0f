package engine

import (
	"context"

	"dualspace/internal/core"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
)

// Session is the per-holder reuse layer: it wraps an engine together with a
// pinned core.Decider (incidence indexes, classification scratch, frame
// stack, witness and result storage), so that repeated decisions from one
// long-lived holder — a service worker, an incremental border/key loop, a
// CLI batch — are allocation-free across calls, not just within one. Every
// built-in engine runs on the pinned Decider: the serial walk on its
// scratch, the parallel search and the logspace walker on its indexes
// after its precheck, the FK recursion after its precheck.
//
// A Session is itself an Engine, so it can be handed to any engine-accepting
// call site. It is NOT safe for concurrent use, and results returned through
// it alias the pinned storage: they are valid until the Session's next call,
// so holders that retain verdicts (e.g. a cache) must Clone them.
//
// Sessions carry a cross-node subinstance memo by default (core/memo.go):
// decomposition subtrees verified all-done are skipped when the same
// projected subinstance recurs — across branches of one tree and across the
// session's lifetime of decisions, the access pattern of the incremental
// border/key/coterie loops and of repeated service traffic. MemoStats
// exposes the counters; NewSessionMemo sizes or disables the table.
type Session struct {
	eng Engine
	dec *core.Decider
	// rec is the session's attached stage-timing recorder — &recStore once
	// Recorder() has run, or an external one via SetRecorder. Like the
	// scratch it times, it is owned by whoever holds the session. The
	// storage lives in the Session itself so that attaching (even from a
	// //dual:allocfree caller like the verdict pipeline's compute step)
	// allocates nothing.
	rec      *obs.Recorder
	recStore obs.Recorder
	// poisoned marks a session a panic escaped from: its pinned scratch may
	// be mid-mutation, so it must not serve another decision. Only the
	// holder touches the flag (mark on recover, read on Release), and a
	// holder is single-goroutine by the session contract, so a plain bool
	// suffices.
	poisoned bool
}

// NewSession returns a session driving eng (nil = the default portfolio),
// with a default-sized subinstance memo.
func NewSession(eng Engine) *Session {
	return NewSessionMemo(eng, 0)
}

// NewSessionMemo is NewSession with an explicit memo bound: entries > 0
// sizes the table, entries == 0 applies core.DefaultMemoEntries, and a
// negative value disables memoization entirely.
func NewSessionMemo(eng Engine, entries int) *Session {
	if eng == nil {
		eng = Default()
	}
	s := &Session{eng: eng, dec: core.NewDecider()}
	if entries >= 0 {
		s.dec.EnableMemo(entries)
	}
	return s
}

// MemoStats snapshots the session's subinstance-memo counters (zeros when
// the memo is disabled). Safe to call concurrently with decisions.
func (s *Session) MemoStats() core.MemoStats { return s.dec.MemoStats() }

// Recorder returns the session's pinned stage-timing recorder, creating and
// attaching one on first use. Holders that consume per-decision timings
// (the verdict pipeline's compute step in internal/batch) Reset it
// before each decision and read it out after; once attached, every decision
// on the session records stages, at the cost of a few clock reads and zero
// allocations. The FK recursion records only index sync and precheck; the
// parallel search adds walk and walk_steals.
func (s *Session) Recorder() *obs.Recorder {
	if s.rec == nil {
		s.rec = &s.recStore
		s.dec.SetRecorder(s.rec)
	}
	return s.rec
}

// SetRecorder attaches an externally owned recorder (nil detaches both an
// external and a Recorder()-created one).
func (s *Session) SetRecorder(r *obs.Recorder) {
	s.rec = r
	s.dec.SetRecorder(r)
}

// MarkPoisoned flags the session as unusable: a panic escaped a decision on
// it, so its pinned scratch cannot be trusted. The holder calls this from
// its recover() boundary before handing the session back; SessionPool's
// Release replaces a poisoned session with a fresh one.
func (s *Session) MarkPoisoned() { s.poisoned = true }

// Poisoned reports whether MarkPoisoned has been called.
func (s *Session) Poisoned() bool { return s.poisoned }

// Engine returns the engine this session drives by default.
func (s *Session) Engine() Engine { return s.eng }

// Name reports the wrapped engine's name.
func (s *Session) Name() string { return s.eng.Name() }

// Decide decides with the session's engine on the pinned scratch.
//
//dual:allocfree
func (s *Session) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return s.DecideWith(ctx, s.eng, g, h)
}

// DecideWith decides with an explicit engine (e.g. a per-request override)
// on the session's pinned Decider. An Engine implemented outside this
// package has no decision on a Decider and decides through its own Decide.
//
//dual:allocfree
func (s *Session) DecideWith(ctx context.Context, eng Engine, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	switch e := eng.(type) {
	case *builtin:
		return e.run(s.dec, ctx, g, h)
	case *Portfolio:
		return e.run(s.dec, ctx, g, h)
	}
	return eng.Decide(ctx, g, h)
}

// TrSubset decides tr(g) ⊆ h on the pinned serial walker (see
// core.TrSubset). The question is the raw tree stage, which every engine
// would answer alike, so the session's engine does not enter into it.
//
//dual:allocfree
func (s *Session) TrSubset(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return s.dec.TrSubsetContext(ctx, g, h)
}
