package obs

// Stage-level decision tracing. A Recorder captures where one decision's
// time went — the coarse, disjoint stages of the serving pipeline — on a
// fixed array of nanosecond accumulators. It is designed for the kernel's
// zero-allocation contract (DESIGN.md §10):
//
//   - a nil *Recorder is the disabled state: every instrumentation site
//     guards with `if rec != nil` before touching the clock, so a disabled
//     recorder costs one predictable branch and no time.Now() calls;
//   - an enabled Recorder allocates nothing per decision: Add is one array
//     add, Reset re-zeroes the array in place. Long-lived holders
//     (engine.Session pins one per worker) reuse the same Recorder across
//     every decision they serve.
//
// The stages are disjoint wall-clock segments, so they sum to at most the
// decision's wall time: serialWalk's in-walk memo consults are accumulated
// under StageMemo and subtracted from StageWalk by the Decider
// (core/decider.go), and the serving layer measures parse / canonicalize /
// cache-lookup outside the engine call.

import "time"

// Stage identifies one segment of the decision pipeline.
type Stage uint8

const (
	// StageParse is request decoding plus hgio edge-text parsing.
	StageParse Stage = iota
	// StageCanon is canonicalization and fingerprinting of the pair.
	StageCanon
	// StageCacheLookup is the sharded verdict-cache probe.
	StageCacheLookup
	// StagePrecheck is the index-driven precondition check (simplicity,
	// cross-intersection, minimality).
	StagePrecheck
	// StageIndexSync is incidence-index (re)binding plus the scratch
	// syncTo at the walk root.
	StageIndexSync
	// StageWalk is the decomposition-tree DFS, net of memo consults.
	StageWalk
	// StageMemo is the cross-node subinstance-memo key encoding and
	// lookup time spent inside the walk.
	StageMemo
	// StageWalkSteals is the scratch re-synchronization time the parallel
	// search's workers spend adopting stolen subtree frames (a stolen frame
	// pays a full syncTo where an owner-reclaimed one descends by diffs).
	// Like StageMemo it is carved out of StageWalk; unlike the serial
	// stages it aggregates across workers, so on multi-core runs walk +
	// walk_steals can exceed the walk's wall clock.
	StageWalkSteals

	numStages
)

// NumStages is the number of traced stages.
const NumStages = int(numStages)

var stageNames = [NumStages]string{
	"parse", "canonicalize", "cache_lookup", "precheck", "index_sync", "walk", "memo", "walk_steals",
}

// String returns the stage's snake_case name (the metric label value and
// the trace-block field prefix).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames lists every stage name in Stage order.
func StageNames() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}

// StageTimings is one decision's per-stage nanosecond totals.
type StageTimings [NumStages]int64

// Total sums the stages.
func (t *StageTimings) Total() time.Duration {
	var sum int64
	for _, ns := range t {
		sum += ns
	}
	return time.Duration(sum)
}

// Recorder accumulates one decision's stage timings. All methods are
// nil-safe (a nil Recorder records nothing); a non-nil Recorder is NOT safe
// for concurrent use — it is owned by whoever owns the Session/Decider it
// is attached to, exactly like the pinned scratch.
type Recorder struct {
	t StageTimings
}

// Reset zeroes the accumulators (call before each decision whose timings
// will be read out).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.t = StageTimings{}
}

// Add accumulates d under stage s.
func (r *Recorder) Add(s Stage, d time.Duration) {
	if r == nil {
		return
	}
	r.t[s] += int64(d)
}

// Get returns the accumulated nanoseconds for stage s (0 on a nil
// Recorder).
func (r *Recorder) Get(s Stage) int64 {
	if r == nil {
		return 0
	}
	return r.t[s]
}

// Timings copies the current accumulators out.
func (r *Recorder) Timings() StageTimings {
	if r == nil {
		return StageTimings{}
	}
	return r.t
}

// engineDecideObs is one engine's aggregate decision observables.
type engineDecideObs struct {
	wall   *Histogram
	stages [NumStages]*Histogram
}

// DecideMetrics aggregates decisions into per-engine histograms: one
// wall-time histogram per engine plus one duration histogram per (engine,
// stage). Every series is preregistered in NewDecideMetrics, so Observe —
// called from the serving hot paths, including the verdict pipeline's
// //dual:allocfree compute step — is map reads and atomic adds only.
type DecideMetrics struct {
	byEngine map[string]*engineDecideObs
}

// NewDecideMetrics registers the decision histograms for every engine name
// under reg and returns the preresolved update handle.
func NewDecideMetrics(reg *Registry, engines []string) *DecideMetrics {
	m := &DecideMetrics{byEngine: make(map[string]*engineDecideObs, len(engines))}
	for _, name := range engines {
		eo := &engineDecideObs{
			wall: reg.Histogram("dualspace_decide_duration_seconds",
				"Engine-side wall time of one decision (cache hits excluded).",
				L("engine", name)),
		}
		for s := Stage(0); s < numStages; s++ {
			eo.stages[s] = reg.Histogram("dualspace_decide_stage_duration_seconds",
				"Per-stage decision time; stages are disjoint and sum to at most the decision wall time.",
				L("engine", name), L("stage", s.String()))
		}
		m.byEngine[name] = eo
	}
	return m
}

// Observe records one completed decision: wall time under the engine's
// histogram plus every nonzero captured stage. rec may be nil (wall only);
// engines not preregistered are dropped. Allocation-free.
func (m *DecideMetrics) Observe(engine string, wall time.Duration, rec *Recorder) {
	eo := m.byEngine[engine]
	if eo == nil {
		return
	}
	eo.wall.Observe(wall)
	if rec == nil {
		return
	}
	for s := 0; s < NumStages; s++ {
		if ns := rec.t[s]; ns > 0 {
			eo.stages[s].Observe(time.Duration(ns))
		}
	}
}
