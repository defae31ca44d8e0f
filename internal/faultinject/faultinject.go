// Package faultinject is the repo's stdlib-only fault-injection harness:
// named fault points compiled into the serving hot paths that cost one
// atomic pointer load and a nil check when no injector is armed, and fire
// configured faults — panic, delay, forced cancel, injected error — when
// one is. The chaos suite (internal/service/chaos_test.go) and the CI
// chaos job arm it to prove the resilience layer's claims: the process
// survives panics, poisoned sessions are replaced, sheds stay within their
// bounds, and stalled or failing stream writes cannot wedge a handler.
//
// Faults are deterministic by construction: an every=N trigger fires on
// exactly every Nth pass through its point (per-rule atomic counter), and
// a p=F trigger draws from a rand.Rand seeded by the injector's seed, so a
// chaos run replays identically under the same seed and arrival order.
// The package holds ONE process-global armed injector (Enable/Disable):
// fault injection is a whole-process testing mode, not a per-request
// feature, and the global keeps the disabled fast path free of any
// plumbing through the serving layers.
//
// The wire into production code is a single call:
//
//	if err := faultinject.Fire(ctx, faultinject.PointDecide); err != nil {
//		return nil, err
//	}
//
// Fire returns nil when disabled or when no rule triggers; a delay rule
// sleeps (honoring ctx) and then returns nil; cancel and error rules
// return an error the caller propagates like any other failure; a panic
// rule panics with a *Panic value, exercising the recover() boundaries.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one fault site compiled into the serving layers.
type Point int

const (
	// PointDecide fires in the verdict pipeline's guarded compute step
	// (batch.Scheduler, every path: /v1/decide, /v1/cluster/verdict and
	// /v1/batch entries), on the held session behind its panic boundary,
	// before the engine runs.
	PointDecide Point = iota
	// PointCacheLookup fires in the verdict pipeline's cache-lookup stage
	// (no worker slot held).
	PointCacheLookup
	// PointStreamWrite fires in the NDJSON stream writers (/v1/transversals,
	// /v1/mine, /v1/batch rows) before each record is encoded: a delay rule
	// is a slow client-facing write, an error rule a failing one.
	PointStreamWrite
	numPoints
)

var pointNames = [numPoints]string{
	PointDecide:      "decide",
	PointCacheLookup: "cache_lookup",
	PointStreamWrite: "stream_write",
}

// String returns the point's spec-grammar name.
func (p Point) String() string {
	if p < 0 || p >= numPoints {
		return fmt.Sprintf("point(%d)", int(p))
	}
	return pointNames[p]
}

// Points lists every fault point, in a fixed order — the metrics bridges
// iterate it to preregister one injected-faults counter per point.
func Points() []Point {
	out := make([]Point, numPoints)
	for i := range out {
		out[i] = Point(i)
	}
	return out
}

// Action is what a triggered rule does.
type Action int

const (
	// ActionPanic panics with a *Panic carrying the point.
	ActionPanic Action = iota
	// ActionDelay sleeps the rule's Delay (honoring ctx) and succeeds.
	ActionDelay
	// ActionCancel returns context.Canceled, a forced mid-work cancel.
	ActionCancel
	// ActionError returns an error wrapping ErrInjected.
	ActionError
)

var actionNames = map[Action]string{
	ActionPanic: "panic", ActionDelay: "delay",
	ActionCancel: "cancel", ActionError: "error",
}

func (a Action) String() string { return actionNames[a] }

// ErrInjected is the sentinel wrapped by every ActionError failure, so
// tests and retry loops can tell an injected fault from an organic one.
var ErrInjected = errors.New("injected fault")

// Panic is the value injected panics carry; recover() boundaries and the
// chaos suite recognize it by type.
type Panic struct{ Point Point }

func (p *Panic) String() string { return "injected panic at " + p.Point.String() }

// Rule arms one fault at one point. Exactly one trigger applies: Every > 0
// fires on every Every-th pass through the point (deterministic, counted
// per rule); otherwise Prob in (0, 1] fires with that probability from the
// injector's seeded source. Delay is the sleep for ActionDelay.
type Rule struct {
	Point  Point
	Action Action
	Every  int
	Prob   float64
	Delay  time.Duration
}

// ruleState is one armed rule plus its pass counter.
type ruleState struct {
	Rule
	calls atomic.Int64
}

// Injector is an armed fault configuration. Build one with New or
// ParseSpec and arm it with Enable; it is safe for concurrent Fire calls.
type Injector struct {
	rules [numPoints][]*ruleState
	mu    sync.Mutex // guards rng
	rng   *rand.Rand
}

// New builds an injector over rules, drawing probabilistic triggers from a
// source seeded with seed.
func New(seed int64, rules ...Rule) *Injector {
	inj := &Injector{rng: rand.New(rand.NewSource(seed))}
	for _, r := range rules {
		if r.Point < 0 || r.Point >= numPoints {
			continue
		}
		inj.rules[r.Point] = append(inj.rules[r.Point], &ruleState{Rule: r})
	}
	return inj
}

// active is the process-global armed injector; nil when disabled. Fire's
// disabled fast path is this load plus a nil check.
var active atomic.Pointer[Injector]

// fired counts triggered faults per point for the process lifetime
// (monotone across Enable/Disable cycles — the /metricsz contract).
var fired [numPoints]atomic.Int64

// Enable arms inj process-wide (nil disables, like Disable).
func Enable(inj *Injector) { active.Store(inj) }

// Disable disarms fault injection; Fire returns to its no-op path.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is armed.
func Enabled() bool { return active.Load() != nil }

// Fired returns the number of faults triggered at p since process start.
func Fired(p Point) int64 {
	if p < 0 || p >= numPoints {
		return 0
	}
	return fired[p].Load()
}

// FiredTotal sums Fired over every point.
func FiredTotal() int64 {
	var n int64
	for i := range fired {
		n += fired[i].Load()
	}
	return n
}

// Fire runs the armed faults for point p, if any. With no injector armed
// it is a nil check; with one armed but no rule triggering it returns nil.
// A triggered delay sleeps then returns nil (or ctx.Err() if ctx fires
// first); cancel and error rules return their error; a panic rule does not
// return.
func Fire(ctx context.Context, p Point) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.fire(ctx, p)
}

func (inj *Injector) fire(ctx context.Context, p Point) error {
	if p < 0 || p >= numPoints {
		return nil
	}
	for _, rs := range inj.rules[p] {
		if !inj.triggers(rs) {
			continue
		}
		fired[p].Add(1)
		switch rs.Action {
		case ActionPanic:
			panic(&Panic{Point: p})
		case ActionDelay:
			if err := sleep(ctx, rs.Delay); err != nil {
				return err
			}
		case ActionCancel:
			return context.Canceled
		case ActionError:
			return fmt.Errorf("%w at %s", ErrInjected, p)
		}
	}
	return nil
}

// triggers decides whether one rule fires on this pass.
func (inj *Injector) triggers(rs *ruleState) bool {
	if rs.Every > 0 {
		return rs.calls.Add(1)%int64(rs.Every) == 0
	}
	if rs.Prob <= 0 {
		return false
	}
	inj.mu.Lock()
	v := inj.rng.Float64()
	inj.mu.Unlock()
	return v < rs.Prob
}

// sleep blocks for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ParseSpec builds an injector from the -faults grammar: comma-separated
// clauses, each
//
//	point:action[=delay][:every=N|:p=F]
//
// where point is decide | cache_lookup | stream_write,
// action is panic | cancel | error | delay=DURATION (Go duration syntax),
// and the optional trigger defaults to every=1 (fire on every pass).
//
// Examples:
//
//	decide:panic:every=7
//	stream_write:delay=20ms:p=0.25
//	decide:panic:every=7,cache_lookup:delay=1ms
func ParseSpec(spec string, seed int64) (*Injector, error) {
	var rules []Rule
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseClause(clause)
		if err != nil {
			return nil, fmt.Errorf("fault clause %q: %w", clause, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("empty fault spec")
	}
	return New(seed, rules...), nil
}

func parseClause(clause string) (Rule, error) {
	parts := strings.Split(clause, ":")
	if len(parts) < 2 {
		return Rule{}, errors.New("want point:action[:trigger]")
	}
	r := Rule{Every: 1}
	point := -1
	for i, name := range pointNames {
		if name == parts[0] {
			point = i
		}
	}
	if point < 0 {
		return Rule{}, fmt.Errorf("unknown point %q", parts[0])
	}
	r.Point = Point(point)
	action, delayText, hasDelay := strings.Cut(parts[1], "=")
	switch action {
	case "panic":
		r.Action = ActionPanic
	case "cancel":
		r.Action = ActionCancel
	case "error":
		r.Action = ActionError
	case "delay":
		r.Action = ActionDelay
		if !hasDelay {
			return Rule{}, errors.New("delay needs a duration: delay=20ms")
		}
		d, err := time.ParseDuration(delayText)
		if err != nil || d <= 0 {
			return Rule{}, fmt.Errorf("bad delay %q", delayText)
		}
		r.Delay = d
	default:
		return Rule{}, fmt.Errorf("unknown action %q", action)
	}
	if r.Action != ActionDelay && hasDelay {
		return Rule{}, fmt.Errorf("action %q takes no =value", action)
	}
	for _, opt := range parts[2:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Rule{}, fmt.Errorf("bad trigger %q", opt)
		}
		switch key {
		case "every":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("bad every %q", val)
			}
			r.Every, r.Prob = n, 0
		case "p":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f > 1 {
				return Rule{}, fmt.Errorf("bad p %q", val)
			}
			r.Every, r.Prob = 0, f
		default:
			return Rule{}, fmt.Errorf("unknown trigger %q", key)
		}
	}
	return r, nil
}
