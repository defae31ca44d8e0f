package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"
)

// arm enables inj for the test and disarms it on cleanup, so no test can
// leak a process-global injector into the rest of the run.
func arm(t *testing.T, inj *Injector) {
	t.Helper()
	Enable(inj)
	t.Cleanup(Disable)
}

func TestFireDisabledIsNoop(t *testing.T) {
	Disable()
	for _, p := range Points() {
		if err := Fire(context.Background(), p); err != nil {
			t.Fatalf("Fire(%s) disabled = %v", p, err)
		}
	}
	if Enabled() {
		t.Fatal("Enabled() with no injector armed")
	}
}

func TestEveryNIsDeterministic(t *testing.T) {
	arm(t, New(1, Rule{Point: PointDecide, Action: ActionError, Every: 3}))
	before := Fired(PointDecide)
	var errs int
	for i := 1; i <= 12; i++ {
		err := Fire(context.Background(), PointDecide)
		if fires := i%3 == 0; fires != (err != nil) {
			t.Fatalf("pass %d: err=%v, want fire=%v", i, err, fires)
		}
		if err != nil {
			errs++
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error %v does not wrap ErrInjected", err)
			}
		}
	}
	if errs != 4 {
		t.Fatalf("every=3 fired %d times in 12 passes, want 4", errs)
	}
	if got := Fired(PointDecide) - before; got != 4 {
		t.Fatalf("Fired delta = %d, want 4", got)
	}
}

func TestSeededProbabilityReplays(t *testing.T) {
	run := func(seed int64) []bool {
		inj := New(seed, Rule{Point: PointCacheLookup, Action: ActionCancel, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.fire(context.Background(), PointCacheLookup) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pass %d differs under the same seed", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times — trigger looks constant", fires, len(a))
	}
}

func TestActionPanicCarriesPoint(t *testing.T) {
	arm(t, New(1, Rule{Point: PointCacheLookup, Action: ActionPanic, Every: 1}))
	defer func() {
		v := recover()
		p, ok := v.(*Panic)
		if !ok || p.Point != PointCacheLookup {
			t.Fatalf("recovered %v, want *Panic at cache_lookup", v)
		}
	}()
	_ = Fire(context.Background(), PointCacheLookup)
	t.Fatal("panic rule did not panic")
}

func TestActionCancel(t *testing.T) {
	arm(t, New(1, Rule{Point: PointDecide, Action: ActionCancel, Every: 1}))
	if err := Fire(context.Background(), PointDecide); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel rule returned %v", err)
	}
}

func TestActionDelayHonorsContext(t *testing.T) {
	arm(t, New(1, Rule{Point: PointStreamWrite, Action: ActionDelay, Delay: time.Minute, Every: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Fire(ctx, PointStreamWrite)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delayed Fire = %v, want ctx deadline", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("delay ignored the context")
	}
}

func TestActionDelayElapses(t *testing.T) {
	arm(t, New(1, Rule{Point: PointStreamWrite, Action: ActionDelay, Delay: time.Millisecond, Every: 1}))
	start := time.Now()
	if err := Fire(context.Background(), PointStreamWrite); err != nil {
		t.Fatalf("elapsed delay returned %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay rule did not sleep")
	}
}

func TestParseSpec(t *testing.T) {
	good := map[string]Rule{
		"decide:panic:every=7":        {Point: PointDecide, Action: ActionPanic, Every: 7},
		"cache_lookup:error":          {Point: PointCacheLookup, Action: ActionError, Every: 1},
		"cache_lookup:cancel:p=0.25":  {Point: PointCacheLookup, Action: ActionCancel, Prob: 0.25},
		"stream_write:delay=20ms:p=1": {Point: PointStreamWrite, Action: ActionDelay, Delay: 20 * time.Millisecond, Prob: 1},
		" decide:error:every=2 ":      {Point: PointDecide, Action: ActionError, Every: 2},
		"decide:panic,decide:panic":   {}, // multi-clause: checked separately below
	}
	for spec, want := range good {
		inj, err := ParseSpec(spec, 1)
		if err != nil {
			t.Errorf("ParseSpec(%q) = %v", spec, err)
			continue
		}
		if spec == "decide:panic,decide:panic" {
			if n := len(inj.rules[PointDecide]); n != 2 {
				t.Errorf("ParseSpec(%q): %d rules at decide, want 2", spec, n)
			}
			continue
		}
		if got := inj.rules[want.Point][0].Rule; got != want {
			t.Errorf("ParseSpec(%q) rule = %+v, want %+v", spec, got, want)
		}
	}
	bad := []string{
		"",                     // empty spec
		"decide",               // missing action
		"nowhere:panic",        // unknown point
		"decide:explode",       // unknown action
		"decide:delay",         // delay without duration
		"decide:delay=bogus",   // unparsable duration
		"decide:delay=-5ms",    // non-positive duration
		"decide:panic=3ms",     // =value on a non-delay action
		"decide:panic:every=0", // every below 1
		"decide:panic:p=0",     // p out of (0, 1]
		"decide:panic:p=1.5",   // p out of (0, 1]
		"decide:panic:often=2", // unknown trigger key
		"decide:panic:every",   // trigger without value
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec, 1); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", spec)
		}
	}
}

func TestPointNamesRoundTrip(t *testing.T) {
	for _, p := range Points() {
		inj, err := ParseSpec(p.String()+":error", 1)
		if err != nil {
			t.Fatalf("point name %q does not parse: %v", p, err)
		}
		if len(inj.rules[p]) != 1 {
			t.Fatalf("point name %q parsed to the wrong point", p)
		}
	}
	if Point(-1).String() == "" || Point(99).String() == "" {
		t.Error("out-of-range points must still render")
	}
}

func TestFiredTotalMonotoneAcrossEnableCycles(t *testing.T) {
	before := FiredTotal()
	arm(t, New(1, Rule{Point: PointDecide, Action: ActionError, Every: 1}))
	_ = Fire(context.Background(), PointDecide)
	Disable()
	if err := Fire(context.Background(), PointDecide); err != nil {
		t.Fatalf("Fire after Disable = %v", err)
	}
	if got := FiredTotal() - before; got != 1 {
		t.Fatalf("FiredTotal delta = %d, want 1 (monotone, unaffected by Disable)", got)
	}
}
