package engine

import "fmt"

// PanicError wraps a panic recovered at a serving boundary — the verdict
// pipeline's compute step (batch.Scheduler) or the HTTP middleware — so
// panic containment has one error type every layer can
// classify (the service maps it to a 500 with the "panic" reason). The
// session the panic escaped from must be considered poisoned: its pinned
// scratch may be mid-mutation, so the boundary marks it
// (Session.MarkPoisoned) and the pool replaces it on Release.
type PanicError struct {
	// Val is the recovered panic value.
	Val any
	// Stack is the panicking goroutine's stack at recovery time
	// (runtime/debug.Stack), logged by the containment site.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("internal panic: %v", e.Val) }
