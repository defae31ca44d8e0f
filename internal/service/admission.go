package service

// Admission control, deadline budgets, panic containment, and graceful
// drain — the resilience layer.
//
// The decision procedures behind every endpoint are quasi-polynomial in the
// worst case, so a single adversarial instance can pin a worker slot for a
// long time. Three mechanisms keep the server healthy anyway:
//
//   - Deadline budgets (budgetCtx): each endpoint derives a compute context
//     bounded by its configured timeout (Config.DecideTimeout and friends),
//     overridable per request with ?timeout_ms= up to Config.MaxTimeout.
//     The budget context's cancellation cause is errBudget, so the failure
//     paths can tell "the server's budget expired" (504, reason "timeout")
//     from "the client hung up" (silent) even though both surface as a
//     context error from the engine.
//
//   - Admission control (acquire): requests that miss the worker-pool fast
//     path park in a bounded queue — at most Config.QueueDepth waiters, for
//     at most Config.QueueWait each. Excess and expired waiters are shed
//     with 503 + Retry-After instead of queueing unboundedly; cache hits
//     and coalesced singleflight followers never claim a slot, so the
//     degraded mode keeps serving the hot working set at full speed.
//
//   - Panic containment: a panic in the kernel is recovered at the verdict
//     pipeline's one session boundary (batch.Scheduler's compute step), the
//     session is marked poisoned (the pool mints a replacement on Release,
//     so capacity self-heals), and the request gets a 500 with reason
//     "panic" while the process keeps serving. release poisons the sessions
//     of the application endpoints on the way out, and the ServeHTTP
//     middleware holds the last-resort boundary for every other panic.
//
// BeginDrain starts graceful shutdown: /readyz flips to 503 (load
// balancers stop routing), parked waiters fail fast with the shed
// taxonomy, new compute is refused, and in-flight work runs to completion
// under cmd/dualserved's drain grace before the listener closes.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"dualspace/internal/engine"
)

// Sentinel failures of the resilience layer. The first three are shed
// classes (503 + Retry-After); errBudget is the cancellation cause
// installed by budgetCtx so context errors can be attributed to the
// server's own deadline (504) rather than the client's disconnect.
var (
	errQueueFull = errors.New("server overloaded: admission queue full")
	errQueueWait = errors.New("server overloaded: no worker slot within the queue-wait bound")
	errDraining  = errors.New("server draining")
	errBudget    = errors.New("compute budget exhausted")
)

// Wire reasons of the JSON error taxonomy (docs/API.md).
const (
	reasonBadRequest    = "bad_request"
	reasonLimit         = "limit"
	reasonUnprocessable = "unprocessable"
	reasonTimeout       = "timeout"
	reasonShed          = "shed"
	reasonPanic         = "panic"
)

// budgetCtx derives the endpoint's compute-budget context: d (the
// endpoint's configured timeout; 0 = none), overridden by a ?timeout_ms=
// query clamped to Config.MaxTimeout. The cancel func must always be
// called; the error reports a malformed ?timeout_ms= (a 400).
func (s *Server) budgetCtx(r *http.Request, d time.Duration) (context.Context, context.CancelFunc, error) {
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		ms, err := strconv.Atoi(q)
		if err != nil || ms < 1 {
			return nil, nil, fmt.Errorf("bad timeout_ms %q", q)
		}
		d = time.Duration(ms) * time.Millisecond
		if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), d, errBudget)
	return ctx, cancel, nil
}

// acquire claims a worker-pool slot under admission control. The fast path
// never queues; a miss parks in the bounded wait queue until a slot frees,
// the bounded wait expires, the request's (budget) context fires, or drain
// begins. The returned error is one of the shed sentinels, errBudget (via
// context cause), or the plain context error of a vanished client —
// fail maps each onto the wire. release must be called iff err is
// nil.
func (s *Server) acquire(ctx context.Context) (*engine.Session, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if sess, ok := s.pool.TryAcquire(); ok {
		return sess, nil
	}
	if s.queueWaiters.Add(1) > int64(s.cfg.QueueDepth) {
		s.queueWaiters.Add(-1)
		return nil, errQueueFull
	}
	defer s.queueWaiters.Add(-1)
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case sess := <-s.pool.Chan():
		return sess, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-t.C:
		return nil, errQueueWait
	case <-s.drainCh:
		return nil, errDraining
	}
}

// release returns a worker slot. It doubles as the session-safety net for
// panics unwinding through a holder (every call site is deferred): recover
// stops the unwind long enough to poison the session — scratch a panic
// tore through must not serve again — then re-panics for the boundary
// above (the ServeHTTP middleware) to classify.
func (s *Server) release(sess *engine.Session) {
	if v := recover(); v != nil {
		sess.MarkPoisoned()
		s.pool.Release(sess)
		panic(v)
	}
	s.pool.Release(sess)
}

// acquireCompute is batch.Config.Acquire, the verdict pipeline's admission
// stage: acquire, counting every admitted compute as a decomposition.
func (s *Server) acquireCompute(ctx context.Context) (*engine.Session, error) {
	sess, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	s.decompositions.Add(1)
	if s.testHookSlotAcquired != nil {
		s.testHookSlotAcquired()
	}
	return sess, nil
}

// onPanic is batch.Config.OnPanic: the pipeline has already poisoned the
// session and built the PanicError; the server adds its process-wide
// counter and the stack record.
func (s *Server) onPanic(v any, stack []byte) {
	s.panics.Add(1)
	s.logPanic("panic contained at session boundary", v, stack)
}

// logPanic emits the slog stack record. Panics are never silent: without a
// configured access logger they go to the default slog handler.
func (s *Server) logPanic(msg string, v any, stack []byte) {
	lg := s.obs.logger
	if lg == nil {
		lg = slog.Default()
	}
	lg.LogAttrs(context.Background(), slog.LevelError, msg,
		slog.Any("value", v), slog.String("stack", string(stack)))
}

// statusOf maps a failed request onto its wire status: a contained panic
// is a 500, a shed a 503, an exhausted budget a 504, a vanished client 0
// (there is no one to answer), anything else the 422 of a semantic
// rejection. ctx is the budget context the request ran under.
func statusOf(ctx context.Context, err error) int {
	var pe *engine.PanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.Is(err, errQueueFull) || errors.Is(err, errQueueWait) || errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case budgetExpired(ctx) && (errors.Is(err, errBudget) || errors.Is(err, context.DeadlineExceeded)):
		return http.StatusGatewayTimeout
	case ctx.Err() != nil && !budgetExpired(ctx):
		return 0
	}
	return http.StatusUnprocessableEntity
}

// inSlot runs one slot-holding request: derive the endpoint's compute
// budget (a malformed ?timeout_ms= is a 400), claim a worker slot under
// admission control, and run the handler's work on the slot's session. A
// failed admission or a non-nil error from run is answered by fail; a run
// that returns nil has answered the request itself.
func (s *Server) inSlot(w http.ResponseWriter, r *http.Request, budget time.Duration, run func(context.Context, *engine.Session) error) {
	ctx, cancel, err := s.budgetCtx(r, budget)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	sess, err := s.acquire(ctx)
	if err != nil {
		s.fail(w, r, ctx, err)
		return
	}
	// Deferred directly here, never behind a closure: release's recover
	// only sees a panic when it is the deferred call itself.
	defer s.release(sess)
	if s.testHookSlotAcquired != nil {
		s.testHookSlotAcquired()
	}
	if err := run(ctx, sess); err != nil {
		s.fail(w, r, ctx, err)
		return
	}
	if ai := accessFrom(r.Context()); ai.outcome == "" {
		ai.outcome = "computed"
	}
}

// classify attributes a failed request to statusOf's class and returns
// that status: sheds and timeouts count under the endpoint's series, a
// vanished client (status 0) under cancelled, and the access record takes
// the class as its outcome. fail and streamEnd are its two callers, so an
// HTTP error and a stream's terminal record are counted alike.
func (s *Server) classify(r *http.Request, ctx context.Context, err error) int {
	ai := accessFrom(r.Context())
	status := statusOf(ctx, err)
	switch status {
	case http.StatusServiceUnavailable:
		if c := s.obs.sheds[endpointOf(r.URL.Path)]; c != nil {
			c.Add(1)
		}
		ai.outcome = "shed"
	case http.StatusGatewayTimeout:
		if c := s.obs.timeouts[endpointOf(r.URL.Path)]; c != nil {
			c.Add(1)
		}
		ai.outcome = "timeout"
	case http.StatusInternalServerError:
		ai.outcome = "panic"
	case 0:
		s.cancelled.Add(1)
		ai.outcome = "cancelled"
	default:
		ai.outcome = "error"
	}
	return status
}

// fail answers a failed request with statusOf's status: sheds carry
// Retry-After, a vanished client gets nothing.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, ctx context.Context, err error) {
	switch status := s.classify(r, ctx, err); status {
	case 0: // no one to answer
	case http.StatusUnprocessableEntity:
		s.writeError(w, status, err)
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", s.retryAfter)
		fallthrough
	default:
		writeErrorReason(w, status, reasonForStatus(status), err)
	}
}

// streamEnd classifies a stream that stopped on err after its status line
// was sent. It returns the reason for the terminal record — the taxonomy
// class of a panic, shed or timeout, empty for a semantic failure — and
// live == false when the client is gone and no terminal record can reach
// it.
func (s *Server) streamEnd(r *http.Request, ctx context.Context, err error) (reason string, live bool) {
	status := s.classify(r, ctx, err)
	return inBandReason(status), status != 0
}

// inBandReason is the reason an in-band failure (a batch error row or a
// terminal record) carries for statusOf's status: the resilience classes
// name themselves, a semantic rejection carries none.
func inBandReason(status int) string {
	switch status {
	case http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return reasonForStatus(status)
	}
	return ""
}

// budgetExpired reports whether ctx failed because its compute budget ran
// out (as opposed to the client disconnecting).
func budgetExpired(ctx context.Context) bool {
	return ctx.Err() != nil && errors.Is(context.Cause(ctx), errBudget)
}

// BeginDrain flips the server into drain mode, once: /readyz answers 503
// (so load balancers stop routing), waiters parked in acquire fail fast
// with the shed taxonomy, new compute is refused, and the streaming
// endpoints end their streams with a clean shed terminal record at the
// next yield. Cache hits keep being served — the socket is still open and
// they cost no worker slot. Safe to call from any goroutine, any number
// of times.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// Draining reports whether BeginDrain has run.
func (s *Server) Draining() bool { return s.draining.Load() }
