package service

// /v1/transversals: chunked streaming enumeration of tr(H). Each minimal
// transversal is written (and flushed) as one NDJSON record the moment the
// enumerator yields it, so clients see results with enumeration delay
// rather than completion delay; a terminal record distinguishes clean
// completion, truncation at the limit knob, and mid-stream failure — the
// error path EnumerateContext's fallible yield exists for.

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"dualspace/internal/bitset"
	"dualspace/internal/engine"
	"dualspace/internal/faultinject"
	"dualspace/internal/hgio"
	"dualspace/internal/transversal"
)

// streamWriteTimeout bounds each streamed write (record or terminal), so a
// client that stops reading releases its worker-pool slot once the TCP
// buffers fill instead of pinning it indefinitely; streamMaxDuration caps
// the whole stream, so a client draining one record per deadline window
// cannot hold the slot forever either.
const (
	streamWriteTimeout = 30 * time.Second
	streamMaxDuration  = 10 * time.Minute
)

// ndjsonStream is the one NDJSON response writer of the streaming
// endpoints. Every write fires the stream_write fault point (a slow or
// failing client-facing write), bounds itself by streamWriteTimeout clamped
// to the stream's streamMaxDuration deadline, and encodes under a mutex, so
// concurrent producers (the batch drain workers) interleave whole records.
// Flushing coalesces: the stream flushes once flushEvery records are
// unflushed or flushAfter has passed since the last flush, so flushEvery 1
// flushes every record.
type ndjsonStream struct {
	ctx        context.Context
	rc         *http.ResponseController
	enc        *json.Encoder
	deadline   time.Time
	flushEvery int
	flushAfter time.Duration

	mu        sync.Mutex
	written   int // records encoded so far
	unflushed int
	lastFlush time.Time
}

// newStream starts an NDJSON response on w. Write faults fire under the
// request's own context: they model the client connection, which outlives
// the compute budget, so a stream whose budget expired still gets its
// terminal record.
func newStream(w http.ResponseWriter, r *http.Request, flushEvery int, flushAfter time.Duration) *ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	return &ndjsonStream{
		ctx:        r.Context(),
		rc:         http.NewResponseController(w),
		enc:        json.NewEncoder(w),
		deadline:   time.Now().Add(streamMaxDuration),
		flushEvery: flushEvery,
		flushAfter: flushAfter,
	}
}

// write encodes rec as one NDJSON line; an error means the record did not
// reach the client.
func (st *ndjsonStream) write(rec any) error {
	if err := faultinject.Fire(st.ctx, faultinject.PointStreamWrite); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	d := now.Add(streamWriteTimeout)
	if d.After(st.deadline) {
		d = st.deadline
	}
	_ = st.rc.SetWriteDeadline(d)
	if err := st.enc.Encode(rec); err != nil {
		return err
	}
	st.written++
	st.unflushed++
	if st.unflushed >= st.flushEvery || now.Sub(st.lastFlush) > st.flushAfter {
		_ = st.rc.Flush()
		st.unflushed, st.lastFlush = 0, now
	}
	return nil
}

// transversalsRequest is the /v1/transversals body. Limit caps the number
// of streamed transversals; 0 means the server maximum
// (Config.MaxStreamResults), larger values are clamped to it.
type transversalsRequest struct {
	H     string `json:"h"`
	Limit int    `json:"limit"`
}

// streamSetRecord is one streamed transversal. The field is always present
// (the empty transversal is a legitimate result: tr(∅) = {∅}), which is
// how clients tell result lines from the terminal line.
type streamSetRecord struct {
	Transversal []string `json:"transversal"`
}

// streamEndRecord is the single terminal NDJSON line: Done for clean
// completion (Truncated when the limit knob stopped the stream early),
// Error for a mid-stream failure. Count is the number of transversals
// streamed before the end in either case. Reason carries the taxonomy
// class of a non-clean end ("timeout" when the compute budget expired,
// "shed" when the server began draining mid-stream).
type streamEndRecord struct {
	Done      bool   `json:"done,omitempty"`
	Count     int    `json:"count"`
	Truncated bool   `json:"truncated,omitempty"`
	Error     string `json:"error,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

func (s *Server) handleTransversals(w http.ResponseWriter, r *http.Request) {
	var req transversalsRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	hs, sy, err := hgio.ParseHypergraphs(s.cfg.Limits, nil, req.H)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > s.cfg.MaxStreamResults {
		limit = s.cfg.MaxStreamResults
	}
	// Enumeration does not decide duality, but it competes for the same CPU:
	// it occupies a worker slot (whose session simply goes unused).
	s.inSlot(w, r, s.cfg.StreamTimeout, func(ctx context.Context, _ *engine.Session) error {
		// Minimal transversals are invariant under minimization, and the
		// enumerator is specified for simple inputs. Minimize is O(m²), so
		// it runs inside the worker-pool slot like the enumeration itself.
		h := hs[0].Minimize()
		st := newStream(w, r, 1, 0)
		// truncated is set only when a transversal beyond the limit actually
		// arrives: a stream that stops at exactly |tr(h)| = limit is
		// complete. Drain cuts the stream short with the shed taxonomy, and
		// the client retries against another replica.
		truncated := false
		err := transversal.EnumerateContext(ctx, h, func(t bitset.Set) (bool, error) {
			if s.draining.Load() {
				return false, errDraining
			}
			if st.written >= limit {
				truncated = true
				return false, nil
			}
			// A failed write means the client is gone: abort the enumeration.
			return true, st.write(streamSetRecord{Transversal: names(t, sy)})
		})
		count := st.written
		s.streamedSets.Add(int64(count))
		if err != nil {
			if count == 0 {
				return err // nothing streamed yet: the status line can still say why
			}
			if reason, live := s.streamEnd(r, ctx, err); live {
				_ = st.write(streamEndRecord{Error: err.Error(), Reason: reason, Count: count})
			}
			return nil
		}
		// Truncated means the limit stopped the stream: tr(h) may hold more
		// elements than were streamed.
		_ = st.write(streamEndRecord{Done: true, Count: count, Truncated: truncated})
		return nil
	})
}
