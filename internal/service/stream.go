package service

// /v1/transversals: chunked streaming enumeration of tr(H). Each minimal
// transversal is written (and flushed) as one NDJSON record the moment the
// enumerator yields it, so clients see results with enumeration delay
// rather than completion delay; a terminal record distinguishes clean
// completion, truncation at the limit knob, and mid-stream failure — the
// error path EnumerateContext's fallible yield exists for.

import (
	"encoding/json"
	"net/http"
	"time"

	"dualspace/internal/bitset"
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
	s.reqTransversals.Add(1)
	var req transversalsRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	hs, sy, err := hgio.ParseHypergraphs(s.cfg.Limits, nil, req.H)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > s.cfg.MaxStreamResults {
		limit = s.cfg.MaxStreamResults
	}
	ctx, cancel, err := s.budgetCtx(r, s.cfg.StreamTimeout)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	// Enumeration does not decide duality, but it competes for the same CPU:
	// it occupies a worker slot (whose session simply goes unused).
	sess, err := s.acquire(ctx)
	if err != nil {
		s.fail(w, r, ctx, err)
		return
	}
	defer s.release(sess)
	// Minimal transversals are invariant under minimization, and the
	// enumerator is specified for simple inputs. Minimize is O(m²), so it
	// runs inside the worker-pool slot like the enumeration itself.
	h := hs[0].Minimize()

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	streamDeadline := time.Now().Add(streamMaxDuration)
	emit := func(rec any) error {
		// A stalled client must not pin the worker slot: bound every write
		// so a non-reading connection errors out instead of blocking, and
		// bound the stream as a whole so drip-feeding cannot renew the
		// per-write window forever. The stream_write fault point models a
		// slow (delay rule) or failing (error rule) client-facing write.
		if err := faultinject.Fire(ctx, faultinject.PointStreamWrite); err != nil {
			return err
		}
		d := time.Now().Add(streamWriteTimeout)
		if d.After(streamDeadline) {
			d = streamDeadline
		}
		_ = rc.SetWriteDeadline(d)
		if err := enc.Encode(rec); err != nil {
			return err
		}
		_ = rc.Flush()
		return nil
	}

	// truncated is set only when a transversal beyond the limit actually
	// arrives: a stream that stops at exactly |tr(h)| = limit is complete.
	// drained marks a stream cut short because the server began shutting
	// down: the client gets a clean shed terminal record and retries
	// against another replica.
	count, truncated, drained := 0, false, false
	err = transversal.EnumerateContext(ctx, h, func(t bitset.Set) (bool, error) {
		if s.draining.Load() {
			drained = true
			return false, nil
		}
		if count >= limit {
			truncated = true
			return false, nil
		}
		if err := emit(streamSetRecord{Transversal: names(t, sy)}); err != nil {
			return false, err // client write failed: abort the enumeration
		}
		count++
		return true, nil
	})
	s.streamedSets.Add(int64(count))
	if err != nil {
		if budgetExpired(ctx) {
			// The compute budget ran out with a live client: end in-band
			// with the timeout taxonomy.
			if c := s.obs.timeouts["transversals"]; c != nil {
				c.Add(1)
			}
			accessFrom(r.Context()).outcome = "timeout"
			_ = emit(streamEndRecord{Error: err.Error(), Reason: reasonTimeout, Count: count})
			return
		}
		if r.Context().Err() != nil {
			s.cancelled.Add(1)
			return // client is gone; no terminal record can reach it
		}
		// Mid-stream failure with a live client: surface it in-band.
		_ = emit(streamEndRecord{Error: err.Error(), Count: count})
		return
	}
	if drained {
		if c := s.obs.sheds["transversals"]; c != nil {
			c.Add(1)
		}
		accessFrom(r.Context()).outcome = "shed"
		_ = emit(streamEndRecord{Error: errDraining.Error(), Reason: reasonShed, Count: count})
		return
	}
	// Truncated means the limit stopped the stream: tr(h) may hold more
	// elements than were streamed.
	_ = emit(streamEndRecord{Done: true, Count: count, Truncated: truncated})
}
