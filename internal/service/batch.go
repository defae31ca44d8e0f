package service

// POST /v1/batch: NDJSON-in → NDJSON-out batch decision. Each input line is
// a decideRequest; each output line is either one item's verdict (with the
// input's 0-based "index" for correlation — responses stream in completion
// order, not input order) or an error row, followed by exactly one terminal
// record with the batch's dedup/cache/decision counters. The stream is
// drained by the batch.Scheduler over the server's shared session pool and
// sharded verdict cache, so a dedup-heavy batch runs one decomposition per
// distinct canonical instance and one HTTP round trip per thousand
// decisions instead of one per decision.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dualspace/internal/batch"
	"dualspace/internal/hgio"
)

// batchItemResponse is one answered batch row: the /v1/decide response body
// plus correlation and provenance. "cached" keeps its /v1/decide meaning
// (served by the shared verdict cache); "deduped" marks rows coalesced onto
// another row of the same batch (their stats repeat the leader's run,
// except memo_hits which is zeroed like every response that ran no
// decomposition of its own).
type batchItemResponse struct {
	Index int `json:"index"`
	decideResponse
	Deduped bool `json:"deduped,omitempty"`
}

// batchErrorRow reports one row's failure (bad engine name, parse error,
// semantic rejection) without aborting the rest of the batch. Reason
// carries the taxonomy class when the failure has one ("panic" for a
// contained compute-step panic, "shed" when admission refused the row's
// compute, "timeout" for an expired batch budget).
type batchErrorRow struct {
	Index  int    `json:"index"`
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// batchEndRecord is the single terminal NDJSON line.
type batchEndRecord struct {
	Done      bool `json:"done"`
	Items     int  `json:"items"`
	Unique    int  `json:"unique"`
	Deduped   int  `json:"deduped"`
	CacheHits int  `json:"cache_hits"`
	Decisions int  `json:"decisions"`
	Errors    int  `json:"errors"`
	// Truncated is set when the batch hit the server's row cap
	// (-batch-max-items); rows beyond the cap were not read.
	Truncated bool `json:"truncated,omitempty"`
	// Error carries a stream-level failure (broken NDJSON framing, body
	// over the byte bound): per-row failures use error rows instead.
	Error string `json:"error,omitempty"`
	// Reason carries the taxonomy class of a stream-level failure
	// ("timeout" when the batch budget expired, "shed" when drain stopped
	// row intake).
	Reason string `json:"reason,omitempty"`
}

// rowMeta is the per-row rendering context, carried through the scheduler
// on Request.Meta and echoed back on the Response.
type rowMeta struct {
	sy  *hgio.Symbols
	eng string
}

// parsedRow caches one distinct row text's parse outcome. Dedup-heavy
// streams repeat rows byte for byte, so the handler dedups raw texts first
// (decideRequest is three strings, comparable, and a valid map key): a
// duplicate row skips parse, canonicalize and fingerprint, and goes
// straight to the scheduler with the first occurrence's query and symbols.
// Identical text means identical interning, so the leader's symbol table
// renders every duplicate's response correctly; parse and engine-name
// errors are deterministic per text and replay from the cache the same
// way.
type parsedRow struct {
	q       batch.Query
	sy      *hgio.Symbols
	errText string
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	parallelism := 0
	if p := r.URL.Query().Get("parallelism"); p != "" {
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad parallelism %q", p))
			return
		}
		parallelism = n
	}
	// The batch budget covers the whole drain: expired rows fail with the
	// timeout taxonomy, and the terminal record says why.
	ctx, cancel, err := s.budgetCtx(r, s.cfg.BatchTimeout)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	// Fast rows coalesce into larger writes (a dedup-heavy batch completes
	// rows in microseconds, and flushing each would cost a chunked write
	// and a client-side chunk parse per row), while slow trickles still
	// flush promptly for live progress. Write errors are dropped: a row
	// that cannot reach the client is lost with the client.
	st := newStream(w, r, 64, 2*time.Millisecond)
	var src io.Reader = http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes)
	if st.rc.EnableFullDuplex() != nil {
		// The transport cannot interleave request reads with response
		// writes (HTTP/1 without full-duplex support): slurp the — bounded
		// — body up front so streaming responses cannot kill the parse.
		data, err := io.ReadAll(src)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		src = bytes.NewReader(data)
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()

	reqs := make(chan batch.Request)
	runDone := make(chan batch.RunStats, 1)
	go func() {
		runDone <- s.scheduler.RunN(ctx, parallelism, reqs, func(resp batch.Response) {
			m := resp.Meta.(rowMeta)
			// Rows answered by an in-batch duplicate count as neither hit nor
			// decision; every other row is attributed like a /v1/decide
			// request.
			if !resp.Deduped {
				s.account(m.eng, resp.Source, resp.Err)
			}
			if resp.Err != nil {
				_ = st.write(batchErrorRow{Index: resp.Index, Error: resp.Err.Error(),
					Reason: inBandReason(statusOf(ctx, resp.Err))})
				return
			}
			dr := renderDecide(resp.Res, resp.G, resp.H, m.sy, resp.Source != batch.SourceComputed, m.eng)
			if resp.Deduped {
				dr.Stats.MemoHits = 0
			}
			_ = st.write(batchItemResponse{Index: resp.Index, decideResponse: dr, Deduped: resp.Deduped})
		})
	}()

	idx, parseErrors := 0, 0
	var streamErr error
	truncated := false
	parsedTexts := make(map[decideRequest]*parsedRow)
	for {
		if s.draining.Load() {
			// Drain began mid-batch: stop taking rows; dispatched work
			// finishes, the terminal record carries the shed taxonomy, and
			// the client re-submits the remainder elsewhere.
			streamErr = errDraining
			break
		}
		var row decideRequest
		err := dec.Decode(&row)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Framing is gone (or the body bound tripped): no further rows
			// can be attributed to indices, so end the stream in-band.
			streamErr = err
			break
		}
		if idx >= s.cfg.MaxBatchItems {
			truncated = true
			break
		}
		pr, ok := parsedTexts[row]
		if !ok {
			// Parse, canonicalize and key once per distinct text; duplicates
			// then skip straight to the scheduler's dedup map.
			pr = &parsedRow{}
			if pr.q, pr.sy, err = s.parseQuery(row); err != nil {
				pr.errText = err.Error()
			}
			parsedTexts[row] = pr
		}
		if pr.errText != "" {
			_ = st.write(batchErrorRow{Index: idx, Error: pr.errText})
			parseErrors++
			idx++
			continue
		}
		// The scheduler drains reqs even after cancellation, so this send
		// never wedges on a dead batch.
		reqs <- batch.Request{
			Index: idx, EngineName: pr.q.Key.Engine, Engine: pr.q.Engine,
			G: pr.q.G, H: pr.q.H, Key: &pr.q.Key,
			RawG: row.G, RawH: row.H,
			Meta: rowMeta{sy: pr.sy, eng: pr.q.Key.Engine},
		}
		idx++
	}
	close(reqs)
	run := <-runDone

	if ctx.Err() != nil {
		// An expired budget or a vanished client explains the end of the
		// batch better than whatever stopped the intake loop.
		streamErr = context.Cause(ctx)
	}
	end := batchEndRecord{
		Done:      streamErr == nil,
		Items:     run.Items + parseErrors,
		Unique:    run.Unique,
		Deduped:   run.Deduped,
		CacheHits: run.CacheHits,
		Decisions: run.Decisions,
		Errors:    run.Errors + parseErrors,
		Truncated: truncated,
	}
	if streamErr != nil {
		reason, live := s.streamEnd(r, ctx, streamErr)
		if !live {
			return
		}
		end.Error, end.Reason = streamErr.Error(), reason
	}
	_ = st.write(end)
}
