package service

// The service's cluster surface: the POST /v1/cluster/verdict peer-fill
// endpoint, the decide/batch-side bridges to the cluster peer client, and
// the verdict-log plumbing (startup cache warming, the async append
// writer, periodic compaction's stats). docs/CLUSTER.md is the operator
// guide; DESIGN.md §13 the design deep dive.
//
// Ownership and loop safety: every replica computes the same consistent-
// hash ring (cluster.Ring) over the same member list, so for any canonical
// key exactly one replica is the owner. A non-owner that misses its local
// cache asks the owner once (bounded fan-out, per-peer breaker) and falls
// back to local compute on any failure; the fill request carries
// ?no_forward=1 and the X-Dualspace-Peer header, and the serving handler
// below never forwards regardless — so even two replicas with disagreeing
// rings (a rolling config change) cannot build a forwarding cycle.

import (
	"context"
	"net/http"

	"dualspace/internal/batch"
	"dualspace/internal/cluster"
	"dualspace/internal/core"
	"dualspace/internal/verdictlog"
)

// handleClusterVerdict serves one peer's cache-fill: parse and
// canonicalize exactly like /v1/decide (same text ⇒ same interning ⇒ same
// key) and resolve through the same pipeline, under the same admission
// control as client traffic — a shed or timeout comes back 503/504 and the
// asking peer degrades to local compute. The query carries no raw texts, so
// the fill is never forwarded: a missing verdict is this replica's to
// compute (it is the owner) or the caller's problem, never a third
// replica's.
func (s *Server) handleClusterVerdict(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := s.budgetCtx(r, s.cfg.DecideTimeout)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	q, _, _, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	out, err := s.scheduler.Resolve(ctx, q)
	switch {
	case out.Source == batch.SourceCache:
		s.clusterServeHits.Add(1)
	case out.Source == batch.SourceComputed && err == nil:
		s.clusterServeComputes.Add(1)
	}
	if !s.settle(w, r, ctx, q.Key.Engine, out, err) {
		return
	}
	wv := cluster.FromResult(out.Res, q.G.N())
	wv.Engine, wv.Cached = q.Key.Engine, out.Source == batch.SourceCache
	writeJSON(w, wv)
}

// peerFill is batch.Config.Fill: it asks key's ring owner for the verdict
// when another replica owns it. False means "compute locally" for any
// reason (not owner, breaker open, fan-out bound, peer miss, transport
// failure, invalid verdict).
func (s *Server) peerFill(ctx context.Context, key batch.Key, n int, gText, hText string) (*core.Result, bool) {
	c := s.cfg.Cluster
	owner, remote := c.Owner(key.Hash64())
	if !remote {
		return nil, false
	}
	wv, err := c.Fill(ctx, owner, key.Engine, gText, hText)
	if err != nil || wv == nil {
		return nil, false
	}
	res, err := wv.ToResult(n)
	if err != nil {
		// The peer answered for a different instance (or corrupt bytes):
		// never serve it. The counter is the alarm — this should be zero.
		s.peerInvalid.Add(1)
		return nil, false
	}
	s.peerFilled.Add(1)
	return res, true
}

// appendVerdict hands a stored verdict to the async log writer. The send
// never blocks: under a writer stall the verdict is dropped and counted —
// the log is a warmth optimization, and the request path must not inherit
// disk latency.
func (s *Server) appendVerdict(key batch.Key, res *core.Result, n int) {
	if s.vlogCh == nil {
		return
	}
	select {
	case s.vlogCh <- verdictlog.Record{Engine: key.Engine, FG: key.FG, FH: key.FH, N: n, Res: res}:
	default:
		s.vlogDropped.Add(1)
	}
}

// warmFromLog replays the verdict log's surviving records into the cache.
// Records for engines absent from the running registry are skipped (a log
// written by a different build must not poison the key space).
func (s *Server) warmFromLog() {
	for _, rec := range s.vlog.ReplayedRecords() {
		if _, ok := s.engStats[rec.Engine]; !ok {
			continue
		}
		s.cache.Add(batch.NewKey(rec.Engine, rec.FG, rec.FH), rec.Res)
		s.logReplayed.Add(1)
	}
}

// vlogWriter is the single log-append goroutine: it serializes appends off
// the request path and drains the channel once more after Close.
func (s *Server) vlogWriter() {
	defer close(s.vlogDone)
	for {
		select {
		case rec := <-s.vlogCh:
			_ = s.vlog.Append(rec) // append errors are counted in log stats
		case <-s.vlogQuit:
			for {
				select {
				case rec := <-s.vlogCh:
					_ = s.vlog.Append(rec)
				default:
					return
				}
			}
		}
	}
}

// Close stops the background verdict-log writer, flushing queued appends.
// It does not close the log itself — the caller that opened it (cmd/
// dualserved) closes it after Close returns. Safe to call multiple times
// and without a verdict log.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.vlogCh == nil {
			return
		}
		close(s.vlogQuit)
		<-s.vlogDone
	})
}
