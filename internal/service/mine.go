package service

// POST /v1/mine: streaming itemset-border mining. /v1/borders answers with
// the finished borders; /v1/mine streams the dualize-and-advance loop
// itself — every positive/negative border element is flushed as one NDJSON
// record the moment its duality check verifies it, so clients watch the
// incremental algorithm of §1 advance (and can abort a long mine having
// already banked a prefix of both borders). Backed by
// itemsets.ComputeBordersStreamWith on a worker-slot session.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/faultinject"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
)

// sessionEngine routes an explicit engine choice through a worker slot's
// session, so even engine-pinned mining loops reuse the slot's scratch and
// subinstance memo when the engine supports it.
type sessionEngine struct {
	sess *engine.Session
	eng  engine.Engine
}

func (e sessionEngine) Name() string      { return e.eng.Name() }
func (e sessionEngine) Caps() engine.Caps { return e.eng.Caps() }
func (e sessionEngine) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return e.sess.DecideWith(ctx, e.eng, g, h)
}

// mineRequest is the /v1/mine body: the /v1/borders fields plus an optional
// engine name for the duality checks of the loop.
type mineRequest struct {
	Data   string `json:"data"`
	Z      int    `json:"z"`
	Engine string `json:"engine,omitempty"`
}

// mineRecord is one streamed border element. Exactly one of MaxFrequent /
// MinInfrequent is present on the wire; pointers keep an empty itemset (a
// legitimate border element) rendering as [] instead of being dropped by
// omitempty, so field presence, not emptiness, is the discriminator.
type mineRecord struct {
	MaxFrequent   *[]string `json:"max_frequent,omitempty"`
	MinInfrequent *[]string `json:"min_infrequent,omitempty"`
	// Check is the number of duality checks run when this element was
	// found; it is non-decreasing along the stream.
	Check int `json:"check"`
}

// mineEndRecord is the single terminal NDJSON line. Reason carries the
// taxonomy class of a non-clean end ("timeout" for an expired compute
// budget, "shed" when drain cut the mine short).
type mineEndRecord struct {
	Done          bool   `json:"done,omitempty"`
	MaxFrequent   int    `json:"max_frequent_count"`
	MinInfrequent int    `json:"min_infrequent_count"`
	DualityChecks int    `json:"duality_checks"`
	Error         string `json:"error,omitempty"`
	Reason        string `json:"reason,omitempty"`
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	s.reqMine.Add(1)
	var req mineRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	eng, err := engine.ByName(req.Engine)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	d, sy, err := hgio.ParseDataset(s.cfg.Limits, req.Data)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := s.budgetCtx(r, s.cfg.MineTimeout)
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
	defer s.release(sess)
	// Route the loop's duality checks through the worker slot's session
	// (pinned scratch + memo — the loop's many small, related instances are
	// exactly the memo's access pattern); an explicit engine choice runs on
	// the same session through the sessionEngine adapter.
	loopEngine := engine.Engine(sess)
	if req.Engine != "" {
		loopEngine = sessionEngine{sess: sess, eng: eng}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	streamDeadline := time.Now().Add(streamMaxDuration)
	emit := func(rec any) error {
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

	maxCount, minCount, lastCheck := 0, 0, 0
	b, err := itemsets.ComputeBordersStreamWith(ctx, d, req.Z, loopEngine,
		func(ev itemsets.BorderEvent) error {
			if s.draining.Load() {
				// Cut the mine short with a clean shed terminal record; the
				// client retries against another replica.
				return errDraining
			}
			rec := mineRecord{Check: ev.DualityChecks}
			set := names(ev.Set, sy)
			if ev.MaxFrequent {
				rec.MaxFrequent = &set
			} else {
				rec.MinInfrequent = &set
			}
			if err := emit(rec); err != nil {
				return err // client write failed: abort the mining
			}
			if ev.MaxFrequent {
				maxCount++
			} else {
				minCount++
			}
			lastCheck = ev.DualityChecks
			return nil
		})
	s.minedElements.Add(int64(maxCount + minCount))
	if err != nil {
		endReason := ""
		switch {
		case errors.Is(err, errDraining):
			if c := s.obs.sheds["mine"]; c != nil {
				c.Add(1)
			}
			accessFrom(r.Context()).outcome = "shed"
			endReason = reasonShed
		case budgetExpired(ctx):
			if c := s.obs.timeouts["mine"]; c != nil {
				c.Add(1)
			}
			accessFrom(r.Context()).outcome = "timeout"
			endReason = reasonTimeout
		case r.Context().Err() != nil:
			s.cancelled.Add(1)
			return // client is gone; no terminal record can reach it
		}
		if maxCount+minCount == 0 && endReason == "" {
			// Nothing streamed yet: a proper HTTP error is still possible.
			s.writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		_ = emit(mineEndRecord{
			Error:         err.Error(),
			Reason:        endReason,
			MaxFrequent:   maxCount,
			MinInfrequent: minCount,
			DualityChecks: lastCheck,
		})
		return
	}
	_ = emit(mineEndRecord{
		Done:          true,
		MaxFrequent:   b.MaxFrequent.M(),
		MinInfrequent: b.MinInfrequent.M(),
		DualityChecks: b.DualityChecks,
	})
}
