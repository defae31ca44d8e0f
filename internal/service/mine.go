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
	"net/http"

	"dualspace/internal/core"
	"dualspace/internal/engine"
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
	var req mineRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	eng, err := engine.ByName(req.Engine)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	d, sy, err := hgio.ParseDataset(s.cfg.Limits, req.Data)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	s.inSlot(w, r, s.cfg.MineTimeout, func(ctx context.Context, sess *engine.Session) error {
		// Route the loop's duality checks through the worker slot's session
		// (pinned scratch + memo — the loop's many small, related instances
		// are exactly the memo's access pattern); an explicit engine choice
		// runs on the same session through the sessionEngine adapter.
		loopEngine := engine.Engine(sess)
		if req.Engine != "" {
			loopEngine = sessionEngine{sess: sess, eng: eng}
		}
		st := newStream(w, r, 1, 0)
		maxCount, lastCheck := 0, 0
		b, err := itemsets.ComputeBordersStreamWith(ctx, d, req.Z, loopEngine,
			func(ev itemsets.BorderEvent) error {
				if s.draining.Load() {
					// Cut the mine short with the shed taxonomy; the client
					// retries against another replica.
					return errDraining
				}
				rec := mineRecord{Check: ev.DualityChecks}
				set := names(ev.Set, sy)
				if ev.MaxFrequent {
					rec.MaxFrequent = &set
				} else {
					rec.MinInfrequent = &set
				}
				if err := st.write(rec); err != nil {
					return err // client write failed: abort the mining
				}
				if ev.MaxFrequent {
					maxCount++
				}
				lastCheck = ev.DualityChecks
				return nil
			})
		n := st.written
		s.minedElements.Add(int64(n))
		if err != nil {
			if n == 0 {
				return err // nothing streamed yet: the status line can still say why
			}
			if reason, live := s.streamEnd(r, ctx, err); live {
				_ = st.write(mineEndRecord{
					Error:         err.Error(),
					Reason:        reason,
					MaxFrequent:   maxCount,
					MinInfrequent: n - maxCount,
					DualityChecks: lastCheck,
				})
			}
			return nil
		}
		_ = st.write(mineEndRecord{
			Done:          true,
			MaxFrequent:   b.MaxFrequent.M(),
			MinInfrequent: b.MinInfrequent.M(),
			DualityChecks: b.DualityChecks,
		})
		return nil
	})
}
