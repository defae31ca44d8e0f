package service

// The paper's three database applications as endpoints (Propositions
// 1.1–1.3): itemset borders, additional keys, coterie non-domination. Each
// runs on the same bounded worker pool as the duality endpoints and drives
// its duality checks through the worker slot's pinned engine.Session, so
// the incremental loops (dualize-and-advance, key enumeration) reuse
// scratch across their many decisions; inputs go through the hardened hgio
// readers.

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"dualspace/internal/coterie"
	"dualspace/internal/engine"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
)

// bordersRequest is the /v1/borders body: a transaction database (one
// transaction per line, whitespace-separated item names) and the frequency
// threshold z (frequent ⟺ support > z).
type bordersRequest struct {
	Data string `json:"data"`
	Z    int    `json:"z"`
}

type bordersResponse struct {
	MaxFrequent   [][]string `json:"max_frequent"`
	MinInfrequent [][]string `json:"min_infrequent"`
	DualityChecks int        `json:"duality_checks"`
	Transactions  int        `json:"transactions"`
	Items         int        `json:"items"`
}

func (s *Server) handleBorders(w http.ResponseWriter, r *http.Request) {
	var req bordersRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	d, sy, err := hgio.ParseDataset(s.cfg.Limits, req.Data)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.inSlot(w, r, s.cfg.AppsTimeout, func(ctx context.Context, sess *engine.Session) error {
		b, err := itemsets.ComputeBordersWith(ctx, d, req.Z, sess)
		if err != nil {
			return err
		}
		writeJSON(w, bordersResponse{
			MaxFrequent:   edgeNames(b.MaxFrequent.Canonical(), sy),
			MinInfrequent: edgeNames(b.MinInfrequent.Canonical(), sy),
			DualityChecks: b.DualityChecks,
			Transactions:  d.NumRows(),
			Items:         d.NumItems(),
		})
		return nil
	})
}

// keysRequest is the /v1/keys body: a relational instance as CSV (header
// row of attribute names, then tuples). With Known empty every minimal key
// is enumerated; otherwise Known lists already-known minimal keys (one per
// line, attribute names) and the additional-key problem is decided.
type keysRequest struct {
	CSV   string `json:"csv"`
	Known string `json:"known,omitempty"`
}

type keysResponse struct {
	Keys     [][]string  `json:"keys,omitempty"`
	Complete bool        `json:"complete"`
	NewKey   []string    `json:"new_key,omitempty"`
	Stats    decideStats `json:"stats"`
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	var req keysRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	rel, err := hgio.ReadRelationCSVLimited(strings.NewReader(req.CSV), s.cfg.Limits)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	attrSym := hgio.NewSymbols(rel.Attrs()...)
	var known *hypergraph.Hypergraph
	if strings.TrimSpace(req.Known) != "" {
		hs, _, err := hgio.ParseHypergraphs(s.cfg.Limits, attrSym, req.Known)
		if err == nil && attrSym.Len() > rel.NumAttrs() {
			err = fmt.Errorf("unknown attribute %q in known keys", attrSym.Name(rel.NumAttrs()))
		}
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		known = hs[0]
	}
	s.inSlot(w, r, s.cfg.AppsTimeout, func(ctx context.Context, sess *engine.Session) error {
		if known == nil {
			all, _, err := rel.EnumerateKeysIncrementallyWith(ctx, sess)
			if err != nil {
				return err
			}
			writeJSON(w, keysResponse{Keys: edgeNames(all.Canonical(), attrSym), Complete: true})
			return nil
		}
		res, err := rel.AdditionalKeyWith(ctx, known, sess)
		if err != nil {
			return err
		}
		resp := keysResponse{
			Complete: res.Complete,
			Stats: decideStats{
				Nodes:       res.DualityStats.Nodes,
				Leaves:      res.DualityStats.Leaves,
				MaxDepth:    res.DualityStats.MaxDepth,
				MaxChildren: res.DualityStats.MaxChildren,
			},
		}
		if res.FoundNew {
			resp.NewKey = names(res.NewKey, attrSym)
		}
		writeJSON(w, resp)
		return nil
	})
}

// coteriesRequest is the /v1/coteries body: quorums in the hgio edge
// format. With Improve set, a dominating coterie is returned when the
// input is dominated.
type coteriesRequest struct {
	Quorums string `json:"quorums"`
	Improve bool   `json:"improve,omitempty"`
}

type coteriesResponse struct {
	NonDominated bool       `json:"non_dominated"`
	Quorums      int        `json:"quorums"`
	Nodes        int        `json:"nodes"`
	Dominating   [][]string `json:"dominating,omitempty"`
}

func (s *Server) handleCoteries(w http.ResponseWriter, r *http.Request) {
	var req coteriesRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	hs, sy, err := hgio.ParseHypergraphs(s.cfg.Limits, nil, req.Quorums)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	c, err := coterie.New(hs[0])
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.inSlot(w, r, s.cfg.AppsTimeout, func(ctx context.Context, sess *engine.Session) error {
		resp := coteriesResponse{Quorums: c.NumQuorums(), Nodes: c.Universe()}
		if req.Improve {
			// One self-duality decomposition answers both questions: found
			// is false exactly when the coterie is non-dominated.
			dom, found, err := c.FindDominatingWith(ctx, sess)
			if err != nil {
				return err
			}
			resp.NonDominated = !found
			if found {
				resp.Dominating = edgeNames(dom.Hypergraph(), sy)
			}
		} else {
			nd, err := c.IsNonDominatedWith(ctx, sess)
			if err != nil {
				return err
			}
			resp.NonDominated = nd
		}
		writeJSON(w, resp)
		return nil
	})
}
