package main

// The correctness oracle. Every verdict is checked against the answer known
// from how its instance was built; every "new transversal exists" witness is
// checked by vertex name against Prop 2.1(4): a transversal of G that
// contains no edge of H. Mined borders must equal BordersApriori's. Wrong
// answers count as failed operations and make the run incorrect.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

const reasonNewTransversal = "new transversal exists"

// traceBlock is the ?trace=1 block of a /v1/decide response.
type traceBlock struct {
	WallNs         int64 `json:"wall_ns"`
	ParseNs        int64 `json:"parse_ns"`
	CanonicalizeNs int64 `json:"canonicalize_ns"`
	CacheLookupNs  int64 `json:"cache_lookup_ns"`
	PrecheckNs     int64 `json:"precheck_ns"`
	IndexSyncNs    int64 `json:"index_sync_ns"`
	WalkNs         int64 `json:"walk_ns"`
	MemoNs         int64 `json:"memo_ns"`
}

// stagesNs is the server time the trace attributes to named stages; the
// rest of wall_ns is the service layer's self time.
func (t *traceBlock) stagesNs() int64 {
	return t.ParseNs + t.CanonicalizeNs + t.CacheLookupNs + t.PrecheckNs +
		t.IndexSyncNs + t.WalkNs + t.MemoNs
}

// verdict is the part of a /v1/decide response (or /v1/batch row) the
// oracle reads.
type verdict struct {
	Dual    bool        `json:"dual"`
	Reason  string      `json:"reason"`
	Witness []string    `json:"witness"`
	Trace   *traceBlock `json:"trace"`
}

// outcome is what one checked response contributed.
type outcome struct {
	failed, wrong int // units that failed; units answered wrongly
	checks        int // duality checks reported by a mine
	trace         *traceBlock
	// invalid is a workload-validity violation: the run is void, not slow.
	invalid error
}

// checkVerdict compares a verdict with q's known answer.
func checkVerdict(q query, v *verdict) error {
	if v.Dual != q.inst.dual {
		return fmt.Errorf("verdict dual=%v, instance built as dual=%v", v.Dual, q.inst.dual)
	}
	if v.Dual || v.Reason != reasonNewTransversal {
		return nil
	}
	return checkWitness(q, v.Witness)
}

// checkWitness checks a new-transversal witness by vertex name.
func checkWitness(q query, names []string) error {
	var w uint64
	for _, name := range names {
		idx, ok := strings.CutPrefix(name, q.prefix+"v")
		i, err := strconv.Atoi(idx)
		if !ok || err != nil || i < 0 || i > 63 {
			return fmt.Errorf("witness names unknown vertex %q", name)
		}
		w |= 1 << uint(i)
	}
	for _, e := range q.inst.g {
		if e&w == 0 {
			return errors.New("witness misses an edge of g")
		}
	}
	for _, e := range q.inst.h {
		if e&^w == 0 {
			return errors.New("witness contains an edge of h")
		}
	}
	return nil
}

// checkDecide checks one /v1/decide response body.
func checkDecide(q query, body []byte) outcome {
	var v verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return outcome{failed: 1}
	}
	if err := checkVerdict(q, &v); err != nil {
		return outcome{failed: 1, wrong: 1}
	}
	return outcome{trace: v.Trace}
}

// batchLine is one NDJSON line of a /v1/batch response: an answered row, an
// error row, or the terminal record.
type batchLine struct {
	Index *int   `json:"index"`
	Error string `json:"error"`
	Done  *bool  `json:"done"`
	Items int    `json:"items"`
	verdict
}

// checkBatch matches every row of a /v1/batch response to its input by
// index. A missing terminal record or one whose items differ from the rows
// sent voids the run.
func checkBatch(rows []query, body []byte) outcome {
	var o outcome
	seen := make([]bool, len(rows))
	terminal := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			continue
		}
		switch {
		case l.Done != nil:
			terminal = true
			if l.Items != len(rows) {
				o.invalid = fmt.Errorf("batch terminal record has items=%d, sent %d", l.Items, len(rows))
			}
		case l.Index != nil && *l.Index >= 0 && *l.Index < len(rows) && !seen[*l.Index]:
			seen[*l.Index] = true
			if l.Error != "" {
				o.failed++
			} else if checkVerdict(rows[*l.Index], &l.verdict) != nil {
				o.failed++
				o.wrong++
			}
		}
	}
	if !terminal {
		o.invalid = errors.New("batch response has no terminal record")
	}
	for _, s := range seen {
		if !s {
			o.failed++
		}
	}
	return o
}

// mineLine is one NDJSON line of a /v1/mine response.
type mineLine struct {
	MaxFrequent   *[]string `json:"max_frequent"`
	MinInfrequent *[]string `json:"min_infrequent"`
	Done          bool      `json:"done"`
	DualityChecks int       `json:"duality_checks"`
	Error         string    `json:"error"`
}

// checkMine compares a streamed mine with the dataset's Apriori borders.
func checkMine(d *dataset, body []byte) outcome {
	maxF, minI := map[string]bool{}, map[string]bool{}
	done := false
	var o outcome
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var l mineLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			continue
		}
		switch {
		case l.MaxFrequent != nil:
			maxF[setKey(*l.MaxFrequent)] = true
		case l.MinInfrequent != nil:
			minI[setKey(*l.MinInfrequent)] = true
		case l.Done && l.Error == "":
			done = true
			o.checks = l.DualityChecks
		}
	}
	wantMax, wantMin, err := d.borders()
	switch {
	case err != nil:
		o.invalid = fmt.Errorf("computing the expected borders: %w", err)
	case !done:
		o.failed = 1
	case !sameSet(maxF, wantMax) || !sameSet(minI, wantMin):
		o.failed, o.wrong = 1, 1
	}
	return o
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
