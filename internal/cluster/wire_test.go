package cluster

import (
	"encoding/json"
	"testing"

	"dualspace/internal/bitset"
	"dualspace/internal/core"
)

// roundTrip sends res over the wire: flattened, marshalled, unmarshalled
// and decoded the way a receiving replica does.
func roundTrip(t *testing.T, res *core.Result, n int) (*WireVerdict, *core.Result) {
	t.Helper()
	raw, err := json.Marshal(WireVerdict{Verdict: core.Flatten(res, n), Engine: "core"})
	if err != nil {
		t.Fatal(err)
	}
	var wv WireVerdict
	if err := json.Unmarshal(raw, &wv); err != nil {
		t.Fatal(err)
	}
	back, err := wv.Result()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &wv, back
}

func TestWireVerdictRoundTrip(t *testing.T) {
	res := &core.Result{
		Dual:            false,
		Reason:          core.ReasonNewTransversal,
		Witness:         bitset.FromSlice(6, []int{0, 3, 5}),
		CoWitness:       bitset.FromSlice(6, []int{1, 2, 4}),
		GEdge:           -1,
		HEdge:           -1,
		RedundantVertex: -1,
		FailPath:        []int{2, 1},
		Swapped:         true,
	}
	wv, back := roundTrip(t, res, 6)
	if wv.N != 6 || wv.Engine != "core" {
		t.Fatalf("wire fields drifted: %+v", wv)
	}
	if back.Dual != res.Dual || back.Reason != res.Reason || back.Swapped != res.Swapped {
		t.Fatalf("verdict fields drifted: %+v vs %+v", back, res)
	}
	if !back.Witness.Equal(res.Witness) || !back.CoWitness.Equal(res.CoWitness) {
		t.Fatal("witness sets drifted through the wire")
	}
	if len(back.FailPath) != 2 || back.FailPath[0] != 2 || back.FailPath[1] != 1 {
		t.Fatalf("fail path drifted: %v", back.FailPath)
	}
}

func TestWireVerdictDualRoundTrip(t *testing.T) {
	res := &core.Result{Dual: true, GEdge: -1, HEdge: -1, RedundantVertex: -1}
	_, back := roundTrip(t, res, 4)
	if !back.Dual || back.Reason != core.ReasonDual {
		t.Fatalf("dual verdict drifted: %+v", back)
	}
	if !back.Witness.IsEmpty() {
		t.Fatal("empty witness grew elements")
	}
}

// TestWireVerdictValidation: what decoding alone rejects — a universe past
// core.MaxUniverse and witness lists that are not increasing within it.
// Whether a decoded verdict fits its instance is core.CheckVerdict's test.
func TestWireVerdictValidation(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"universe negative", `{"n":-1,"dual":true,"g_edge":-1,"h_edge":-1,"redundant_vertex":-1}`},
		{"universe too large", `{"n":16777217,"dual":true,"g_edge":-1,"h_edge":-1,"redundant_vertex":-1}`},
		{"witness out of range", `{"n":4,"reason":5,"witness":[4],"g_edge":-1,"h_edge":-1,"redundant_vertex":-1}`},
		{"witness negative", `{"n":4,"reason":5,"witness":[-1],"g_edge":-1,"h_edge":-1,"redundant_vertex":-1}`},
		{"witness unsorted", `{"n":4,"reason":5,"witness":[2,1],"g_edge":-1,"h_edge":-1,"redundant_vertex":-1}`},
		{"co-witness out of range", `{"n":4,"reason":5,"witness":[0],"co_witness":[9],"g_edge":-1,"h_edge":-1,"redundant_vertex":-1}`},
	}
	for _, tc := range cases {
		var wv WireVerdict
		if err := json.Unmarshal([]byte(tc.body), &wv); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := wv.Result(); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
}
