package solve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// TestReportAppendJSONMatchesMarshal encodes real reports of every backend
// but circuit — analog metrics, LP iterations, a decomposition plan — and
// requires json.Marshal's bytes; the random and fuzzed cases live with the
// stream records in cmd/analogflowd.
func TestReportAppendJSONMatchesMarshal(t *testing.T) {
	p, err := NewProblem(rmat.MustGenerate(rmat.SparseParams(40, 5)))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewProblem(graph.MustSegmentationGrid(12, 12, false, 3))
	if err != nil {
		t.Fatal(err)
	}
	reg := DefaultRegistry()
	for _, name := range []string{"behavioral", "dinic", "edmonds-karp", "push-relabel", "lp", "decompose"} {
		for _, prob := range []*Problem{p, grid} {
			rep, err := reg.Solve(context.Background(), name, prob)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.AppendJSON([]byte("prefix"))
			if err != nil || !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("%s: AppendJSON = %q, %v\nwant %q", name, got, err, want)
			}
		}
	}
}

// TestReportAppendJSONRefusesNonFinite: NaN and ±Inf fail as json.Marshal
// fails, wherever they sit, and leave the buffer as it was.
func TestReportAppendJSONRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rep := range []*Report{
			{FlowValue: bad},
			{EdgeFlows: []float64{1, 0, bad, 2}},
			{Energy: bad},
		} {
			_, wantErr := json.Marshal(rep)
			got, err := rep.AppendJSON([]byte("prefix"))
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() || string(got) != "prefix" {
				t.Errorf("%+v: AppendJSON = %q, %v; json.Marshal error %v", rep, got, err, wantErr)
			}
		}
	}
}
