package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"analogflow/internal/lp"
)

// TestLPRefusesOversizedProgram: the 62-byte request for an lp solve of a
// 64×64 grid asks for a 28,416 × 20,224 dense constraint matrix — 4.6 GB
// before its tableau copy.  The backend refuses the program before
// allocating it, so the stream answers a solver_error record naming the
// limit and the process keeps serving.
func TestLPRefusesOversizedProgram(t *testing.T) {
	srv := newTestServer(t, 2)
	const body = `{"solver":"lp","problems":[{"grid":{"width":64,"height":64}}]}`
	if len(body) != 62 {
		t.Fatalf("request is %d bytes, want 62", len(body))
	}
	const matrixBytes = 28416 * 20224 * 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs := readRecords(t, srv.URL+"/v1/solve", body, http.StatusOK)
	runtime.ReadMemStats(&after)
	if len(recs) != 2 || recs[1]["done"] != true {
		t.Fatalf("records %v, want one item and done", recs)
	}
	msg, _ := recs[0]["error"].(string)
	limit := fmt.Sprintf("%d MiB limit", lp.MaxDenseBytes>>20)
	if recs[0]["code"] != codeSolverError || !strings.Contains(msg, limit) || recs[0]["report"] != nil {
		t.Errorf("item record %v, want a solver_error naming the %s", recs[0], limit)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > matrixBytes/64 {
		t.Errorf("the refused request allocated %d MiB; the matrix alone is %d MiB", grew>>20, matrixBytes>>20)
	}
	// The server still answers a small lp problem.
	recs = readRecords(t, srv.URL+"/v1/solve", `{"solver":"lp","problems":[`+figure5Inline+`]}`, http.StatusOK)
	if len(recs) != 2 || recs[0]["report"] == nil {
		t.Errorf("small lp solve after the refusal: %v", recs)
	}
}
