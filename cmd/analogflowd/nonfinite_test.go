package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"analogflow/internal/solve"
)

// overflowDIMACS has four finite arcs whose maximum flow, 2e308, overflows
// float64 to +Inf, so no report of it can be encoded as JSON.
const overflowDIMACS = `{"dimacs":"p max 4 4\nn 1 s\nn 4 t\na 1 2 1e308\na 1 3 1e308\na 2 4 1e308\na 3 4 1e308\n"}`

// newCountingServer returns a one-worker test server and its facade, whose
// disconnect counter the non-finite tests watch.
func newCountingServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(solve.NewService(solve.Config{Workers: 1}), serverConfig{})
	srv := httptest.NewServer(s.handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// readRecords posts body to url, requires status, and decodes the NDJSON
// (or JSON) response into one map per line.
func readRecords(t *testing.T, url, body string, status int) []map[string]any {
	t.Helper()
	resp := postJSON(t, url, body)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, raw)
	}
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		recs = append(recs, m)
	}
	return recs
}

// checkNoDisconnect requires the disconnect counter to be where it was: an
// unencodable report is not a client that went away.
func checkNoDisconnect(t *testing.T, s *server, before int64) {
	t.Helper()
	if got := s.disconnects.Value(); got != before {
		t.Errorf("client disconnects went from %d to %d; no client disconnected", before, got)
	}
}

// TestSolveNonFiniteReportIsItemError: in a batch, the overflowing problem
// gets an error record, the other problem its report, and the stream ends
// with done.
func TestSolveNonFiniteReportIsItemError(t *testing.T) {
	s, srv := newCountingServer(t)
	before := s.disconnects.Value()
	recs := readRecords(t, srv.URL+"/v1/solve",
		`{"solver":"push-relabel","problems":[`+overflowDIMACS+`,`+figure5Inline+`]}`, http.StatusOK)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 2 items and done: %v", len(recs), recs)
	}
	byIndex := map[float64]map[string]any{}
	for _, r := range recs[:2] {
		byIndex[r["index"].(float64)] = r
	}
	bad, good := byIndex[0], byIndex[1]
	if bad == nil || bad["code"] != codeSolverError || !strings.Contains(bad["error"].(string), "unsupported value: +Inf") || bad["report"] != nil {
		t.Errorf("overflowing item record %v, want a solver_error naming +Inf", bad)
	}
	if good == nil || good["report"] == nil {
		t.Errorf("finite item record %v, want its report", good)
	}
	if recs[2]["done"] != true || recs[2]["count"] != 2.0 {
		t.Errorf("terminal record %v, want done with count 2", recs[2])
	}
	checkNoDisconnect(t, s, before)
}

// TestSolveNonFiniteSingleProblem: a one-problem push-relabel request
// answers with the error record and done, not an empty body.
func TestSolveNonFiniteSingleProblem(t *testing.T) {
	s, srv := newCountingServer(t)
	before := s.disconnects.Value()
	recs := readRecords(t, srv.URL+"/v1/solve",
		`{"solver":"push-relabel","problems":[`+overflowDIMACS+`]}`, http.StatusOK)
	if len(recs) != 2 || recs[0]["code"] != codeSolverError || recs[0]["index"] != 0.0 || recs[1]["done"] != true {
		t.Fatalf("records %v, want one solver_error record and done", recs)
	}
	checkNoDisconnect(t, s, before)
}

// TestSessionCreateNonFiniteReport: a base solve whose report cannot be
// encoded answers 422 solve_failed and creates no session.
func TestSessionCreateNonFiniteReport(t *testing.T) {
	s, srv := newCountingServer(t)
	before := s.disconnects.Value()
	recs := readRecords(t, srv.URL+"/v1/sessions",
		`{"solver":"push-relabel","problem":`+overflowDIMACS+`}`, http.StatusUnprocessableEntity)
	if env, _ := recs[0]["error"].(map[string]any); env == nil || env["code"] != codeSolveFailed {
		t.Fatalf("body %v, want the solve_failed envelope", recs)
	}
	s.mu.Lock()
	live := len(s.sessions)
	s.mu.Unlock()
	if live != 0 {
		t.Errorf("%d sessions live after a failed create, want 0", live)
	}
	readRecords(t, srv.URL+"/v1/sessions/s1/update", `{"updates":[{"edge":0,"capacity":1}]}`, http.StatusNotFound)
	checkNoDisconnect(t, s, before)
}

// TestSessionUpdateNonFiniteStepFails: a step whose report cannot be encoded
// is a failed step — a terminal error record, later steps never run, and
// the session stays at the last acknowledged problem.
func TestSessionUpdateNonFiniteStepFails(t *testing.T) {
	s, srv := newCountingServer(t)
	before := s.disconnects.Value()
	diamond := `{"dimacs":"p max 4 4\nn 1 s\nn 4 t\na 1 2 1\na 1 3 1\na 2 4 1\na 3 4 1\n"}`
	created := readRecords(t, srv.URL+"/v1/sessions", `{"solver":"push-relabel","problem":`+diamond+`}`, http.StatusOK)
	id, _ := created[0]["session_id"].(string)
	if id == "" {
		t.Fatalf("create response %v", created)
	}
	recs := readRecords(t, srv.URL+"/v1/sessions/"+id+"/update", `{"steps":[
		[{"edge":0,"capacity":1e308},{"edge":1,"capacity":1e308},{"edge":2,"capacity":1e308},{"edge":3,"capacity":1e308}],
		[{"edge":0,"capacity":2}]]}`, http.StatusOK)
	if len(recs) != 1 || recs[0]["code"] != codeSolverError || recs[0]["index"] != 0.0 ||
		!strings.Contains(recs[0]["error"].(string), "step 0 failed after 0 of 2 steps applied: report cannot be encoded") {
		t.Fatalf("records %v, want one terminal solver_error record for step 0", recs)
	}
	// The session is still at the diamond of unit arcs: raising arc 0 to 3
	// leaves the flow at 2, and this is the session's first applied step.
	recs = readRecords(t, srv.URL+"/v1/sessions/"+id+"/update", `{"updates":[{"edge":0,"capacity":3}]}`, http.StatusOK)
	if len(recs) != 2 {
		t.Fatalf("records %v, want a step record and done", recs)
	}
	if rep, _ := recs[0]["report"].(map[string]any); rep == nil || rep["flow_value"] != 2.0 {
		t.Errorf("step record %v, want flow 2 on the unit diamond", recs[0])
	}
	if recs[1]["done"] != true || recs[1]["session_updates"] != 1.0 {
		t.Errorf("done record %v, want session_updates 1", recs[1])
	}
	checkNoDisconnect(t, s, before)
}
