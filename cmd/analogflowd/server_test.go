package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"analogflow/internal/solve"
	"analogflow/internal/testutil"
)

const figure5Inline = `{"vertices":5,"source":0,"sink":4,"edges":[[0,1,3],[1,2,2],[1,3,1],[2,4,1],[3,4,2]]}`

func newTestServer(t *testing.T, workers int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newHandler(solve.NewService(solve.Config{Workers: workers})))
	t.Cleanup(srv.Close)
	return srv
}

// postSolve sends a solve request and returns the streamed items keyed by
// index, plus the final done line.
func postSolve(t *testing.T, srv *httptest.Server, body string) (map[int]map[string]any, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	items := make(map[int]map[string]any)
	var done map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if d, _ := m["done"].(bool); d {
			done = m
			continue
		}
		idx := int(m["index"].(float64))
		if _, dup := items[idx]; dup {
			t.Fatalf("index %d streamed twice", idx)
		}
		items[idx] = m
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return items, done
}

// TestSolveEndToEnd drives POST /v1/solve with all three problem encodings.
func TestSolveEndToEnd(t *testing.T) {
	srv := newTestServer(t, 2)
	body := fmt.Sprintf(`{"solver":"dinic","problems":[%s,{"dimacs":"p max 4 3\nn 1 s\nn 4 t\na 1 2 2\na 2 3 2\na 3 4 1\n"},{"rmat":{"vertices":32,"sparse":true,"seed":7}}]}`, figure5Inline)
	items, done := postSolve(t, srv, body)
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	if done == nil || done["count"].(float64) != 3 {
		t.Fatalf("missing/short done line: %v", done)
	}
	report := func(i int) map[string]any {
		rep, ok := items[i]["report"].(map[string]any)
		if !ok {
			t.Fatalf("item %d has no report: %v", i, items[i])
		}
		return rep
	}
	if v := report(0)["flow_value"].(float64); v != 2 {
		t.Errorf("figure5 flow %v, want 2", v)
	}
	if v := report(1)["flow_value"].(float64); v != 1 {
		t.Errorf("dimacs chain flow %v, want 1", v)
	}
	r2 := report(2)
	if r2["flow_value"].(float64) != r2["exact_value"].(float64) {
		t.Errorf("dinic on rmat is not exact: %v vs %v", r2["flow_value"], r2["exact_value"])
	}
	for i := range items {
		if items[i]["report"].(map[string]any)["solver"] != "dinic" {
			t.Errorf("item %d solved by %v", i, items[i]["report"].(map[string]any)["solver"])
		}
	}
}

// TestSolveSerialMatchesConcurrent pins the service determinism end to end:
// the same batch against a one-worker server and an eight-worker server must
// yield identical reports (wall time excluded).
func TestSolveSerialMatchesConcurrent(t *testing.T) {
	body := fmt.Sprintf(`{"solver":"behavioral","problems":[%s,{"rmat":{"vertices":48,"sparse":true,"seed":9}},%s,{"rmat":{"vertices":32,"sparse":true,"seed":3}},%s],"params":{"levels":20,"gbw":1e10,"seed":1}}`,
		figure5Inline, figure5Inline, figure5Inline)
	serialItems, _ := postSolve(t, newTestServer(t, 1), body)
	concItems, _ := postSolve(t, newTestServer(t, 8), body)
	if len(serialItems) != len(concItems) {
		t.Fatalf("item counts differ: %d vs %d", len(serialItems), len(concItems))
	}
	normalize := func(m map[string]any) map[string]any {
		rep, ok := m["report"].(map[string]any)
		if !ok {
			t.Fatalf("item has no report: %v", m)
		}
		delete(rep, "wall_time_ns")
		return rep
	}
	for i := range serialItems {
		a, b := normalize(serialItems[i]), normalize(concItems[i])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("item %d differs:\nserial:     %v\nconcurrent: %v", i, a, b)
		}
	}
}

func TestSolversEndpoint(t *testing.T) {
	srv := newTestServer(t, 1)
	resp, err := http.Get(srv.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Solvers []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		} `json:"solvers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range out.Solvers {
		names[s.Name] = true
		if s.Description == "" {
			t.Errorf("solver %s has no description", s.Name)
		}
	}
	for _, want := range []string{"behavioral", "circuit", "dinic", "edmonds-karp", "push-relabel", "lp", "decompose"} {
		if !names[want] {
			t.Errorf("solver %q not advertised", want)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv := newTestServer(t, 1)
	// Generate one request so the counters move.
	_, _ = postSolve(t, srv, fmt.Sprintf(`{"solver":"dinic","problems":[%s]}`, figure5Inline))
	// The slim liveness shape: status, version, draining — nothing else.
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var slim map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&slim); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slim["status"] != "ok" || slim["version"] != serverVersion || slim["draining"] != false {
		t.Errorf("slim healthz = %v, want status/version/draining", slim)
	}
	if _, ok := slim["stats"]; ok {
		t.Errorf("slim healthz still carries the counter dump: %v", slim)
	}
	// The counters live in /v1/metrics.
	_, samples, _ := scrapeMetrics(t, srv.URL)
	if samples["analogflow_requests_total"] < 1 || samples["analogflow_completed_total"] < 1 {
		t.Errorf("counters did not move: %v requests, %v completed",
			samples["analogflow_requests_total"], samples["analogflow_completed_total"])
	}
}

// blockingSolver solves instantly until armed, then blocks until the request
// context dies; it lets the cancellation test freeze a stream mid-batch.
type blockingSolver struct {
	started chan struct{}
	arm     atomic.Bool
}

func (b *blockingSolver) Name() string     { return "blocky" }
func (b *blockingSolver) Describe() string { return "test backend that can block until cancelled" }

func (b *blockingSolver) Solve(ctx context.Context, p *solve.Problem) (*solve.Report, error) {
	if b.arm.CompareAndSwap(true, false) {
		close(b.started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return &solve.Report{FlowValue: 1}, nil
}

// TestSolveCancelledStreamEndsWithError pins the truncation-detection fix: a
// request cancelled mid-batch must terminate its NDJSON stream with an error
// record carrying the context error — never with {"done":true}, which only a
// complete batch may emit.
func TestSolveCancelledStreamEndsWithError(t *testing.T) {
	reg := solve.DefaultRegistry()
	blocker := &blockingSolver{started: make(chan struct{})}
	if err := reg.Register(blocker); err != nil {
		t.Fatal(err)
	}
	handler := newHandler(solve.NewService(solve.Config{Registry: reg, Workers: 1}))

	body := fmt.Sprintf(`{"solver":"blocky","problems":[%s,%s,%s]}`, figure5Inline, figure5Inline, figure5Inline)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()

	// Problems share a fingerprint but blocky is not Warmable, so each item
	// is a fresh Solve; arm the blocker after the first completes.
	blocker.arm.Store(true)
	done := make(chan struct{})
	go func() {
		handler.ServeHTTP(rec, req)
		close(done)
	}()
	<-blocker.started
	cancel()
	<-done

	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("bad terminal line %q: %v", lines[len(lines)-1], err)
	}
	if d, _ := last["done"].(bool); d {
		t.Fatalf("cancelled stream ended with done:true: %v", last)
	}
	errStr, _ := last["error"].(string)
	if !strings.Contains(errStr, context.Canceled.Error()) {
		t.Fatalf("terminal record does not carry the context error: %v", last)
	}
	if aborted, _ := last["aborted"].(bool); !aborted {
		t.Fatalf("terminal record is not marked aborted (indistinguishable from a per-item error): %v", last)
	}
	for _, line := range lines[:len(lines)-1] {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if d, _ := m["done"].(bool); d {
			t.Fatalf("done record before the end of a cancelled stream: %v", m)
		}
	}
}

// getStats fetches /v1/stats from base and decodes the body into out.
func getStats(t *testing.T, base string, out any) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// postJSON posts a JSON body and returns the response.
func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSessionLifecycle drives the dynamic-graph surface end to end: create a
// session (base solve), stream capacity-update steps, watch the flow value
// track the mutated capacities, delete, 404 afterwards.
func TestSessionLifecycle(t *testing.T) {
	srv := newTestServer(t, 2)

	resp := postJSON(t, srv.URL+"/v1/sessions", fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("create: status %d: %s", resp.StatusCode, buf.String())
	}
	var created struct {
		SessionID string `json:"session_id"`
		Report    struct {
			FlowValue float64 `json:"flow_value"`
		} `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.SessionID == "" || created.Report.FlowValue != 2 {
		t.Fatalf("create response: %+v", created)
	}

	// Two steps: widen the bottlenecks (flow 3), then choke x1 (flow 1).
	upd := `{"steps":[
		[{"edge":1,"capacity":3},{"edge":3,"capacity":3},{"edge":2,"capacity":3},{"edge":4,"capacity":3}],
		[{"edge":0,"capacity":1}]
	]}`
	resp2 := postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update", upd)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp2.Body)
		t.Fatalf("update: status %d: %s", resp2.StatusCode, buf.String())
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("update content type %q", ct)
	}
	sc := bufio.NewScanner(resp2.Body)
	var flows []float64
	var warms []bool
	var done map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if d, _ := m["done"].(bool); d {
			done = m
			continue
		}
		rep, ok := m["report"].(map[string]any)
		if !ok {
			t.Fatalf("step has no report: %v", m)
		}
		flows = append(flows, rep["flow_value"].(float64))
		warms = append(warms, m["warm"].(bool))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 || flows[0] != 3 || flows[1] != 1 {
		t.Fatalf("step flows %v, want [3 1]", flows)
	}
	for i, warm := range warms {
		if !warm {
			t.Errorf("step %d was not absorbed warm", i)
		}
	}
	if done == nil || done["count"].(float64) != 2 {
		t.Fatalf("missing/short done record: %v", done)
	}

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+created.SessionID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	gone := postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update", `{"updates":[{"edge":0,"capacity":2}]}`)
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("update after delete: status %d, want 404", gone.StatusCode)
	}

	// Analog chains must be warm from their first update too: session create
	// builds the instance update-capable.
	resp3 := postJSON(t, srv.URL+"/v1/sessions", fmt.Sprintf(`{"solver":"behavioral","problem":%s}`, figure5Inline))
	var created2 struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&created2); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	r3 := postJSON(t, srv.URL+"/v1/sessions/"+created2.SessionID+"/update", `{"updates":[{"edge":1,"capacity":3}]}`)
	defer r3.Body.Close()
	sc3 := bufio.NewScanner(r3.Body)
	if !sc3.Scan() {
		t.Fatal("empty behavioral update stream")
	}
	var step map[string]any
	if err := json.Unmarshal(sc3.Bytes(), &step); err != nil {
		t.Fatal(err)
	}
	if warm, _ := step["warm"].(bool); !warm {
		t.Errorf("behavioral chain's first update was not absorbed warm: %v", step)
	}
}

// TestSessionsWithEqualContentBothStepWarm: a session owns its warm state.
// Two sessions over problems with identical content each answer their first
// step warm — neither can take the other's state.
func TestSessionsWithEqualContentBothStepWarm(t *testing.T) {
	for _, solver := range []string{"dinic", "behavioral"} {
		srv := newTestServer(t, 2)
		var ids []string
		for i := 0; i < 2; i++ {
			resp := postJSON(t, srv.URL+"/v1/sessions", fmt.Sprintf(`{"solver":%q,"problem":%s}`, solver, figure5Inline))
			var created struct {
				SessionID string `json:"session_id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if created.SessionID == "" {
				t.Fatalf("%s: create %d: status %d, no session id", solver, i, resp.StatusCode)
			}
			ids = append(ids, created.SessionID)
		}
		for _, id := range ids {
			resp := postJSON(t, srv.URL+"/v1/sessions/"+id+"/update", `{"updates":[{"edge":0,"capacity":5}]}`)
			lines := decodeLines(t, resp.Body)
			resp.Body.Close()
			if len(lines) != 2 || lines[1]["done"] != true {
				t.Fatalf("%s: session %s: update stream %v did not complete", solver, id, lines)
			}
			if lines[0]["warm"] != true {
				t.Errorf("%s: session %s stepped cold: %v", solver, id, lines[0])
			}
		}
	}
}

// TestSessionDeleteReleasesWarmState: DELETE /v1/sessions/{id} drops the
// warm state the chain held — the flat instance, or the sharded chain's
// region oracle — instead of leaving it cached until LRU eviction.
func TestSessionDeleteReleasesWarmState(t *testing.T) {
	for _, tc := range []struct {
		name, create, update string
		held                 [2]int // cached {instances, oracles} while live
	}{
		{"flat", fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline),
			`{"updates":[{"edge":0,"capacity":1}]}`, [2]int{1, 0}},
		{"sharded", `{"solver":"dinic","problem":{"rmat":{"vertices":200,"sparse":true,"seed":3}},"budget":{"max_vertices":80}}`,
			`{"updates":[{"edge":5,"capacity":9}]}`, [2]int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newTestServer(t, 2)
			resp := postJSON(t, srv.URL+"/v1/sessions", tc.create)
			var created struct {
				SessionID string `json:"session_id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if created.SessionID == "" {
				t.Fatalf("create: status %d, no session id", resp.StatusCode)
			}
			// One step, so the warm state answers for the chain's current
			// problem rather than its base.
			resp = postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update", tc.update)
			lines := decodeLines(t, resp.Body)
			resp.Body.Close()
			if len(lines) == 0 || lines[len(lines)-1]["done"] != true {
				t.Fatalf("update stream %v did not complete", lines)
			}
			var fleet struct {
				Cache statsCache `json:"cache"`
			}
			getStats(t, srv.URL, &fleet)
			if got := [2]int{fleet.Cache.Instances, fleet.Cache.Oracles}; got != tc.held {
				t.Fatalf("live session holds {instances, oracles} %v, want %v", got, tc.held)
			}

			del, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+created.SessionID, nil)
			if err != nil {
				t.Fatal(err)
			}
			dresp, err := http.DefaultClient.Do(del)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete: status %d", dresp.StatusCode)
			}
			getStats(t, srv.URL, &fleet)
			if fleet.Cache.Instances != 0 || fleet.Cache.Oracles != 0 {
				t.Errorf("deleted session left warm state cached: %+v", fleet.Cache)
			}
		})
	}
}

// TestSessionStructuralSteps drives structural dynamics over the wire: a
// remove_edges step parks an edge warm, a mixed step (capacity + add_edges)
// reclaims the parked slot, and a legacy array-form step still works in the
// same chain.  Structural step records carry structural/slack_remaining, and
// /v1/stats surfaces the structural counters.
func TestSessionStructuralSteps(t *testing.T) {
	srv := newTestServer(t, 2)

	// Parallel-lane graph: removing one 1->2 lane strands no vertex, so the
	// park stays value-level for every warmable backend.
	lanes := `{"vertices":4,"source":0,"sink":3,"edges":[[0,1,3],[1,2,2],[1,2,2],[2,3,3]]}`
	resp := postJSON(t, srv.URL+"/v1/sessions", fmt.Sprintf(`{"solver":"dinic","problem":%s}`, lanes))
	defer resp.Body.Close()
	var created struct {
		SessionID string `json:"session_id"`
		Report    struct {
			FlowValue float64 `json:"flow_value"`
		} `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.SessionID == "" || created.Report.FlowValue != 3 {
		t.Fatalf("create response: %+v", created)
	}

	// Park a lane (flow 2), reclaim it while widening 2->3 in the same step
	// (flow 3), then a legacy array-form capacity step (flow 1).
	upd := `{"steps":[
		{"remove_edges":[2]},
		{"updates":[{"edge":3,"capacity":4}],"add_edges":[[1,2,2]]},
		[{"edge":0,"capacity":1}]
	]}`
	resp2 := postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update", upd)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp2.Body)
		t.Fatalf("update: status %d: %s", resp2.StatusCode, buf.String())
	}
	sc := bufio.NewScanner(resp2.Body)
	var steps []map[string]any
	var done map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if d, _ := m["done"].(bool); d {
			done = m
			continue
		}
		steps = append(steps, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil || len(steps) != 3 {
		t.Fatalf("got %d step records, done=%v, want 3 steps + done", len(steps), done)
	}
	wantFlows := []float64{2, 3, 1}
	for i, m := range steps {
		rep, ok := m["report"].(map[string]any)
		if !ok {
			t.Fatalf("step %d has no report: %v", i, m)
		}
		if got := rep["flow_value"].(float64); got != wantFlows[i] {
			t.Errorf("step %d flow %g, want %g", i, got, wantFlows[i])
		}
		if warm, _ := m["warm"].(bool); !warm {
			t.Errorf("step %d was not absorbed warm: %v", i, m)
		}
	}
	// Structural records carry the slack gauge; the plain capacity step omits
	// the structural fields entirely.
	if steps[0]["structural"] != true || steps[0]["slack_remaining"].(float64) != 1 {
		t.Errorf("remove step record %v, want structural with slack_remaining 1", steps[0])
	}
	if steps[1]["structural"] != true || steps[1]["slack_remaining"].(float64) != 0 {
		t.Errorf("reclaim step record %v, want structural with slack_remaining 0", steps[1])
	}
	if _, ok := steps[2]["structural"]; ok {
		t.Errorf("capacity step record %v unexpectedly marked structural", steps[2])
	}

	_, samples, _ := scrapeMetrics(t, srv.URL)
	if got := samples["analogflow_structural_updates_total"]; got != 2 {
		t.Errorf("structural_updates = %v, want 2", got)
	}
	if _, ok := samples["analogflow_slack_exhausted_rebuilds_total"]; !ok {
		t.Error("metrics lack analogflow_slack_exhausted_rebuilds_total")
	}
}

// TestSessionShardedChainStaysWarm: a session over a problem above its
// budget runs every step through the partition planner — and stays warm step
// to step, because the service re-binds the chain's cached region oracle
// instead of rebuilding it cold.  The step reports carry the sharded plan and
// /v1/stats surfaces the sharded-update counters.
func TestSessionShardedChainStaysWarm(t *testing.T) {
	srv := newTestServer(t, 2)
	resp := postJSON(t, srv.URL+"/v1/sessions", `{"solver":"dinic",
		"problem":{"rmat":{"vertices":200,"sparse":true,"seed":3}},
		"budget":{"max_vertices":80}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("create: status %d: %s", resp.StatusCode, buf.String())
	}
	var created struct {
		SessionID string `json:"session_id"`
		Report    struct {
			Plan *solve.Plan `json:"plan"`
		} `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.Report.Plan == nil || !created.Report.Plan.Sharded {
		t.Fatalf("session base solve not sharded: %+v", created.Report.Plan)
	}

	upd := `{"steps":[
		[{"edge":5,"capacity":9}],
		[{"edge":7,"capacity":6},{"edge":11,"capacity":13}]
	]}`
	resp2 := postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update", upd)
	defer resp2.Body.Close()
	sc := bufio.NewScanner(resp2.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	steps := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if d, _ := m["done"].(bool); d {
			continue
		}
		if errMsg, ok := m["error"].(string); ok {
			t.Fatalf("step failed: %s", errMsg)
		}
		if warm, _ := m["warm"].(bool); !warm {
			t.Errorf("sharded session step %d was not warm", steps)
		}
		rep, _ := m["report"].(map[string]any)
		plan, _ := rep["plan"].(map[string]any)
		if plan == nil {
			t.Fatalf("step %d report carries no plan: %v", steps, rep)
		}
		if sharded, _ := plan["sharded"].(bool); !sharded {
			t.Errorf("step %d plan not sharded: %v", steps, plan)
		}
		steps++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if steps != 2 {
		t.Fatalf("streamed %d steps, want 2", steps)
	}

	_, samples, _ := scrapeMetrics(t, srv.URL)
	if upd, warm := samples["analogflow_sharded_updates_total"], samples["analogflow_sharded_update_warm_hits_total"]; upd != 2 || warm != 2 {
		t.Errorf("sharded-update counters %v/%v warm, want 2/2", upd, warm)
	}
	if got := samples["analogflow_cached_oracles"]; got != 1 {
		t.Errorf("cached_oracles %v, want 1", got)
	}
	if got := samples["analogflow_consensus_warm_starts_total"]; got < 1 {
		t.Errorf("consensus_warm_starts %v, want >= 1 (the chain carries consensus state)", got)
	}
	if iters, runs := samples["analogflow_consensus_outer_iterations_total"], samples["analogflow_consensus_outer_runs_total"]; runs == 0 || iters/runs <= 0 {
		t.Errorf("consensus outer iterations %v over %v runs, want a positive average", iters, runs)
	}
}

// flakySolver fails on one specific Solve call (1-based) and succeeds
// otherwise, reporting the call number as the flow value.
type flakySolver struct {
	calls    atomic.Int64
	failCall int64
}

func (f *flakySolver) Name() string     { return "flaky" }
func (f *flakySolver) Describe() string { return "test backend that fails one specific call" }

func (f *flakySolver) Solve(ctx context.Context, p *solve.Problem) (*solve.Report, error) {
	n := f.calls.Add(1)
	if n == f.failCall {
		return nil, fmt.Errorf("flaky: induced failure on call %d", n)
	}
	return &solve.Report{FlowValue: float64(n)}, nil
}

// TestSessionStepFailureEndsStreamWithoutDone pins the terminal-record
// contract on the session surface: a dynamic mid-chain step failure (a
// solver error — the statically checkable defects are rejected with 400
// before the stream starts) ends the stream with an error record —
// {"done":true} is reserved for fully applied requests — and the session
// survives at the last successfully applied state.
func TestSessionStepFailureEndsStreamWithoutDone(t *testing.T) {
	reg := solve.DefaultRegistry()
	// Call 1 is the session-create solve, call 2 step 0, call 3 step 1.
	if err := reg.Register(&flakySolver{failCall: 3}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(solve.NewService(solve.Config{Registry: reg, Workers: 1})))
	t.Cleanup(srv.Close)

	resp := postJSON(t, srv.URL+"/v1/sessions", fmt.Sprintf(`{"solver":"flaky","problem":%s}`, figure5Inline))
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body := `{"steps":[
		[{"edge":1,"capacity":3}],
		[{"edge":0,"capacity":2}],
		[{"edge":0,"capacity":1}]
	]}`
	r := postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update", body)
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(r.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 1 success record + 1 terminal error record, got %d lines:\n%s", len(lines), buf.String())
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if d, _ := last["done"].(bool); d {
		t.Fatalf("failed chain ended with done:true: %v", last)
	}
	errStr, _ := last["error"].(string)
	if !strings.Contains(errStr, "step 1 failed after 1 of 3 steps") || !strings.Contains(errStr, "induced failure") {
		t.Fatalf("terminal record does not describe the truncation: %v", last)
	}
	// The session survived at the step-0 state and keeps accepting updates.
	r2 := postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update", `{"updates":[{"edge":2,"capacity":1}]}`)
	defer r2.Body.Close()
	var first map[string]any
	sc := bufio.NewScanner(r2.Body)
	if !sc.Scan() {
		t.Fatal("empty follow-up stream")
	}
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if _, ok := first["report"].(map[string]any); !ok {
		t.Fatalf("follow-up update failed: %v", first)
	}
}

// TestSessionUpdateRejectsDuplicateEdgeUpfront: a duplicate edge within one
// step is statically checkable, so it must be a clean 400, never a 200 with
// a mid-stream error record.
func TestSessionUpdateRejectsDuplicateEdgeUpfront(t *testing.T) {
	srv := newTestServer(t, 1)
	resp := postJSON(t, srv.URL+"/v1/sessions", fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline))
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	r := postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update",
		`{"updates":[{"edge":0,"capacity":5},{"edge":0,"capacity":7}]}`)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate edge in one step: status %d, want 400", r.StatusCode)
	}
}

// TestSessionBadRequests covers the session-surface error paths and budgets.
func TestSessionBadRequests(t *testing.T) {
	srv := newTestServer(t, 1)
	create := func(body string) *http.Response { return postJSON(t, srv.URL+"/v1/sessions", body) }

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"missing solver", fmt.Sprintf(`{"problem":%s}`, figure5Inline), http.StatusBadRequest},
		{"unknown solver", fmt.Sprintf(`{"solver":"no-such","problem":%s}`, figure5Inline), http.StatusBadRequest},
		{"oversized problem", `{"solver":"dinic","problem":{"rmat":{"vertices":1000000000}}}`, http.StatusBadRequest},
		{"oversized dimacs", `{"solver":"dinic","problem":{"dimacs":"p max 20000000 0\nn 1 s\nn 2 t\n"}}`, http.StatusBadRequest},
		{"infinite capacity", `{"solver":"dinic","problem":{"dimacs":"p max 3 2\nn 1 s\nn 3 t\na 1 2 inf\na 2 3 1\n"}}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := create(tc.body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}

	// A real session for the update error paths.
	resp := create(fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline))
	var created struct {
		SessionID string `json:"session_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"no steps", `{}`, http.StatusBadRequest},
		{"empty step", `{"steps":[[]]}`, http.StatusBadRequest},
		{"edge out of range", `{"updates":[{"edge":99,"capacity":1}]}`, http.StatusBadRequest},
		{"negative capacity", `{"updates":[{"edge":0,"capacity":-1}]}`, http.StatusBadRequest},
		// Later steps are checked against the graph the earlier ones leave.
		{"capacity step before the append it names", `{"steps":[{"updates":[{"edge":5,"capacity":1}]},{"add_edges":[[0,2,1]]}]}`, http.StatusBadRequest},
		{"edge parked by an earlier step", `{"steps":[{"remove_edges":[1]},{"updates":[{"edge":0,"capacity":2}]},{"remove_edges":[1]}]}`, http.StatusBadRequest},
		{"capacity step after the append it names", `{"steps":[{"add_edges":[[0,2,1]]},{"updates":[{"edge":5,"capacity":1}]}]}`, http.StatusOK},
	} {
		t.Run("update/"+tc.name, func(t *testing.T) {
			r := postJSON(t, srv.URL+"/v1/sessions/"+created.SessionID+"/update", tc.body)
			r.Body.Close()
			if r.StatusCode != tc.status {
				t.Errorf("status %d, want %d", r.StatusCode, tc.status)
			}
		})
	}
	unknown := postJSON(t, srv.URL+"/v1/sessions/nope/update", `{"updates":[{"edge":0,"capacity":1}]}`)
	unknown.Body.Close()
	if unknown.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", unknown.StatusCode)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/nope", nil)
	dresp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("delete unknown session: status %d, want 404", dresp.StatusCode)
	}
}

func TestSolveBadRequests(t *testing.T) {
	srv := newTestServer(t, 1)
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{`},
		{"missing solver", fmt.Sprintf(`{"problems":[%s]}`, figure5Inline)},
		{"unknown solver", fmt.Sprintf(`{"solver":"no-such","problems":[%s]}`, figure5Inline)},
		{"no problems", `{"solver":"dinic","problems":[]}`},
		{"ambiguous problem", `{"solver":"dinic","problems":[{"dimacs":"p max 2 0\nn 1 s\nn 2 t\n","rmat":{"vertices":8}}]}`},
		{"oversized rmat", `{"solver":"dinic","problems":[{"rmat":{"vertices":1000000000}}]}`},
		{"oversized grid", `{"solver":"dinic","problems":[{"grid":{"width":100000,"height":100000}}]}`},
		{"degenerate grid", `{"solver":"dinic","problems":[{"grid":{"width":0,"height":8}}]}`},
		{"ambiguous grid", `{"solver":"dinic","problems":[{"grid":{"width":8,"height":8},"rmat":{"vertices":8}}]}`},
		{"oversized inline", `{"solver":"dinic","problems":[{"vertices":1000000000,"source":0,"sink":1,"edges":[[0,1,1]]}]}`},
		{"aggregate budget", func() string {
			// Each spec is individually legal; together they blow the
			// aggregate vertex budget.
			specs := make([]string, 16)
			for i := range specs {
				specs[i] = `{"vertices":1048576,"source":0,"sink":1,"edges":[[0,1,1]]}`
			}
			return `{"solver":"dinic","problems":[` + strings.Join(specs, ",") + `]}`
		}()},
		{"same source and sink", `{"solver":"dinic","problems":[{"dimacs":"p max 3 1\nn 1 s\nn 1 t\na 1 2 5\n"}]}`},
		{"fractional endpoint", `{"solver":"dinic","problems":[{"vertices":3,"source":0,"sink":2,"edges":[[0.5,2,1]]}]}`},
		{"bad levels param", fmt.Sprintf(`{"solver":"dinic","problems":[%s],"params":{"levels":-5}}`, figure5Inline)},
		{"bad gbw param", fmt.Sprintf(`{"solver":"dinic","problems":[%s],"params":{"gbw":-1}}`, figure5Inline)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	// Intake limits, checked before any problem is built, and non-finite
	// capacities; each names the problem at fault in the message.
	for _, tc := range []struct{ name, body, msg string }{
		// A 52-byte DIMACS problem line must not allocate 20M-vertex tables.
		{"oversized dimacs", `{"solver":"dinic","problems":[{"dimacs":"p max 20000000 0\nn 1 s\nn 2 t\n"}]}`,
			"problem 0: dimacs problem line declares 20000000 vertices, exceeding the limit of 1048576"},
		{"oversized dimacs on its last problem line", `{"solver":"dinic","problems":[` + figure5Inline +
			`,{"dimacs":"p max 2 0\nn 1 s\nn 2 t\np max 20000000 0\n"}]}`, "problem 1: dimacs problem line declares 20000000"},
		{"overflowing grid", `{"solver":"dinic","problems":[{"grid":{"width":4294967296,"height":4294967296}}]}`,
			"problem 0: grid dimensions 4294967296x4294967296 exceed the limit"},
		{"infinite dimacs capacity", `{"solver":"dinic","problems":[{"dimacs":"p max 4 4\nn 1 s\nn 4 t\na 1 2 inf\na 2 4 3\na 1 3 2\na 3 4 inf\n"}]}`,
			"problem 0: solve: invalid problem: DIMACS parse failed: dimacs: arc [0 1 +Inf]: graph: non-finite edge capacity"},
		{"nan dimacs capacity", `{"solver":"lp","problems":[{"dimacs":"p max 3 2\nn 1 s\nn 3 t\na 1 2 NaN\na 2 3 1\n"}]}`,
			"non-finite edge capacity"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+"/v1/solve", tc.body)
			defer resp.Body.Close()
			var body apiErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error.Message, tc.msg) {
				t.Errorf("status %d message %q, want 400 containing %q", resp.StatusCode, body.Error.Message, tc.msg)
			}
		})
	}
	// Method checks.
	resp, err := http.Get(srv.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}
}

// TestSolveBuildErrorNamesLowestIndex pins the parallel build's error
// contract: whatever the worker count and whichever build fails first, the
// 400 names the lowest failing problem, as a serial build does.
func TestSolveBuildErrorNamesLowestIndex(t *testing.T) {
	specs := []string{
		`{"rmat":{"vertices":256,"seed":1}}`,
		`{"rmat":{"vertices":512,"seed":2}}`,
		`{"dimacs":"p max 3 1\nn 1 s\nn 3 t\na 1 3 -1\n"}`,
		figure5Inline,
		`{"vertices":3,"edges":[[0,1,1]]}`,
		`{"rmat":{"vertices":1}}`,
	}
	body := `{"solver":"dinic","problems":[` + strings.Join(specs, ",") + `]}`
	for _, workers := range []int{1, 2, 8} {
		srv := newTestServer(t, workers)
		for i := 0; i < 5; i++ {
			resp := postJSON(t, srv.URL+"/v1/solve", body)
			var out apiErrorBody
			err := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(out.Error.Message, "bad request: problem 2: ") {
				t.Fatalf("workers=%d: status %d message %q (%v), want 400 naming problem 2", workers, resp.StatusCode, out.Error.Message, err)
			}
		}
	}
}

// TestSolveWithBudgetShardsAndReportsPlan drives the partition planner over
// HTTP: an R-MAT instance larger than the requested budget is auto-sharded,
// the streamed report carries the plan, and /v1/healthz surfaces the planner
// counters.
func TestSolveWithBudgetShardsAndReportsPlan(t *testing.T) {
	srv := newTestServer(t, 2)
	body := `{"solver":"dinic",
		"problems":[{"rmat":{"vertices":200,"sparse":true,"seed":9}}],
		"budget":{"max_vertices":80}}`
	items, done := postSolve(t, srv, body)
	if done == nil || len(items) != 1 {
		t.Fatalf("stream incomplete: items=%v done=%v", items, done)
	}
	rep, _ := items[0]["report"].(map[string]any)
	if rep == nil {
		t.Fatalf("no report in %v", items[0])
	}
	plan, _ := rep["plan"].(map[string]any)
	if plan == nil {
		t.Fatalf("report carries no plan: %v", rep)
	}
	if sharded, _ := plan["sharded"].(bool); !sharded {
		t.Errorf("plan not sharded: %v", plan)
	}
	if regions, _ := plan["regions"].(float64); regions < 2 {
		t.Errorf("plan regions %v, want >= 2", plan["regions"])
	}
	if bmv, _ := plan["budget_max_vertices"].(float64); bmv != 80 {
		t.Errorf("plan budget %v, want 80", plan["budget_max_vertices"])
	}
	exact, _ := rep["exact_value"].(float64)
	flow, _ := rep["flow_value"].(float64)
	if exact <= 0 || !testutil.AlmostEqual(flow, exact, 0.25) {
		t.Errorf("sharded flow %v vs exact %v beyond tolerance", flow, exact)
	}

	// Planner counters are visible through /v1/metrics.
	_, samples, _ := scrapeMetrics(t, srv.URL)
	if planned, sharded := samples["analogflow_planned_solves_total"], samples["analogflow_sharded_solves_total"]; planned != 1 || sharded != 1 {
		t.Errorf("planner counters %v planned / %v sharded, want 1 / 1", planned, sharded)
	}
}

// TestSolveBudgetValidation: malformed budgets are a clean 400.
func TestSolveWithBudgetValidation(t *testing.T) {
	srv := newTestServer(t, 1)
	for name, body := range map[string]string{
		"bad partitioner": fmt.Sprintf(`{"solver":"dinic","problems":[%s],"budget":{"max_vertices":64,"partitioner":"voronoi"}}`, figure5Inline),
		"tiny budget":     fmt.Sprintf(`{"solver":"dinic","problems":[%s],"budget":{"max_vertices":1}}`, figure5Inline),
	} {
		resp := postJSON(t, srv.URL+"/v1/solve", body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSolveBudgetMonolithicNoPlanNoise: an in-budget problem solves on the
// normal path and the report stays plan-free.
func TestSolveWithBudgetMonolithic(t *testing.T) {
	srv := newTestServer(t, 1)
	body := fmt.Sprintf(`{"solver":"dinic","problems":[%s],"budget":{"max_vertices":64}}`, figure5Inline)
	items, done := postSolve(t, srv, body)
	if done == nil || len(items) != 1 {
		t.Fatalf("stream incomplete: items=%v done=%v", items, done)
	}
	rep, _ := items[0]["report"].(map[string]any)
	if rep == nil {
		t.Fatalf("no report in %v", items[0])
	}
	if plan, present := rep["plan"]; present {
		t.Errorf("monolithic report unexpectedly carries a plan: %v", plan)
	}
}

// TestSolveGridProblem drives the grid problem encoding end to end: the same
// seeded spec solved by two exact backends yields the same (exact) flow value,
// and a budget-sharded grid solve reports its plan.
func TestSolveGridProblem(t *testing.T) {
	srv := newTestServer(t, 2)
	body := `{"solver":"dinic","problems":[
		{"grid":{"width":24,"height":16,"seed":3}},
		{"grid":{"width":24,"height":16,"eight":true,"seed":3}}]}`
	items, done := postSolve(t, srv, body)
	if done == nil || len(items) != 2 {
		t.Fatalf("stream incomplete: items=%v done=%v", items, done)
	}
	for i := range items {
		rep, _ := items[i]["report"].(map[string]any)
		if rep == nil {
			t.Fatalf("item %d has no report: %v", i, items[i])
		}
		if v, exact := rep["flow_value"].(float64), rep["exact_value"].(float64); v <= 0 || v != exact {
			t.Errorf("item %d: flow %v vs exact %v", i, v, exact)
		}
	}

	// The 8-neighbourhood variant has extra (diagonal) paths, so its max flow
	// strictly exceeds the 4-neighbourhood one on this instance.
	four := items[0]["report"].(map[string]any)["flow_value"].(float64)
	eight := items[1]["report"].(map[string]any)["flow_value"].(float64)
	if eight <= four {
		t.Errorf("8-neighbourhood flow %v not above 4-neighbourhood %v", eight, four)
	}

	// Sharded: the same grid under a two-region vertex budget routes through
	// the decomposition, reports the plan and stays within the consensus band
	// of the exact value (two regions converge on grid topologies; see
	// docs/solver.md, "Large instances").
	sharded := `{"solver":"push-relabel","problems":[{"grid":{"width":24,"height":16,"seed":3}}],
		"budget":{"max_vertices":233,"max_regions":2}}`
	items, done = postSolve(t, srv, sharded)
	if done == nil || len(items) != 1 {
		t.Fatalf("sharded stream incomplete: items=%v done=%v", items, done)
	}
	rep, _ := items[0]["report"].(map[string]any)
	if rep == nil {
		t.Fatalf("no report in %v", items[0])
	}
	if plan, _ := rep["plan"].(map[string]any); plan == nil || plan["sharded"] != true {
		t.Errorf("sharded grid solve has no sharded plan: %v", rep["plan"])
	}
	if v := rep["flow_value"].(float64); v <= 0 || math.Abs(v-four)/four > 0.25 {
		t.Errorf("sharded grid flow %v outside the consensus band of exact %v", v, four)
	}
}
