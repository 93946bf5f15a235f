package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
)

// client drives one server over one keep-alive connection, one request at a
// time: the closed loop of a batch pipeline that waits for each reply.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer
	// ids maps session slots to the ids the server assigned at open.
	ids map[int]string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base, ids: map[int]string{}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// exchange sends one request and reads the whole response.  The latency runs
// from the send to the last byte of the response, which for the NDJSON
// endpoints is the end of the terminal record.  The returned body is valid
// until the next exchange.
func (c *client) exchange(method, path string, body []byte) (int, []byte, time.Duration, error) {
	hreq, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.http.Do(hreq)
	if err != nil {
		return 0, nil, 0, err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, c.buf.Bytes(), lat, nil
}

// waitReady polls /v1/readyz until it answers 200.
func (c *client) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, _, _, err := c.exchange(http.MethodGet, "/v1/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("readyz not 200 within %v (status %d, err %v)", timeout, status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads /v1/metrics into a series → value map; series keys keep their
// label set, e.g. `analogflow_cache_events_total{cache="instance",event="hit"}`.
func (c *client) scrape() (map[string]float64, error) {
	status, body, _, err := c.exchange(http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/v1/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// outcome is what one request produced: its latency, the reports it
// carried and its response size, or the reason it failed.
type outcome struct {
	latency time.Duration
	reports []*report
	bytes   int
	err     error
}

// send issues req and checks the response: always that it is complete and
// error-free, and with verify also every answer.  Only the exchange is
// timed; the checks run after the clock has stopped.
func (c *client) send(req *request, verify bool) outcome {
	path := "/v1/solve"
	switch req.kind {
	case reqOpen:
		path = "/v1/sessions"
	case reqUpdate:
		path = "/v1/sessions/" + c.ids[req.session] + "/update"
	}
	status, body, lat, err := c.exchange(http.MethodPost, path, req.body)
	out := outcome{latency: lat, bytes: normalizedSize(body)}
	if err != nil {
		out.err = err
		return out
	}
	if status/100 != 2 {
		out.err = fmt.Errorf("%s: status %d: %.200s", path, status, body)
		return out
	}
	out.reports, out.err = c.check(req, body, verify)
	return out
}

// report holds the solve.Report fields the checks and the trace read.
type report struct {
	Solver        string    `json:"solver"`
	FlowValue     float64   `json:"flow_value"`
	ExactValue    float64   `json:"exact_value"`
	RelativeError float64   `json:"relative_error"`
	EdgeFlows     []float64 `json:"edge_flows"`
	Plan          *struct {
		Sharded         bool `json:"sharded"`
		OuterIterations int  `json:"outer_iterations"`
		RegionSolves    int  `json:"region_solves"`
		RegionSkips     int  `json:"region_skips"`
		Escalated       bool `json:"escalated"`
	} `json:"plan"`
	WallTimeNS int64 `json:"wall_time_ns"`
}

// record is one NDJSON line of a solve or update stream.
type record struct {
	Index    *int    `json:"index"`
	Report   *report `json:"report"`
	Error    string  `json:"error"`
	Done     bool    `json:"done"`
	Count    int     `json:"count"`
	Aborted  bool    `json:"aborted"`
	Draining bool    `json:"draining"`
}

// Error bands of the approximate reports: the behavioral model's Figure 10
// band and the sharded consensus band, both 25% relative error as the
// repository's fig10 and sharded-update tests gate them.
const approxBand = 0.25

// check validates a response against the benchmark's own expected values.
// A request fails on an error or abort record, a missing or miscounted done
// record, or any report outside its contract.
func (c *client) check(req *request, body []byte, verify bool) ([]*report, error) {
	if req.kind == reqOpen {
		var resp struct {
			SessionID string  `json:"session_id"`
			Report    *report `json:"report"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("session open: %w", err)
		}
		if resp.SessionID == "" || resp.Report == nil {
			return nil, fmt.Errorf("session open: no session id or report")
		}
		c.ids[req.session] = resp.SessionID
		if !verify {
			return []*report{resp.Report}, nil
		}
		in := req.items[0]
		return []*report{resp.Report}, checkReport(resp.Report, req.solver, req.sharded, in.exact, in.g.NumEdges(), in.g)
	}
	want := len(req.items)
	if req.kind == reqUpdate {
		want = len(req.steps)
	}
	reports := make([]*report, want)
	done := false
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			i = len(body)
		}
		line := body[:i]
		body = body[min(i+1, len(body)):]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if done {
			return nil, fmt.Errorf("record after the done record")
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("bad record: %w", err)
		}
		switch {
		case rec.Error != "" || rec.Aborted || rec.Draining:
			return nil, fmt.Errorf("error record: %s", rec.Error)
		case rec.Done:
			if rec.Count != want {
				return nil, fmt.Errorf("done count %d, want %d", rec.Count, want)
			}
			done = true
		case rec.Index == nil || *rec.Index < 0 || *rec.Index >= want || rec.Report == nil || reports[*rec.Index] != nil:
			return nil, fmt.Errorf("bad or duplicate record %.120s", line)
		default:
			reports[*rec.Index] = rec.Report
		}
	}
	if !done {
		return nil, fmt.Errorf("stream ended without a done record")
	}
	if !verify {
		return reports, nil
	}
	for i, rep := range reports {
		var err error
		if req.kind == reqUpdate {
			s := req.steps[i]
			err = checkReport(rep, req.solver, req.sharded, s.exact, s.edges, s.verify)
		} else {
			in := req.items[i]
			// The first item of every request is the fixed VerifyOptimal sample.
			var verify *graph.Graph
			if i == 0 {
				verify = in.g
			}
			err = checkReport(rep, req.solver, false, in.exact, in.g.NumEdges(), verify)
		}
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return reports, nil
}

// checkReport holds one report to its contract: the exact value the
// benchmark computed itself; for flat dinic and push-relabel the same flow
// value and a full edge-flow vector (optimal, on the sample); for the
// behavioral model and sharded solves, the documented error band.
func checkReport(rep *report, solver string, sharded bool, exact float64, edges int, verify *graph.Graph) error {
	tol := 1e-9 * math.Max(1, math.Abs(exact))
	if math.Abs(rep.ExactValue-exact) > tol {
		return fmt.Errorf("exact_value %g, benchmark computed %g", rep.ExactValue, exact)
	}
	if rep.Solver != solver {
		return fmt.Errorf("solver %q, want %q", rep.Solver, solver)
	}
	if sharded != (rep.Plan != nil && rep.Plan.Sharded) {
		return fmt.Errorf("sharded plan %v, want %v", !sharded, sharded)
	}
	if sharded || solver == "behavioral" {
		if exact > 0 && math.Abs(rep.FlowValue-exact)/exact > approxBand {
			return fmt.Errorf("flow_value %g outside the %.0f%% band of %g", rep.FlowValue, 100*approxBand, exact)
		}
		return nil
	}
	if math.Abs(rep.FlowValue-exact) > tol {
		return fmt.Errorf("flow_value %g, exact %g", rep.FlowValue, exact)
	}
	if len(rep.EdgeFlows) != edges {
		return fmt.Errorf("%d edge flows for %d edges", len(rep.EdgeFlows), edges)
	}
	if verify != nil {
		f := &graph.Flow{Edge: rep.EdgeFlows, Value: rep.FlowValue}
		if err := maxflow.VerifyOptimal(verify, f, 1e-6*math.Max(1, exact)); err != nil {
			return err
		}
	}
	return nil
}

// normalizedSize is the response size with every wall_time_ns value counted
// as one digit, so that the one measured field cannot make the size of
// otherwise identical responses differ.
func normalizedSize(body []byte) int {
	const key = `"wall_time_ns":`
	n := len(body)
	for rest := body; ; {
		i := bytes.Index(rest, []byte(key))
		if i < 0 {
			return n
		}
		rest = rest[i+len(key):]
		d := 0
		for d < len(rest) && (rest[d] >= '0' && rest[d] <= '9' || rest[d] == '-') {
			d++
		}
		n -= d - 1
		rest = rest[d:]
	}
}
