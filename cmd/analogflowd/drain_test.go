// Shutdown-semantics tests: graceful drain (handler-level and full SIGTERM
// end-to-end), session TTL eviction, the session-cap diagnostic, and the
// HTTP mapping of admission-queue sheds (429 + Retry-After).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"analogflow/internal/solve"
)

// gateBackend blocks on the release channel starting from call number
// blockFrom (1-based; 0 blocks every call), so tests can pin a worker while
// earlier calls (e.g. a session-create solve) pass through.
type gateBackend struct {
	blockFrom int64
	calls     atomic.Int64
	started   chan struct{}
	release   chan struct{}
}

func newGateBackend(blockFrom int64) *gateBackend {
	return &gateBackend{
		blockFrom: blockFrom,
		started:   make(chan struct{}, 64),
		release:   make(chan struct{}),
	}
}

func (b *gateBackend) Name() string     { return "gate" }
func (b *gateBackend) Describe() string { return "test backend gated on a channel" }

func (b *gateBackend) Solve(ctx context.Context, p *solve.Problem) (*solve.Report, error) {
	if n := b.calls.Add(1); n >= b.blockFrom {
		b.started <- struct{}{}
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &solve.Report{FlowValue: 1}, nil
}

func (b *gateBackend) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-b.started:
	case <-time.After(10 * time.Second):
		t.Fatal("gated solve never started")
	}
}

// gatedServer builds a server over a single-worker service whose sole
// backend is the gate solver.
func gatedServer(t *testing.T, gate *gateBackend, cfg serverConfig, svcCfg solve.Config) (*server, *httptest.Server) {
	t.Helper()
	reg := solve.NewRegistry()
	if err := reg.Register(gate); err != nil {
		t.Fatal(err)
	}
	svcCfg.Registry = reg
	srv := newServer(solve.NewService(svcCfg), cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// decodeLines parses an NDJSON stream into its records.
func decodeLines(t *testing.T, r io.Reader) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDrainStreamFinishesCurrentRecordAndRefusesNew pins the handler-level
// drain contract: the in-flight batch item finishes and its record is
// emitted, the not-yet-started items are cut with a terminal
// {"draining":true} line, new requests get 503 + Retry-After, /v1/readyz
// flips 503 while /v1/healthz stays 200.
func TestDrainStreamFinishesCurrentRecordAndRefusesNew(t *testing.T) {
	gate := newGateBackend(0)
	srv, ts := gatedServer(t, gate, serverConfig{}, solve.Config{Workers: 1})

	type streamOut struct {
		lines []map[string]any
		err   error
	}
	streamCh := make(chan streamOut, 1)
	go func() {
		body := fmt.Sprintf(`{"solver":"gate","problems":[%s,%s,%s]}`, figure5Inline, figure5Inline, figure5Inline)
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			streamCh <- streamOut{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			streamCh <- streamOut{err: fmt.Errorf("batch status %d", resp.StatusCode)}
			return
		}
		var out streamOut
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				out.err = err
				break
			}
			out.lines = append(out.lines, m)
		}
		streamCh <- out
	}()

	gate.waitStarted(t) // item 0 is executing; items 1 and 2 have not started
	srv.beginDrain()

	// New work is refused while the stream is still alive.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"gate","problems":[%s]}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}
	// Readiness flips before liveness ever does.
	if resp, err = http.Get(ts.URL + "/v1/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: status %d, want 503", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: status %d, want 200", resp.StatusCode)
	}

	close(gate.release)
	out := <-streamCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.lines) != 2 {
		t.Fatalf("stream has %d lines, want report + draining terminal: %v", len(out.lines), out.lines)
	}
	if _, ok := out.lines[0]["report"]; !ok {
		t.Errorf("in-flight item did not finish its record: %v", out.lines[0])
	}
	last := out.lines[len(out.lines)-1]
	if last["draining"] != true || last["count"].(float64) != 1 {
		t.Errorf("terminal record %v, want draining with count 1", last)
	}
	if gate.calls.Load() != 1 {
		t.Errorf("drained items reached the solver: %d calls, want 1", gate.calls.Load())
	}
}

// TestDrainSessionUpdateEmitsTerminalRecord pins the session-chain drain
// contract: the step in flight when drain begins is applied and acknowledged
// by its own record; the remaining steps are cut with a terminal
// {"draining":true,"count":applied} line, so no acknowledged step is lost.
func TestDrainSessionUpdateEmitsTerminalRecord(t *testing.T) {
	gate := newGateBackend(2) // call 1 = session create; call 2 = first update step
	srv, ts := gatedServer(t, gate, serverConfig{}, solve.Config{Workers: 1})

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"gate","problem":%s}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id, _ := created["session_id"].(string)
	if id == "" {
		t.Fatalf("no session id in %v", created)
	}

	type result struct {
		lines []map[string]any
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/update", "application/json",
			strings.NewReader(`{"steps":[[{"edge":0,"capacity":5}],[{"edge":1,"capacity":6}],[{"edge":2,"capacity":7}]]}`))
		if err != nil {
			ch <- result{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			ch <- result{err: fmt.Errorf("update status %d", resp.StatusCode)}
			return
		}
		var res result
		res.lines = decodeLines(t, resp.Body)
		ch <- res
	}()

	gate.waitStarted(t) // step 0 executing
	srv.beginDrain()
	close(gate.release)
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.lines) != 2 {
		t.Fatalf("update stream has %d lines, want step record + draining terminal: %v", len(out.lines), out.lines)
	}
	if _, ok := out.lines[0]["report"]; !ok {
		t.Errorf("in-flight step not acknowledged: %v", out.lines[0])
	}
	last := out.lines[1]
	if last["draining"] != true || last["count"].(float64) != 1 {
		t.Errorf("terminal record %v, want draining with count 1", last)
	}
}

// TestSessionTTLEvictionFreesWarmState pins the session lifecycle: an idle
// session past the TTL is evicted by the janitor sweep, its warm solver
// state is released, later updates see 410 Gone with a session-expired body
// (distinct from the 404 an unknown id gets), and the eviction is accounted
// in /v1/stats.
func TestSessionTTLEvictionFreesWarmState(t *testing.T) {
	svc := solve.NewService(solve.Config{Workers: 1})
	srv := newServer(svc, serverConfig{sessionTTL: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id, _ := created["session_id"].(string)
	if id == "" {
		t.Fatalf("create response %v has no session_id", created)
	}
	if created["last_used"] == nil || created["expires_at"] == nil {
		t.Errorf("create response lacks lifecycle stamps: %v", created)
	}
	if got := scrapeSeries(t, ts.URL, "analogflow_cached_instances"); got != 1 {
		t.Fatalf("session holds %v warm instances, want 1", got)
	}

	// Deterministic sweep: pretend a minute has passed.
	if n := srv.evictExpired(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evictExpired removed %d sessions, want 1", n)
	}
	if got := scrapeSeries(t, ts.URL, "analogflow_cached_instances"); got != 0 {
		t.Errorf("eviction left %v warm instances cached", got)
	}
	resp, err = http.Post(ts.URL+"/v1/sessions/"+id+"/update", "application/json",
		strings.NewReader(`{"updates":[{"edge":0,"capacity":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var gone map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("update on evicted session: status %d, want 410", resp.StatusCode)
	}
	goneErr, _ := gone["error"].(map[string]any)
	if goneErr == nil || goneErr["code"] != "session_expired" {
		t.Errorf("410 body %v, want error.code=session_expired", gone)
	}
	if idle, ok := goneErr["idle_seconds"].(float64); !ok || idle <= 0 {
		t.Errorf("410 body %v lacks a positive idle duration", gone)
	}
	// An id that never existed stays a plain 404.
	resp, err = http.Post(ts.URL+"/v1/sessions/never-existed/update", "application/json",
		strings.NewReader(`{"updates":[{"edge":0,"capacity":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("update on unknown session: status %d, want 404", resp.StatusCode)
	}
	// DELETE distinguishes the same way.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err = http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("delete on evicted session: status %d, want 410", resp.StatusCode)
	}
	// /v1/stats accounts the eviction.
	var fleet struct {
		Sessions statsSessions `json:"sessions"`
	}
	getStats(t, ts.URL, &fleet)
	if fleet.Sessions.Expired != 1 || fleet.Sessions.Live != 0 {
		t.Errorf("stats sessions block %+v, want expired=1 live=0", fleet.Sessions)
	}
}

// TestSessionCapErrorNamesOldestIdle pins the cap diagnostic: the 429
// message names the oldest idle session and its idle age, so a locked-out
// operator can find the stuck client.
func TestSessionCapErrorNamesOldestIdle(t *testing.T) {
	srv := newServer(solve.NewService(solve.Config{Workers: 1}), serverConfig{sessionTTL: time.Minute})
	now := time.Now()
	for i, age := range []time.Duration{10 * time.Second, 45 * time.Second, 5 * time.Second} {
		sess := &session{id: fmt.Sprintf("s%d", i+1)}
		sess.touch(now.Add(-age))
		srv.sessions[sess.id] = sess
	}
	msg := srv.sessionCapError(now)
	if !strings.Contains(msg, "s2") || !strings.Contains(msg, "45s") {
		t.Errorf("cap error does not name the oldest idle session: %q", msg)
	}
	if !strings.Contains(msg, "expire after 1m") {
		t.Errorf("cap error does not mention the TTL: %q", msg)
	}
}

// TestShedSolve429WithRetryAfter pins the HTTP overload mapping: with one
// worker pinned and the admission queue full, a single-problem solve is shed
// as a clean 429 with a Retry-After header — no 200 stream, no worker slot —
// and the shed shows up in /v1/metrics.
func TestShedSolve429WithRetryAfter(t *testing.T) {
	gate := newGateBackend(0)
	_, ts := gatedServer(t, gate, serverConfig{}, solve.Config{Workers: 1, MaxQueue: 1})

	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		body := fmt.Sprintf(`{"solver":"gate","problems":[%s]}`, figure5Inline)
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	wg.Add(1)
	go post() // occupies the worker
	gate.waitStarted(t)
	wg.Add(1)
	go post() // fills the bounded queue
	deadline := time.Now().Add(10 * time.Second)
	for queueDepth(t, ts.URL) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	callsBefore := gate.calls.Load()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"gate","problems":[%s]}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, want 429 (%v)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	shedErr, _ := body["error"].(map[string]any)
	if shedErr == nil || shedErr["code"] != "overloaded" || shedErr["retry_after_seconds"] == nil {
		t.Errorf("429 body lacks error envelope with code/retry_after_seconds: %v", body)
	}
	if gate.calls.Load() != callsBefore {
		t.Error("shed request consumed a worker slot")
	}

	close(gate.release)
	wg.Wait()
	if got := scrapeSeries(t, ts.URL, "analogflow_shed_requests_total"); got < 1 {
		t.Errorf("shed_requests = %v, want >= 1", got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer, safe for the server goroutine
// to write while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDrainSIGTERMEndToEnd exercises the real shutdown path: run() under a
// live streaming batch and an active session update chain, killed with
// SIGTERM.  The acceptance contract: /v1/readyz turns 503 while /v1/healthz
// still answers 200, the batch stream ends with a terminal draining record,
// every applied session step was acknowledged by its own record before the
// terminal line, and run() exits nil within the drain window.
func TestDrainSIGTERMEndToEnd(t *testing.T) {
	var out syncBuffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-addr", "127.0.0.1:0",
			"-workers", "1",
			"-drain-timeout", "30s",
		}, &out)
	}()
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); ; {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A long streaming batch: enough distinct problems — on the slowest
	// backend, against a single worker — that the batch is still running
	// when the signal lands.
	var probs []string
	for i := 0; i < 600; i++ {
		probs = append(probs, fmt.Sprintf(`{"rmat":{"vertices":512,"sparse":true,"seed":%d}}`, i+1))
	}
	type stream struct {
		records  int
		terminal map[string]any
		err      error
	}
	readStream := func(resp *http.Response) stream {
		defer resp.Body.Close()
		var s stream
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				s.err = err
				return s
			}
			if m["draining"] == true || m["done"] == true || m["aborted"] == true {
				s.terminal = m
				continue
			}
			s.records++
		}
		s.err = sc.Err()
		return s
	}
	batchCh := make(chan stream, 1)
	batchStarted := make(chan struct{})
	go func() {
		body := fmt.Sprintf(`{"solver":"behavioral","problems":[%s]}`, strings.Join(probs, ","))
		resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			batchCh <- stream{err: err}
			return
		}
		close(batchStarted) // headers in: at least one record has been solved
		batchCh <- readStream(resp)
	}()

	// An active session chain riding the priority lane at the same time.
	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"solver":"behavioral","problem":{"rmat":{"vertices":512,"sparse":true,"seed":777}}}`))
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id, _ := created["session_id"].(string)
	if id == "" {
		t.Fatalf("session create failed: %v", created)
	}
	var steps []string
	for i := 0; i < 300; i++ {
		steps = append(steps, fmt.Sprintf(`[{"edge":%d,"capacity":%d}]`, i%5, 3+i%7))
	}
	sessCh := make(chan stream, 1)
	go func() {
		body := fmt.Sprintf(`{"steps":[%s]}`, strings.Join(steps, ","))
		resp, err := http.Post(base+"/v1/sessions/"+id+"/update", "application/json", strings.NewReader(body))
		if err != nil {
			sessCh <- stream{err: err}
			return
		}
		sessCh <- readStream(resp)
	}()

	select {
	case <-batchStarted:
	case <-time.After(30 * time.Second):
		t.Fatal("batch stream never started")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Readiness flips strictly before liveness stops answering.
	readyDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/readyz")
		if err != nil {
			break // listener already closed: drain completed under us
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if resp, err := http.Get(base + "/v1/healthz"); err == nil {
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK {
					t.Errorf("healthz answered %d while draining, want 200", code)
				}
			}
			break
		}
		if time.Now().After(readyDeadline) {
			t.Fatal("readyz never flipped to 503 after SIGTERM")
		}
		time.Sleep(2 * time.Millisecond)
	}

	batch := <-batchCh
	if batch.err != nil {
		t.Fatalf("batch stream: %v", batch.err)
	}
	if batch.terminal == nil || batch.terminal["draining"] != true {
		t.Fatalf("batch terminal %v, want draining", batch.terminal)
	}
	if got := int(batch.terminal["count"].(float64)); got != batch.records {
		t.Errorf("batch terminal acknowledges %d results but %d records were streamed", got, batch.records)
	}
	if batch.records >= len(probs) {
		t.Errorf("batch finished all %d items; the drain never cut it short", len(probs))
	}

	sess := <-sessCh
	if sess.err != nil {
		t.Fatalf("session stream: %v", sess.err)
	}
	if sess.terminal == nil {
		t.Fatal("session stream has no terminal record")
	}
	// Zero lost applied steps: the terminal count must equal the records the
	// client actually read, whether the chain drained or completed first.
	if got := int(sess.terminal["count"].(float64)); got != sess.records {
		t.Errorf("session terminal acknowledges %d steps but %d records were streamed", got, sess.records)
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run() returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("run() did not exit within the drain window")
	}
	if !strings.Contains(out.String(), "drained, exiting") {
		t.Errorf("shutdown log missing drain confirmation: %q", out.String())
	}
}
