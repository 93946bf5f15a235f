// Error-surface tests: every endpoint's failure statuses answer with the
// uniform v1 JSON envelope {"error":{"code","message",...}} — correct code
// per status, Retry-After header/body agreement on 429/503, Allow header on
// 405 — and no plain-text http.Error body survives anywhere.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"analogflow/internal/solve"
)

// decodeEnvelope asserts the response body is the v1 error envelope and
// returns its error object.
func decodeEnvelope(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error response Content-Type %q, want application/json", ct)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	errObj, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("body %v lacks the error envelope", body)
	}
	if code, _ := errObj["code"].(string); code == "" {
		t.Errorf("envelope %v lacks a code", errObj)
	}
	if msg, _ := errObj["message"].(string); msg == "" {
		t.Errorf("envelope %v lacks a message", errObj)
	}
	return errObj
}

// checkRetryAgreement asserts the Retry-After header and the envelope's
// retry_after_seconds field carry the same positive value.
func checkRetryAgreement(t *testing.T, resp *http.Response, errObj map[string]any) {
	t.Helper()
	hdr := resp.Header.Get("Retry-After")
	if hdr == "" {
		t.Error("response carries no Retry-After header")
		return
	}
	sec, err := strconv.Atoi(hdr)
	if err != nil || sec < 1 {
		t.Errorf("Retry-After header %q is not a positive integer", hdr)
	}
	if got, _ := errObj["retry_after_seconds"].(float64); int(got) != sec {
		t.Errorf("retry_after_seconds %v disagrees with Retry-After header %d", errObj["retry_after_seconds"], sec)
	}
}

// TestErrorEnvelopeTable drives every endpoint's 400/404/405/410 paths and
// checks status, code, and (for 405) the Allow header.
func TestErrorEnvelopeTable(t *testing.T) {
	svc := solve.NewService(solve.Config{Workers: 1})
	srv := newServer(svc, serverConfig{sessionTTL: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	// A session evicted past its TTL gives the 410 tombstone paths.
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
	expiredID, _ := created["session_id"].(string)
	if expiredID == "" {
		t.Fatalf("session create failed: %v", created)
	}
	if n := srv.evictExpired(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	// A second, live session gives the 400 paths that require the id to
	// resolve before the body is parsed.
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	created = nil
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	liveID, _ := created["session_id"].(string)
	if liveID == "" {
		t.Fatalf("second session create failed: %v", created)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantAllow  string
	}{
		{"solve bad JSON", "POST", "/v1/solve", `{not json`, 400, "bad_request", ""},
		{"solve unknown solver", "POST", "/v1/solve", `{"solver":"nope","problems":[` + figure5Inline + `]}`, 400, "bad_request", ""},
		{"solve empty batch", "POST", "/v1/solve", `{"solver":"dinic","problems":[]}`, 400, "bad_request", ""},
		{"solve bad budget", "POST", "/v1/solve", `{"solver":"dinic","problems":[` + figure5Inline + `],"budget":{"max_vertices":64,"partitioner":"voronoi"}}`, 400, "bad_request", ""},
		{"session create bad JSON", "POST", "/v1/sessions", `{not json`, 400, "bad_request", ""},
		{"session create missing solver", "POST", "/v1/sessions", `{"problem":` + figure5Inline + `}`, 400, "bad_request", ""},
		{"session update bad JSON", "POST", "/v1/sessions/" + liveID + "/update", `{not json`, 400, "bad_request", ""},
		{"unknown endpoint", "GET", "/v1/nope", "", 404, "not_found", ""},
		{"root path", "GET", "/", "", 404, "not_found", ""},
		{"update unknown session", "POST", "/v1/sessions/never-existed/update", `{"updates":[{"edge":0,"capacity":5}]}`, 404, "not_found", ""},
		{"delete unknown session", "DELETE", "/v1/sessions/never-existed", "", 404, "not_found", ""},
		{"solve wrong method", "PUT", "/v1/solve", "", 405, "method_not_allowed", "POST"},
		{"solve GET", "GET", "/v1/solve", "", 405, "method_not_allowed", "POST"},
		{"healthz wrong method", "POST", "/v1/healthz", "", 405, "method_not_allowed", "GET, HEAD"},
		{"metrics wrong method", "DELETE", "/v1/metrics", "", 405, "method_not_allowed", "GET, HEAD"},
		{"stats wrong method", "POST", "/v1/stats", "", 405, "method_not_allowed", "GET, HEAD"},
		{"solvers wrong method", "POST", "/v1/solvers", "", 405, "method_not_allowed", "GET, HEAD"},
		{"readyz wrong method", "PUT", "/v1/readyz", "", 405, "method_not_allowed", "GET, HEAD"},
		{"sessions wrong method", "PUT", "/v1/sessions", "", 405, "method_not_allowed", "POST"},
		{"session update wrong method", "GET", "/v1/sessions/s1/update", "", 405, "method_not_allowed", "POST"},
		{"session delete wrong method", "GET", "/v1/sessions/s1", "", 405, "method_not_allowed", "DELETE"},
		{"update expired session", "POST", "/v1/sessions/" + expiredID + "/update", `{"updates":[{"edge":0,"capacity":5}]}`, 410, "session_expired", ""},
		{"delete expired session", "DELETE", "/v1/sessions/" + expiredID, "", 410, "session_expired", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			errObj := decodeEnvelope(t, resp)
			if errObj["code"] != tc.wantCode {
				t.Errorf("code %v, want %q", errObj["code"], tc.wantCode)
			}
			if tc.wantAllow != "" {
				if got := resp.Header.Get("Allow"); got != tc.wantAllow {
					t.Errorf("Allow header %q, want %q", got, tc.wantAllow)
				}
			}
			if tc.wantStatus == 410 {
				if idle, _ := errObj["idle_seconds"].(float64); idle <= 0 {
					t.Errorf("session_expired envelope lacks idle_seconds: %v", errObj)
				}
			}
		})
	}
}

// failingSolver always fails; it drives the 422 solve_failed path.
type failingSolver struct{}

func (failingSolver) Name() string     { return "failing" }
func (failingSolver) Describe() string { return "test backend that always fails" }
func (failingSolver) Solve(ctx context.Context, p *solve.Problem) (*solve.Report, error) {
	return nil, fmt.Errorf("induced failure")
}

// TestErrorEnvelopeSolveFailed pins 422 solve_failed: a session create whose
// base solve fails answers with the envelope, not a plain-text body.
func TestErrorEnvelopeSolveFailed(t *testing.T) {
	reg := solve.NewRegistry()
	if err := reg.Register(failingSolver{}); err != nil {
		t.Fatal(err)
	}
	svc := solve.NewService(solve.Config{Workers: 1, Registry: reg})
	srv := newServer(svc, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"failing","problem":%s}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	errObj := decodeEnvelope(t, resp)
	if errObj["code"] != "solve_failed" {
		t.Errorf("code %v, want solve_failed", errObj["code"])
	}
}

// TestErrorEnvelopeTooManySessions pins 429 too_many_sessions: the session
// table at its cap refuses creates with the envelope and a diagnostic naming
// the oldest idle session.
func TestErrorEnvelopeTooManySessions(t *testing.T) {
	svc := solve.NewService(solve.Config{Workers: 1})
	srv := newServer(svc, serverConfig{sessionTTL: time.Minute})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	now := time.Now()
	srv.mu.Lock()
	for i := 0; i < maxSessions; i++ {
		sess := &session{id: fmt.Sprintf("cap%d", i)}
		sess.touch(now)
		srv.sessions[sess.id] = sess
	}
	srv.mu.Unlock()

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	errObj := decodeEnvelope(t, resp)
	if errObj["code"] != "too_many_sessions" {
		t.Errorf("code %v, want too_many_sessions", errObj["code"])
	}
	if msg, _ := errObj["message"].(string); !strings.Contains(msg, "caps live sessions") {
		t.Errorf("cap message %q lacks the diagnostic", msg)
	}
}

// TestErrorEnvelopeOverloaded pins 429 overloaded: an admission shed carries
// the envelope with header/body Retry-After agreement.
func TestErrorEnvelopeOverloaded(t *testing.T) {
	gate := newGateBackend(0)
	_, ts := gatedServer(t, gate, serverConfig{}, solve.Config{Workers: 1, MaxQueue: 1})

	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"solver":"gate","problems":[%s]}`, figure5Inline)))
		if err == nil {
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

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"gate","problems":[%s]}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	errObj := decodeEnvelope(t, resp)
	resp.Body.Close()
	if errObj["code"] != "overloaded" {
		t.Errorf("code %v, want overloaded", errObj["code"])
	}
	checkRetryAgreement(t, resp, errObj)

	close(gate.release)
	wg.Wait()
}

// TestErrorEnvelopeDraining pins 503 draining: a draining server refuses
// non-exempt routes with the envelope + Retry-After, while healthz, metrics,
// and stats keep answering.
func TestErrorEnvelopeDraining(t *testing.T) {
	svc := solve.NewService(solve.Config{Workers: 1})
	srv := newServer(svc, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	srv.beginDrain()

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problems":[%s]}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	errObj := decodeEnvelope(t, resp)
	resp.Body.Close()
	if errObj["code"] != "draining" {
		t.Errorf("code %v, want draining", errObj["code"])
	}
	checkRetryAgreement(t, resp, errObj)

	// Observability stays reachable through the drain.
	for _, path := range []string{"/v1/healthz", "/v1/metrics", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s during drain: status %d, want 200", path, resp.StatusCode)
		}
	}
}
