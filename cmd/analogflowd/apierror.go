package main

import (
	"fmt"
	"net/http"
	"strconv"
)

// serverVersion is the API surface version /v1/healthz and /v1/stats report.
const serverVersion = "0.11.2"

// Error codes of the v1 JSON error envelope.  Every non-stream error
// response — and the code field of mid-stream NDJSON error records — uses
// one of these; docs/api.md is the authoritative table.
const (
	codeBadRequest       = "bad_request"        // 400
	codeNotFound         = "not_found"          // 404
	codeMethodNotAllowed = "method_not_allowed" // 405
	codeSessionExpired   = "session_expired"    // 410
	codeSolveFailed      = "solve_failed"       // 422
	codeOverloaded       = "overloaded"         // 429 (admission shed)
	codeTooManySessions  = "too_many_sessions"  // 429 (session cap)
	codeDraining         = "draining"           // 503, and drain-cut streams
	codeSolverError      = "solver_error"       // mid-stream item failures
	codeAborted          = "aborted"            // mid-stream cancellation
)

// apiError is the body of the uniform v1 error envelope:
// {"error":{"code","message","retry_after_seconds?","idle_seconds?"}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds accompanies 429/503 responses and always agrees
	// with the Retry-After header.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// IdleSeconds accompanies session_expired: how long the session sat
	// unused before the TTL janitor evicted it.
	IdleSeconds float64 `json:"idle_seconds,omitempty"`
}

// apiErrorBody is the envelope wrapper.
type apiErrorBody struct {
	Error apiError `json:"error"`
}

// writeAPIError writes the uniform JSON error envelope.  It is the only
// non-stream error writer in the package — no http.Error plain-text bodies
// survive on the v1 surface.
func (s *server) writeAPIError(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.writeJSON(w, status, apiErrorBody{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeAPIErrorRetry is writeAPIError plus a Retry-After header whose value
// the body repeats in retry_after_seconds (header/body agreement is part of
// the API contract).
func (s *server) writeAPIErrorRetry(w http.ResponseWriter, status int, code string, retryAfterSec int, format string, args ...any) {
	if retryAfterSec < 1 {
		retryAfterSec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	s.writeJSON(w, status, apiErrorBody{Error: apiError{
		Code: code, Message: fmt.Sprintf(format, args...), RetryAfterSeconds: retryAfterSec}})
}

// methodNotAllowed is the path-only fallback handler behind every
// method-qualified route: it answers requests whose path matched but whose
// method did not with the envelope 405 and an Allow header.  (GET routes
// also serve HEAD, so their Allow lists both.)
func (s *server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeAPIError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			"method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow)
	}
}

// handleNotFound answers unknown paths with the envelope 404, so even
// route-level misses speak the v1 error shape.
func (s *server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeAPIError(w, http.StatusNotFound, codeNotFound, "no such endpoint: %s", r.URL.Path)
}
