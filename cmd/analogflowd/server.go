package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/metrics"
	"analogflow/internal/parallel"
	"analogflow/internal/rmat"
	"analogflow/internal/solve"
)

// serverConfig carries the failure-domain knobs of the HTTP facade.
type serverConfig struct {
	// sessionTTL is the idle time after which the janitor evicts a session
	// and releases its warm solver state; <= 0 disables eviction.
	sessionTTL time.Duration
	// defaultTimeout is the per-request deadline applied when a request
	// carries no timeout_ms of its own; <= 0 means no default deadline.
	defaultTimeout time.Duration
}

// server is the HTTP facade over one solve.Service.
type server struct {
	svc   *solve.Service
	cfg   serverConfig
	start time.Time

	// draining flips once on SIGINT/SIGTERM: /v1/readyz turns 503, new
	// requests are refused, and in-flight NDJSON streams finish their
	// current record and end with a terminal {"draining":true} line.
	draining atomic.Bool
	// disconnects counts streams and responses cut short by a client that
	// went away mid-write (broken pipe); expired counts TTL-evicted
	// sessions.  Both live in the service's instrument registry, so they
	// surface in /v1/metrics and /v1/stats alike.
	disconnects *metrics.Counter
	expired     *metrics.Counter

	mu       sync.Mutex
	sessions map[string]*session
	// tombstones remembers TTL-evicted session ids with the idle time that
	// killed them, so a client returning to an expired session gets 410 Gone
	// (re-create and continue) instead of the 404 a typo gets.  Bounded at
	// maxTombstones; the oldest entry is dropped first.
	tombstones map[string]tombstone
	nextID     int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// session is one long-lived update chain: a solver bound to the problem at
// the head of the chain.  Updates are serialised per session; each one routes
// through solve.Service.Update, so the chain rides the warm state the service
// holds for the session's current problem — its own, which no other session
// and no one-shot solve can take or evict.
type session struct {
	id     string
	solver string
	// lastUsed is the UnixNano of the session's last applied step (or its
	// creation), read lock-free by the janitor and the cap error message.
	lastUsed atomic.Int64

	mu      sync.Mutex
	problem *solve.Problem
	// updates counts the update steps (capacity and structural) applied over
	// the session's lifetime; every update stream's done record reports it.
	updates int
	deleted bool
}

// tombstone records a TTL-evicted session: the idle time that expired it and
// when the eviction happened (used to drop the oldest entry at the cap).
type tombstone struct {
	idle time.Duration
	at   time.Time
}

// touch stamps the session as just used.
func (sess *session) touch(now time.Time) { sess.lastUsed.Store(now.UnixNano()) }

// idle reports how long the session has sat unused.
func (sess *session) idle(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, sess.lastUsed.Load()))
}

// newServer builds the facade; handler() wires its routes.  The server's
// own counters (disconnects, expired sessions) and gauges (live sessions,
// draining flag) register in the service's instrument registry, so one
// /v1/metrics scrape covers the whole process.
func newServer(svc *solve.Service, cfg serverConfig) *server {
	s := &server{svc: svc, cfg: cfg, start: time.Now(),
		sessions: make(map[string]*session), tombstones: make(map[string]tombstone)}
	m := svc.Metrics()
	s.disconnects = m.Counter("analogflow_client_disconnects_total",
		"Streams and responses cut short by a client that went away mid-write.", nil)
	s.expired = m.Counter("analogflow_expired_sessions_total",
		"Sessions evicted by the TTL janitor.", nil)
	m.GaugeFunc("analogflow_sessions_live", "Live update sessions.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})
	m.GaugeFunc("analogflow_server_draining", "1 while the server is draining.", nil, func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	return s
}

// newHandler wires the API routes with default failure-domain knobs; it is
// the unit most of the httptest suite drives.
func newHandler(svc *solve.Service) http.Handler {
	return newServer(svc, serverConfig{}).handler()
}

// drainExempt lists the paths that keep answering while the server drains:
// probes and observability, so load balancers fail over and scrapers keep
// watching the drain itself.
var drainExempt = map[string]bool{
	"/v1/healthz": true,
	"/v1/readyz":  true,
	"/v1/metrics": true,
	"/v1/stats":   true,
}

// handler wires the API routes behind the drain gate.  Every route is
// registered with a Go 1.22 method pattern; a path-only fallback per route
// answers wrong-method requests with the JSON envelope 405 + Allow header
// (the method pattern is more specific, so it wins for matching methods),
// and the root fallback answers unknown paths with the envelope 404.  Once
// the server is draining every route except the drainExempt set refuses
// with the envelope 503 + Retry-After, so load balancers fail over while
// in-flight work finishes.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/update", s.handleSessionUpdate)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	// GET routes serve HEAD too, so their Allow lists both.
	mux.HandleFunc("/v1/solvers", s.methodNotAllowed("GET, HEAD"))
	mux.HandleFunc("/v1/healthz", s.methodNotAllowed("GET, HEAD"))
	mux.HandleFunc("/v1/readyz", s.methodNotAllowed("GET, HEAD"))
	mux.HandleFunc("/v1/metrics", s.methodNotAllowed("GET, HEAD"))
	mux.HandleFunc("/v1/stats", s.methodNotAllowed("GET, HEAD"))
	mux.HandleFunc("/v1/solve", s.methodNotAllowed("POST"))
	mux.HandleFunc("/v1/sessions", s.methodNotAllowed("POST"))
	mux.HandleFunc("/v1/sessions/{id}/update", s.methodNotAllowed("POST"))
	mux.HandleFunc("/v1/sessions/{id}", s.methodNotAllowed("DELETE"))
	mux.HandleFunc("/", s.handleNotFound)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && !drainExempt[r.URL.Path] {
			s.writeAPIErrorRetry(w, http.StatusServiceUnavailable, codeDraining, 1, "server draining")
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// beginDrain flips the server into drain mode (idempotent).
func (s *server) beginDrain() { s.draining.Store(true) }

// deadlineFor resolves a request's timeout_ms (0 = server default, < 0
// rejected by the handlers) into an absolute deadline; the zero time means
// no deadline.
func (s *server) deadlineFor(timeoutMS int) time.Time {
	d := s.cfg.defaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// startJanitor launches the TTL eviction loop; no-op without a TTL.
func (s *server) startJanitor() {
	if s.cfg.sessionTTL <= 0 {
		return
	}
	interval := s.cfg.sessionTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	s.janitorStop = make(chan struct{})
	s.janitorDone = make(chan struct{})
	go func() {
		defer close(s.janitorDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.evictExpired(time.Now())
			case <-s.janitorStop:
				return
			}
		}
	}()
}

// stopJanitor stops the eviction loop and waits for it to exit.
func (s *server) stopJanitor() {
	if s.janitorStop == nil {
		return
	}
	close(s.janitorStop)
	<-s.janitorDone
	s.janitorStop = nil
}

// evictExpired removes every session idle past the TTL, releasing the warm
// solver state the service holds for it, and reports how many went.  A
// session whose mutex is held is mid-update — not idle — and is skipped;
// the stamp is re-checked under the lock so an update landing between the
// scan and the lock wins.
func (s *server) evictExpired(now time.Time) int {
	ttl := s.cfg.sessionTTL
	if ttl <= 0 {
		return 0
	}
	s.mu.Lock()
	var candidates []*session
	for _, sess := range s.sessions {
		if sess.idle(now) >= ttl {
			candidates = append(candidates, sess)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, sess := range candidates {
		if !sess.mu.TryLock() {
			continue
		}
		if sess.deleted || sess.idle(now) < ttl {
			sess.mu.Unlock()
			continue
		}
		sess.deleted = true
		prob, solver := sess.problem, sess.solver
		idle := sess.idle(now)
		sess.mu.Unlock()
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.recordTombstoneLocked(sess.id, idle, now)
		s.mu.Unlock()
		s.svc.Release(prob, solver)
		s.expired.Inc()
		n++
	}
	return n
}

// recordTombstoneLocked remembers a TTL eviction so later requests against the
// id can answer 410 Gone instead of 404.  Callers hold s.mu.  The table is
// bounded: at the cap the oldest tombstone is dropped, degrading its id back
// to a plain 404 — acceptable, since tombstones are a courtesy, not state.
func (s *server) recordTombstoneLocked(id string, idle time.Duration, now time.Time) {
	if len(s.tombstones) >= maxTombstones {
		oldestID, oldest := "", time.Time{}
		for tid, ts := range s.tombstones {
			if oldestID == "" || ts.at.Before(oldest) {
				oldestID, oldest = tid, ts.at
			}
		}
		delete(s.tombstones, oldestID)
	}
	s.tombstones[id] = tombstone{idle: idle, at: now}
}

// / writeSessionExpired answers for a tombstoned session id: 410 Gone tells the
// client the session existed and was TTL-evicted (re-create and replay), as
// opposed to the 404 an id that never existed gets.
func (s *server) writeSessionExpired(w http.ResponseWriter, ts tombstone) {
	s.writeJSON(w, http.StatusGone, apiErrorBody{Error: apiError{
		Code:        codeSessionExpired,
		Message:     fmt.Sprintf("session expired after %s idle; re-create it and replay", ts.idle.Round(time.Second)),
		IdleSeconds: ts.idle.Seconds(),
	}})
}

// sessionCapError builds the 429 message for a full session table, naming
// the oldest idle session's age so operators can spot stuck clients.
func (s *server) sessionCapError(now time.Time) string {
	msg := fmt.Sprintf("too many sessions: the server caps live sessions at %d; DELETE one first", maxSessions)
	var oldest *session
	for _, sess := range s.sessions { // callers hold s.mu
		if oldest == nil || sess.lastUsed.Load() < oldest.lastUsed.Load() {
			oldest = sess
		}
	}
	if oldest != nil {
		msg += fmt.Sprintf(" (oldest idle session %s has been idle %s", oldest.id, oldest.idle(now).Round(time.Second))
		if s.cfg.sessionTTL > 0 {
			msg += fmt.Sprintf("; idle sessions expire after %s", s.cfg.sessionTTL)
		}
		msg += ")"
	}
	return msg
}

func (s *server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	reg := s.svc.Registry()
	var out struct {
		Solvers []entry `json:"solvers"`
	}
	for _, name := range reg.Names() {
		sol, err := reg.Get(name)
		if err != nil {
			continue
		}
		out.Solvers = append(out.Solvers, entry{Name: name, Description: sol.Describe()})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleHealthz is the liveness probe: version, draining flag, nothing
// else — the counters live in /v1/stats.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"version":  serverVersion,
		"draining": s.draining.Load(),
	})
}

// handleReadyz is the load-balancer probe: 200 while the server accepts
// work, 503 the moment draining begins — strictly before /v1/healthz stops
// answering, which it never does while the process lives.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": true})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// problemSpec is one problem in a solve request; exactly one of the three
// encodings must be present.
type problemSpec struct {
	// Inline graph: edges are [from, to, capacity] triples, 0-based.
	Vertices int          `json:"vertices,omitempty"`
	Source   *int         `json:"source,omitempty"`
	Sink     *int         `json:"sink,omitempty"`
	Edges    [][3]float64 `json:"edges,omitempty"`
	// DIMACS max-flow text.
	DIMACS string `json:"dimacs,omitempty"`
	// Synthetic R-MAT instance.
	RMAT *rmatSpec `json:"rmat,omitempty"`
	// Synthetic image-segmentation grid instance (graph.SegmentationGrid):
	// the vision-style workload at 10^5–10^6 vertices the large-instance
	// solver path is tuned for.
	Grid *gridSpec `json:"grid,omitempty"`
}

type rmatSpec struct {
	Vertices int   `json:"vertices"`
	Sparse   bool  `json:"sparse"`
	Seed     int64 `json:"seed"`
}

type gridSpec struct {
	Width  int `json:"width"`
	Height int `json:"height"`
	// Eight selects the 8-neighbourhood (diagonal links); default 4.
	Eight bool `json:"eight,omitempty"`
	// Seed adds deterministic per-pixel noise; 0 is the exact noiseless image.
	Seed int64 `json:"seed,omitempty"`
}

// paramSpec exposes the substrate knobs the CLI exposes.  Pointer fields
// distinguish "absent" (use the default) from an explicit value, so e.g.
// seed 0 is requestable and invalid values are rejected instead of ignored.
type paramSpec struct {
	Levels *int     `json:"levels,omitempty"`
	GBW    *float64 `json:"gbw,omitempty"`
	Seed   *int64   `json:"seed,omitempty"`
}

// budgetSpec exposes the partition planner's substrate budget per request: a
// problem larger than max_vertices is automatically sharded into overlapping
// regions (at most max_regions of them, split by the named partitioner) and
// solved through the N-region dual decomposition with the requested backend
// as the per-region oracle; the resulting report carries the chosen plan.
// Omitting the block falls back to the server-wide -budget-* flags.
type budgetSpec struct {
	MaxVertices int    `json:"max_vertices"`
	MaxRegions  int    `json:"max_regions,omitempty"`
	Partitioner string `json:"partitioner,omitempty"`
}

func (b *budgetSpec) budget() solve.Budget {
	if b == nil {
		return solve.Budget{}
	}
	return solve.Budget{MaxVertices: b.MaxVertices, MaxRegions: b.MaxRegions, Partitioner: b.Partitioner}
}

type solveRequest struct {
	Solver   string        `json:"solver"`
	Problems []problemSpec `json:"problems"`
	Params   *paramSpec    `json:"params,omitempty"`
	Budget   *budgetSpec   `json:"budget,omitempty"`
	// TimeoutMS bounds each item of the request — admission-queue wait plus
	// execution; 0 falls back to the server's -default-timeout.  A request
	// whose deadline the admission queue judges unmeetable is shed with 429
	// + Retry-After instead of queueing to certain failure.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Request-size bounds: the endpoint is public surface, so one request must
// not be able to allocate unbounded memory before any solve starts.  The
// body cap bounds inline/DIMACS instances; the per-problem caps bound what a
// few-byte generator spec (or a DIMACS problem line) can expand into; and
// because per-problem caps multiply with the batch length, an aggregate
// vertex/edge budget is enforced across the whole request.  Both are checked
// against the sizes the specs declare, before any problem is materialised.
// Session budgets ride the same philosophy: a session pins a problem (and a
// warm solver instance) for its whole lifetime, so both the live-session
// count and the per-update step count are bounded alongside the per-problem
// size caps that apply at creation.
const (
	maxRequestBytes  = 32 << 20
	maxBatchProblems = 1024
	maxVertices      = 1 << 20
	maxBatchVertices = 4 << 20
	maxBatchEdges    = 16 << 20
	maxSessions      = 256
	maxUpdateSteps   = maxBatchProblems
	maxTombstones    = 4 * maxSessions
)

// specSize returns the vertex and edge counts spec declares, read without
// building anything, and applies the per-problem vertex cap of every
// encoding.  Inline and DIMACS edge counts are bounded by the request body,
// and an R-MAT preset declares at most max(vertices, 8000) edges plus
// rmat.MaxPathEdges.
func specSize(spec problemSpec) (vertices, edges int, err error) {
	declared := 0
	if spec.Edges != nil || spec.Vertices != 0 {
		declared++
	}
	if spec.DIMACS != "" {
		declared++
	}
	if spec.RMAT != nil {
		declared++
	}
	if spec.Grid != nil {
		declared++
	}
	if declared != 1 {
		return 0, 0, fmt.Errorf("problem must carry exactly one of edges, dimacs, rmat or grid")
	}
	switch {
	case spec.DIMACS != "":
		n, m, ok := graph.DIMACSSize(spec.DIMACS)
		if !ok {
			// No well-formed problem line: the reader rejects the text
			// before it allocates anything.
			return 0, 0, nil
		}
		if n > maxVertices {
			return 0, 0, fmt.Errorf("dimacs problem line declares %d vertices, exceeding the limit of %d", n, maxVertices)
		}
		return n, m, nil
	case spec.RMAT != nil:
		if spec.RMAT.Vertices > maxVertices {
			return 0, 0, fmt.Errorf("rmat vertices %d exceeds the limit of %d", spec.RMAT.Vertices, maxVertices)
		}
		// The generator may add rmat.MaxPathEdges edges past the preset's
		// count to ensure an s-t path; the declaration is an upper bound.
		p := spec.RMAT.params()
		return p.Vertices, p.Edges + rmat.MaxPathEdges, nil
	case spec.Grid != nil:
		w, h := spec.Grid.Width, spec.Grid.Height
		if w < 1 || h < 1 {
			return 0, 0, fmt.Errorf("grid dimensions %dx%d must be positive", w, h)
		}
		if w > maxVertices || h > maxVertices {
			// Bounding each side first keeps w*h from overflowing.
			return 0, 0, fmt.Errorf("grid dimensions %dx%d exceed the limit of %d vertices", w, h, maxVertices)
		}
		if v := 2 + w*h; v > maxVertices {
			return 0, 0, fmt.Errorf("grid spec expands to %d vertices, exceeding the limit of %d", v, maxVertices)
		}
		// Every neighbour pair is linked both ways, and every pixel has one
		// terminal link.
		pairs := (w-1)*h + w*(h-1)
		if spec.Grid.Eight {
			pairs += 2 * (w - 1) * (h - 1)
		}
		return 2 + w*h, 2*pairs + w*h, nil
	default:
		if spec.Vertices > maxVertices {
			return 0, 0, fmt.Errorf("inline graph vertices %d exceeds the limit of %d", spec.Vertices, maxVertices)
		}
		return spec.Vertices, len(spec.Edges), nil
	}
}

// params returns the R-MAT preset the spec names.
func (r *rmatSpec) params() rmat.Params {
	if r.Sparse {
		return rmat.SparseParams(r.Vertices, r.Seed)
	}
	return rmat.DenseParams(r.Vertices, r.Seed)
}

// buildProblem converts one spec that specSize accepted into a validated
// solve.Problem.
func buildProblem(spec problemSpec, opts []solve.Option) (*solve.Problem, error) {
	switch {
	case spec.DIMACS != "":
		return solve.FromDIMACS(strings.NewReader(spec.DIMACS), opts...)
	case spec.RMAT != nil:
		return solve.FromRMAT(spec.RMAT.params(), opts...)
	case spec.Grid != nil:
		gs := spec.Grid
		return solve.FromSegmentationGrid(gs.Width, gs.Height, gs.Eight, gs.Seed, opts...)
	default:
		if spec.Source == nil || spec.Sink == nil {
			return nil, fmt.Errorf("inline graph needs source and sink")
		}
		g, err := graph.New(spec.Vertices, *spec.Source, *spec.Sink)
		if err != nil {
			return nil, err
		}
		for i, e := range spec.Edges {
			if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
				return nil, fmt.Errorf("edge %d has non-integer endpoints [%g, %g]", i, e[0], e[1])
			}
			if _, err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
				return nil, err
			}
		}
		return solve.NewProblem(g, opts...)
	}
}

// buildProblems checks every spec's declared size against the per-problem
// caps and the aggregate budget before it builds any problem, then builds
// them on up to the service's worker bound of goroutines (inline for one
// problem or one worker).  A failure names the lowest failing index, as a
// serial build would, and no build starts past an index that already failed.
func (s *server) buildProblems(specs []problemSpec, opts []solve.Option) ([]*solve.Problem, error) {
	totalVertices, totalEdges := 0, 0
	for i, spec := range specs {
		// The aggregate budget is checked before each problem's size is
		// added, so the worst overshoot is one problem's own (capped) size.
		if totalVertices > maxBatchVertices || totalEdges > maxBatchEdges {
			return nil, fmt.Errorf("batch exceeds the aggregate size budget (%d vertices / %d edges) at problem %d",
				maxBatchVertices, maxBatchEdges, i)
		}
		v, e, err := specSize(spec)
		if err != nil {
			return nil, fmt.Errorf("problem %d: %w", i, err)
		}
		totalVertices += v
		totalEdges += e
	}
	probs := make([]*solve.Problem, len(specs))
	var failed atomic.Int64 // lowest index that failed to build so far
	failed.Store(int64(len(specs)))
	err := parallel.ForEachLimit(len(specs), s.svc.Workers(), func(i int) error {
		if int64(i) > failed.Load() {
			return nil
		}
		p, err := buildProblem(specs[i], opts)
		if err != nil {
			for {
				cur := failed.Load()
				if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			return fmt.Errorf("problem %d: %w", i, err)
		}
		probs[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return probs, nil
}

// solveOptions translates the request's parameter and budget blocks,
// rejecting values the substrate configuration cannot accept (NewProblem
// re-validates the assembled Params, so this mostly produces earlier,
// clearer messages).
func solveOptions(ps *paramSpec, bs *budgetSpec) ([]solve.Option, error) {
	var opts []solve.Option
	if bs != nil {
		b := bs.budget()
		if err := b.Validate(); err != nil {
			return nil, err
		}
		opts = append(opts, solve.WithBudget(b))
	}
	if ps == nil {
		return opts, nil
	}
	params := core.DefaultParams()
	if ps.Levels != nil {
		if *ps.Levels < 1 {
			return nil, fmt.Errorf("levels must be at least 1, got %d", *ps.Levels)
		}
		params = params.WithLevels(*ps.Levels)
	}
	if ps.GBW != nil {
		if *ps.GBW <= 0 {
			return nil, fmt.Errorf("gbw must be positive, got %g", *ps.GBW)
		}
		params = params.WithGBW(*ps.GBW)
	}
	if ps.Seed != nil {
		params.Seed = *ps.Seed
	}
	return append(opts, solve.WithParams(params)), nil
}

// retryAfterSeconds converts an overload error's back-off into whole
// seconds, at least 1 (the Retry-After header unit).
func retryAfterSeconds(ovl *solve.OverloadError) int {
	sec := int(math.Ceil(ovl.RetryAfter.Seconds()))
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: %v", err)
		return
	}
	if req.Solver == "" {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: missing solver")
		return
	}
	if _, err := s.svc.Registry().Get(req.Solver); err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: %v", err)
		return
	}
	if len(req.Problems) == 0 {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: no problems")
		return
	}
	if len(req.Problems) > maxBatchProblems {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: %d problems exceeds the batch limit of %d", len(req.Problems), maxBatchProblems)
		return
	}
	if req.TimeoutMS < 0 {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: timeout_ms must be non-negative, got %d", req.TimeoutMS)
		return
	}
	opts, err := solveOptions(req.Params, req.Budget)
	if err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: params: %v", err)
		return
	}
	probs, err := s.buildProblems(req.Problems, opts)
	if err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: %v", err)
		return
	}
	reqs := make([]solve.Request, len(probs))
	for i, prob := range probs {
		reqs[i] = solve.Request{Solver: req.Solver, Problem: prob, Deadline: s.deadlineFor(req.TimeoutMS)}
	}

	bufp := recordBufs.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() { *bufp = buf[:0]; recordBufs.Put(bufp) }()
	flusher, _ := w.(http.Flusher)
	// The NDJSON header is deferred until the first record: a single-problem
	// request whose only item is shed by the admission queue gets a clean
	// 429 + Retry-After instead of a 200 stream with one error record.
	headerWritten := false
	startStream := func() {
		if headerWritten {
			return
		}
		headerWritten = true
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	// clientGone flips on the first failed stream write; it feeds the stop
	// hook below so the remaining batch items are skipped instead of being
	// solved for a dead socket.
	var clientGone atomic.Bool
	shedOnly := false
	emitted, stopped := 0, 0
	// The batch's stop hook is checked before each item starts: draining
	// servers and disconnected clients cut the batch short, while in-flight
	// items finish their record.
	stop := func() bool { return s.draining.Load() || clientGone.Load() }
	// solveBatch serialises onResult calls, so the record buffer needs no
	// extra locking; each completed solve streams out immediately.
	s.svc.SolveBatchDrain(r.Context(), reqs, func(res solve.BatchResult) {
		if errors.Is(res.Err, solve.ErrStopped) {
			stopped++
			return
		}
		var ovl *solve.OverloadError
		if len(reqs) == 1 && res.Err != nil && errors.As(res.Err, &ovl) && !headerWritten {
			// The whole request was shed before any output: map it to 429.
			s.writeAPIErrorRetry(w, http.StatusTooManyRequests, codeOverloaded,
				retryAfterSeconds(ovl), "%v", res.Err)
			headerWritten = true
			shedOnly = true
			return
		}
		startStream()
		item := streamItem{Index: res.Index, Report: res.Report}
		if res.Err != nil {
			item.Report = nil
			item.Error = res.Err.Error()
			item.Code = codeSolverError
			if errors.As(res.Err, &ovl) {
				item.Code = codeOverloaded
				item.RetryAfterSeconds = retryAfterSeconds(ovl)
			}
		}
		line, err := item.appendJSON(buf[:0])
		if err != nil {
			// A report holding a NaN or ±Inf number (a flow value past
			// MaxFloat64) cannot be encoded: the item fails like a solve.
			item = streamItem{Index: res.Index, Code: codeSolverError,
				Error: fmt.Sprintf("report cannot be encoded: %v", err)}
			line, _ = item.appendJSON(buf[:0])
		}
		buf = line
		if _, err := w.Write(buf); err != nil {
			if clientGone.CompareAndSwap(false, true) {
				s.disconnects.Inc()
			}
			return
		}
		emitted++
		if flusher != nil {
			flusher.Flush()
		}
	}, stop)
	if shedOnly || clientGone.Load() {
		// The 429 already answered, or the client is gone — either way there
		// is no stream to terminate.
		return
	}
	startStream()
	// The terminal record tells the client whether the stream it read is the
	// whole batch: {"done":true} only for a completed batch; a cancelled,
	// expired or drained request ends with a marked record instead, so a
	// truncated stream is never mistaken for a complete one.
	last := streamItem{Done: true, Count: len(reqs)}
	if stopped > 0 {
		last = streamItem{Draining: true, Code: codeDraining, Error: fmt.Sprintf("server draining: %d of %d results emitted", emitted, len(reqs)), Count: emitted}
	} else if err := r.Context().Err(); err != nil {
		last = streamItem{Aborted: true, Code: codeAborted, Error: fmt.Sprintf("stream aborted after %d of %d results: %v", emitted, len(reqs), err), Count: emitted}
	}
	buf, _ = last.appendJSON(buf[:0])
	_, _ = w.Write(buf)
}

// --- long-lived update sessions --------------------------------------------

// sessionCreateRequest opens an update session: one solver, one problem.
type sessionCreateRequest struct {
	Solver  string      `json:"solver"`
	Problem problemSpec `json:"problem"`
	Params  *paramSpec  `json:"params,omitempty"`
	Budget  *budgetSpec `json:"budget,omitempty"`
	// TimeoutMS bounds the base solve; 0 falls back to -default-timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// edgeUpdate is one edge mutation of an update step.
type edgeUpdate struct {
	Edge     int     `json:"edge"`
	Capacity float64 `json:"capacity"`
}

// stepSpec is one update step.  Two wire forms are accepted: the legacy array
// form — a bare list of {"edge","capacity"} mutations — and the object form,
// which can combine a capacity component ("updates") with structural
// mutations in one atomic step: "add_edges" lists [from, to, capacity]
// triples (same shape as inline problem edges) and "remove_edges" lists edge
// indices to park.  Within a mixed step the capacity component applies first
// (its indices refer to the pre-step edge list), then the structural one.
type stepSpec struct {
	Updates     []edgeUpdate
	AddEdges    [][3]float64
	RemoveEdges []int
}

func (sp *stepSpec) UnmarshalJSON(b []byte) error {
	if t := bytes.TrimLeft(b, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		return json.Unmarshal(b, &sp.Updates)
	}
	var obj struct {
		Updates     []edgeUpdate `json:"updates,omitempty"`
		AddEdges    [][3]float64 `json:"add_edges,omitempty"`
		RemoveEdges []int        `json:"remove_edges,omitempty"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		return err
	}
	sp.Updates, sp.AddEdges, sp.RemoveEdges = obj.Updates, obj.AddEdges, obj.RemoveEdges
	return nil
}

// updateStep is one resolved step of a session update chain.
type updateStep struct {
	capacity   graph.CapacityUpdate
	structural *graph.StructuralUpdate
}

// step converts the wire spec into the service's update vocabulary, rejecting
// non-integer endpoints in add_edges.
func (sp stepSpec) step() (updateStep, error) {
	var st updateStep
	for _, e := range sp.Updates {
		st.capacity.Edges = append(st.capacity.Edges, e.Edge)
		st.capacity.Capacities = append(st.capacity.Capacities, e.Capacity)
	}
	if len(sp.AddEdges) == 0 && len(sp.RemoveEdges) == 0 {
		return st, nil
	}
	su := &graph.StructuralUpdate{RemoveEdges: sp.RemoveEdges}
	for i, e := range sp.AddEdges {
		if e[0] != math.Trunc(e[0]) || e[1] != math.Trunc(e[1]) {
			return st, fmt.Errorf("add_edges[%d] has non-integer endpoints [%g, %g]", i, e[0], e[1])
		}
		su.AddEdges = append(su.AddEdges, graph.Edge{From: int(e[0]), To: int(e[1]), Capacity: e[2]})
	}
	st.structural = su
	return st, nil
}

// sessionUpdateRequest carries one or more update steps.  Each step is one
// atomic mutation of the session's current problem — capacity changes,
// structural edge insertion/removal, or both — and the response streams one
// NDJSON report per step.  The top-level "updates"/"add_edges"/"remove_edges"
// fields are shorthand for a single leading step.
type sessionUpdateRequest struct {
	Updates     []edgeUpdate `json:"updates,omitempty"`
	AddEdges    [][3]float64 `json:"add_edges,omitempty"`
	RemoveEdges []int        `json:"remove_edges,omitempty"`
	Steps       []stepSpec   `json:"steps,omitempty"`
	// TimeoutMS bounds each step of the request; 0 falls back to the
	// server's -default-timeout.  Update steps ride the admission queue's
	// priority lane, so a session chain is shed only behind other priority
	// traffic.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// sessionTimes reports the session's lifecycle stamps for responses: the
// last-used time and, when a TTL applies, when the session expires.
func (s *server) sessionTimes(sess *session) (lastUsed string, expiresAt string) {
	last := time.Unix(0, sess.lastUsed.Load())
	lastUsed = last.UTC().Format(time.RFC3339)
	if s.cfg.sessionTTL > 0 {
		expiresAt = last.Add(s.cfg.sessionTTL).UTC().Format(time.RFC3339)
	}
	return lastUsed, expiresAt
}

func (s *server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: %v", err)
		return
	}
	if req.Solver == "" {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: missing solver")
		return
	}
	if _, err := s.svc.Registry().Get(req.Solver); err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: %v", err)
		return
	}
	if req.TimeoutMS < 0 {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: timeout_ms must be non-negative, got %d", req.TimeoutMS)
		return
	}
	opts, err := solveOptions(req.Params, req.Budget)
	if err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: params: %v", err)
		return
	}
	if _, _, err := specSize(req.Problem); err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: problem: %v", err)
		return
	}
	prob, err := buildProblem(req.Problem, opts)
	if err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: problem: %v", err)
		return
	}

	s.mu.Lock()
	if len(s.sessions) >= maxSessions {
		msg := s.sessionCapError(time.Now())
		s.mu.Unlock()
		s.writeAPIError(w, http.StatusTooManyRequests, codeTooManySessions, "%s", msg)
		return
	}
	s.nextID++
	sess := &session{id: fmt.Sprintf("s%d", s.nextID), solver: req.Solver, problem: prob}
	sess.touch(time.Now())
	s.mu.Unlock()

	// Solve the base problem synchronously: the report anchors the chain,
	// and the Updatable solve keeps the chain's warm state — an
	// update-capable instance or a region oracle — so the chain's first
	// capacity update is already warm.
	// The session is only published after the solve succeeds: its id is not
	// known to any client before the response, so nothing can race an
	// update against a session whose creation later fails.
	rep, err := s.svc.Solve(r.Context(), solve.Request{Solver: req.Solver, Problem: prob, Updatable: true, Deadline: s.deadlineFor(req.TimeoutMS)})
	if err != nil {
		var ovl *solve.OverloadError
		if errors.As(err, &ovl) {
			s.writeAPIErrorRetry(w, http.StatusTooManyRequests, codeOverloaded, retryAfterSeconds(ovl), "%v", err)
			return
		}
		s.writeAPIError(w, http.StatusUnprocessableEntity, codeSolveFailed, "solve failed: %v", err)
		return
	}
	// The response is encoded before the session is published, so a report
	// that cannot be encoded (a NaN or ±Inf number) fails the create and
	// leaves no session, and no warm state, behind.
	sess.touch(time.Now())
	lastUsed, expiresAt := s.sessionTimes(sess)
	resp := map[string]any{"session_id": sess.id, "solver": sess.solver, "report": rep, "last_used": lastUsed}
	if expiresAt != "" {
		resp["expires_at"] = expiresAt
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.svc.Release(prob, req.Solver)
		s.writeAPIError(w, http.StatusUnprocessableEntity, codeSolveFailed, "solve failed: report cannot be encoded: %v", err)
		return
	}
	s.mu.Lock()
	if len(s.sessions) >= maxSessions {
		// Concurrent creates raced past the early cap check during the
		// solve; re-check at publish time so the cap is a real bound.
		msg := s.sessionCapError(time.Now())
		s.mu.Unlock()
		s.svc.Release(prob, req.Solver)
		s.writeAPIError(w, http.StatusTooManyRequests, codeTooManySessions, "%s", msg)
		return
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.writeBody(w, http.StatusOK, body)
}

// lookupSession resolves an id to a live session, or — when the id was
// TTL-evicted — to its tombstone.  (nil, nil) means the id never existed.
func (s *server) lookupSession(id string) (*session, *tombstone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[id]; sess != nil {
		return sess, nil
	}
	if ts, ok := s.tombstones[id]; ok {
		return nil, &ts
	}
	return nil, nil
}

func (s *server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	sess, ts := s.lookupSession(r.PathValue("id"))
	if sess == nil {
		if ts != nil {
			s.writeSessionExpired(w, *ts)
			return
		}
		s.writeAPIError(w, http.StatusNotFound, codeNotFound, "no such session")
		return
	}
	var req sessionUpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: %v", err)
		return
	}
	if req.TimeoutMS < 0 {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: timeout_ms must be non-negative, got %d", req.TimeoutMS)
		return
	}
	specs := req.Steps
	if len(req.Updates) > 0 || len(req.AddEdges) > 0 || len(req.RemoveEdges) > 0 {
		specs = append([]stepSpec{{Updates: req.Updates, AddEdges: req.AddEdges, RemoveEdges: req.RemoveEdges}}, specs...)
	}
	if len(specs) == 0 {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: no update steps")
		return
	}
	if len(specs) > maxUpdateSteps {
		s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: %d steps exceeds the limit of %d", len(specs), maxUpdateSteps)
		return
	}
	steps := make([]updateStep, len(specs))
	for i, sp := range specs {
		st, err := sp.step()
		if err != nil {
			s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: step %d: %v", i, err)
			return
		}
		steps[i] = st
	}

	// Serialise the whole request against the session: a chain is ordered.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.deleted {
		if ts := s.tombstoneFor(sess.id); ts != nil {
			s.writeSessionExpired(w, *ts)
			return
		}
		s.writeAPIError(w, http.StatusNotFound, codeNotFound, "no such session")
		return
	}

	// One validation pass before streaming starts, so malformed requests get
	// a clean 400 instead of a mid-stream error record.  Each step is checked
	// exactly as it will be when it runs for real (bounds, duplicates,
	// emptiness, negativity).  No check reads a capacity, and
	// CapacityUpdate.Validate reads only the edge count, so capacity steps
	// are checked without being applied: a request of capacity steps is
	// checked against the session's graph itself.  Structural steps change
	// the edge list and the parked slots, so from the first one on the
	// request is replayed on a scratch clone (which copies the edge list,
	// not the adjacency).  Only dynamic failures (solver errors, slack
	// exhaustion) surface as stream records.
	sim, cloned := sess.problem.Graph(), false
	for i, st := range steps {
		if len(st.capacity.Edges) == 0 && st.structural == nil {
			s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: step %d: empty update step", i)
			return
		}
		if len(st.capacity.Edges) > 0 {
			if err := st.capacity.Validate(sim); err != nil {
				s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: step %d: %v", i, err)
				return
			}
		}
		if st.structural != nil {
			if !cloned {
				sim, cloned = sim.Clone(), true
			}
			if _, err := sim.ApplyStructuralUpdate(*st.structural); err != nil {
				s.writeAPIError(w, http.StatusBadRequest, codeBadRequest, "bad request: step %d: %v", i, err)
				return
			}
		}
	}

	bufp := recordBufs.Get().(*[]byte)
	buf := (*bufp)[:0]
	defer func() { *bufp = buf[:0]; recordBufs.Put(bufp) }()
	flusher, _ := w.(http.Flusher)
	// Defer the header like handleSolve does, so a first step shed by the
	// admission queue maps to 429 + Retry-After instead of a 200 stream.
	headerWritten := false
	startStream := func() {
		if headerWritten {
			return
		}
		headerWritten = true
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	// endStream writes a terminal record; the stream has nothing left to
	// lose if that write fails.
	endStream := func(item streamItem) {
		startStream()
		buf, _ = item.appendJSON(buf[:0])
		_, _ = w.Write(buf)
	}
	applied := 0
	for i, st := range steps {
		if err := r.Context().Err(); err != nil {
			break
		}
		if s.draining.Load() {
			// Server shutdown between steps: every applied step has already
			// been acknowledged by its own record, so end the stream with
			// the terminal draining marker and keep the session consistent
			// at the last applied problem.
			endStream(streamItem{Draining: true, Code: codeDraining, Error: fmt.Sprintf("server draining: %d of %d steps applied", applied, len(steps)), Count: applied})
			return
		}
		res, err := s.svc.Update(r.Context(), solve.UpdateRequest{
			Solver: sess.solver, Problem: sess.problem,
			Update: st.capacity, Structural: st.structural,
			Deadline: s.deadlineFor(req.TimeoutMS)})
		if err != nil {
			var ovl *solve.OverloadError
			if errors.As(err, &ovl) && !headerWritten {
				s.writeAPIErrorRetry(w, http.StatusTooManyRequests, codeOverloaded, retryAfterSeconds(ovl), "%v", err)
				return
			}
			// A failed step (e.g. duplicate edge in one step, or a solver
			// failure) is terminal: the error record ends the stream —
			// {"done":true} is reserved for fully applied requests — and
			// the session stays at the last successfully updated problem.
			item := stepFailure(i, applied, len(steps), err)
			if errors.As(err, &ovl) {
				item.Code = codeOverloaded
				item.RetryAfterSeconds = retryAfterSeconds(ovl)
			}
			endStream(item)
			return
		}
		// Structural steps additionally report the remaining slack: how many
		// parked slots the chain can still absorb value-level before the next
		// genuinely new edge forces a cold rebuild.
		rec := stepRecord{index: i, report: res.Report, warm: res.Warm,
			structural: res.Structural, slackRemaining: res.SlackRemaining}
		line, err := rec.appendJSON(buf[:0])
		if err != nil {
			// A report holding a NaN or ±Inf number cannot be acknowledged,
			// so the step fails like a solve: the session stays at the last
			// acknowledged problem, and the warm state the step left for the
			// unacknowledged one is dropped.
			s.svc.Release(res.Problem, sess.solver)
			endStream(stepFailure(i, applied, len(steps), fmt.Errorf("report cannot be encoded: %w", err)))
			return
		}
		buf = line
		sess.problem = res.Problem
		sess.updates++
		sess.touch(time.Now())
		startStream()
		if _, err := w.Write(buf); err != nil {
			// The client went away mid-stream: the session state is
			// consistent at the applied step, so stop solving for a dead
			// socket and account the disconnect.
			s.disconnects.Inc()
			return
		}
		applied++
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := r.Context().Err(); err != nil {
		endStream(streamItem{Aborted: true, Code: codeAborted, Error: fmt.Sprintf("stream aborted after %d of %d steps: %v", applied, len(steps), err), Count: applied})
		return
	}
	lastUsed, expiresAt := s.sessionTimes(sess)
	done := doneRecord{count: applied, sessionUpdates: sess.updates, lastUsed: lastUsed, expiresAt: expiresAt}
	startStream()
	buf = done.appendJSON(buf[:0])
	_, _ = w.Write(buf)
}

// tombstoneFor returns the tombstone for id, if one exists.
func (s *server) tombstoneFor(id string) *tombstone {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts, ok := s.tombstones[id]; ok {
		return &ts
	}
	return nil
}

func (s *server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	ts, tombstoned := s.tombstones[id]
	s.mu.Unlock()
	if sess == nil {
		if tombstoned {
			s.writeSessionExpired(w, ts)
			return
		}
		s.writeAPIError(w, http.StatusNotFound, codeNotFound, "no such session")
		return
	}
	sess.mu.Lock()
	sess.deleted = true
	prob, solver := sess.problem, sess.solver
	sess.mu.Unlock()
	s.svc.Release(prob, solver)
	w.WriteHeader(http.StatusNoContent)
}

// writeJSON writes one JSON response: json.Marshal's bytes and a newline.
// Every value passed here holds only finite numbers, so an encode failure is
// a bug; session create, whose report may not encode, encodes its response
// itself and calls writeBody.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("analogflowd: response cannot be encoded: %v", err))
	}
	s.writeBody(w, status, body)
}

// writeBody writes one encoded JSON response and its trailing newline; only
// a failed write counts as a client disconnect.
func (s *server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(body, '\n')); err != nil {
		s.disconnects.Inc()
	}
}
