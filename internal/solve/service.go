package solve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"analogflow/internal/decompose"
	"analogflow/internal/graph"
	"analogflow/internal/metrics"
	"analogflow/internal/parallel"
)

// Config configures a Service.
type Config struct {
	// Registry resolves solver names; nil selects DefaultRegistry().
	Registry *Registry
	// Workers bounds the number of concurrently executing solves per batch;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// MaxCachedInstances bounds each of the service's two warm-state tables;
	// <= 0 selects 64.  The one-shot cache keeps one warm instance per
	// (problem fingerprint, solver) pair for plain solves — for a CPU
	// backend just its finished report — and is also bounded to 128 MiB of
	// estimated heap; the chain table keeps the warm state of each update
	// chain (a flat instance or a sharded region oracle).
	// Past a bound a table evicts its least-recently-used entries (their
	// engines and factorisations are garbage once no in-flight solve still
	// holds them).
	MaxCachedInstances int
	// Budget is the service-wide substrate budget the partition planner
	// enforces for problems that carry none of their own: a request whose
	// instance exceeds it is automatically sharded into budget-sized regions
	// and solved through the N-region dual decomposition, with the requested
	// backend as the per-region oracle.  The zero budget disables the
	// planner for budget-less problems.
	Budget Budget
	// MaxQueue bounds how many requests may wait for a worker slot before
	// the admission queue starts shedding with ErrOverloaded; <= 0 selects
	// 8 × Workers.  Requests with a Deadline may be shed earlier, as soon as
	// the estimated queue wait (depth × the backend's recent-latency EMA)
	// overruns the deadline.
	MaxQueue int
}

// maxCacheBytes is the one-shot cache's byte ceiling.  Ready entries report
// the heap they retain (see retainer); while the sum is above the ceiling,
// the cache evicts least-recently-used entries as it does past
// Config.MaxCachedInstances.
const maxCacheBytes = 128 << 20

// Service is the concurrent batch engine on top of the registry: it fans a
// batch of requests across a bounded worker pool (internal/parallel) and
// caches one warm Instance per (problem fingerprint, solver) pair, so that
// repeated solves of the same instance reuse the same core.Session — and,
// in circuit mode, the same mna.Engine, whose cached symbolic LU turns every
// solve after the first into numeric-only refactorizations.  Update chains
// keep their warm state apart from that cache, in a table keyed by the
// chain's current problem (see chainTable), so one-shot traffic never
// touches it.
//
// The Workers bound is service-wide: a semaphore caps in-flight solves
// across every concurrent Solve and SolveBatch call, so N parallel batches
// against one service still execute at most Workers solves at a time (the
// contract analogflowd's -workers flag exposes).
//
// A Service is safe for concurrent use.
type Service struct {
	reg       *Registry
	workers   int
	maxCached int
	maxBytes  int64 // maxCacheBytes; tests lower it
	budget    Budget
	// adm is the service-wide admission queue: a priority-laned worker-slot
	// semaphore that sheds requests whose deadline the queue cannot meet
	// (see admitter).  Update traffic rides the priority lane, so warm
	// session chains are never shed behind queued cold batch solves.
	adm *admitter
	// ema tracks recent solve latency per backend: the admission queue's
	// wait estimator, plus the p50/p99 histogram /v1/stats reads.
	ema *backendWindows

	// mreg is the instrument registry every service counter lives in; the
	// HTTP plane renders it at /v1/metrics.  meter measures completed
	// requests per second.
	mreg  *metrics.Registry
	meter *metrics.Meter

	mu    sync.Mutex
	cache map[string]*cacheEntry
	tick  int64
	bytes int64 // the sum of the ready cache entries' bytes

	// chains holds the warm state of every update chain.
	chains *chainTable

	inFlight atomic.Int64

	requests       *metrics.Counter
	errors         *metrics.Counter
	hits           *metrics.Counter
	misses         *metrics.Counter
	completed      *metrics.Counter
	updates        *metrics.Counter
	updatesWarm    *metrics.Counter
	structUpdates  *metrics.Counter
	slackExhausted *metrics.Counter
	planned        *metrics.Counter
	sharded        *metrics.Counter
	shardedUpd     *metrics.Counter
	shardedUpdWarm *metrics.Counter
	regionRebuilds *metrics.Counter
	consensusWarm  *metrics.Counter
	consensusEsc   *metrics.Counter
	regionsSkipped *metrics.Counter
	outerIters     *metrics.Counter
	outerRuns      *metrics.Counter
	shedRequests   *metrics.Counter
	solverPanics   *metrics.Counter
}

// cacheEntry is one warm instance slot.  The sync.Once makes instance
// construction race-free without holding the service lock across the
// (potentially expensive) preprocessing.  Every field after once is written
// under the service's mu.
type cacheEntry struct {
	once    sync.Once
	inst    Instance
	err     error
	lastUse int64
	// ready flips to true when construction has completed.  The eviction
	// pass skips entries that are still under construction: evicting one
	// would orphan the instance being built while a concurrent request for
	// the same fingerprint rebuilds it from scratch.
	ready bool
	// bytes is the ready instance's retained heap, counted in Service.bytes.
	bytes int64
}

// retainer is implemented by instances that report the heap they retain
// while cached; any other instance counts as 0 bytes.
type retainer interface{ retainedBytes() int64 }

// NewService builds a service from the configuration.
func NewService(cfg Config) *Service {
	reg := cfg.Registry
	if reg == nil {
		reg = DefaultRegistry()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxCached := cfg.MaxCachedInstances
	if maxCached <= 0 {
		maxCached = 64
	}
	mreg := metrics.NewRegistry()
	s := &Service{
		reg:       reg,
		workers:   workers,
		maxCached: maxCached,
		maxBytes:  maxCacheBytes,
		budget:    cfg.Budget,
		adm:       newAdmitter(workers, cfg.MaxQueue),
		ema:       newBackendWindows(mreg),
		mreg:      mreg,
		meter:     metrics.NewMeter(10 * time.Second),
		cache:     make(map[string]*cacheEntry),
		chains:    newChainTable(maxCached),
	}
	s.registerInstruments()
	return s
}

// registerInstruments creates every service-level counter and gauge in the
// instrument registry.  Registration order is exposition order.
func (s *Service) registerInstruments() {
	m := s.mreg
	s.requests = m.Counter("analogflow_requests_total", "Solve and update requests accepted for counting (batch items included).", nil)
	s.errors = m.Counter("analogflow_errors_total", "Requests that completed with an error.", nil)
	s.completed = m.Counter("analogflow_completed_total", "Requests that finished either way.", nil)
	s.hits = m.Counter("analogflow_cache_events_total", "Warm-instance cache lookups by outcome.", metrics.Labels{"cache": "instance", "event": "hit"})
	s.misses = m.Counter("analogflow_cache_events_total", "Warm-instance cache lookups by outcome.", metrics.Labels{"cache": "instance", "event": "miss"})
	s.updates = m.Counter("analogflow_updates_total", "Update steps.", nil)
	s.updatesWarm = m.Counter("analogflow_update_warm_hits_total", "Update steps a warm instance absorbed in place.", nil)
	s.structUpdates = m.Counter("analogflow_structural_updates_total", "Update steps that carried a topology component.", nil)
	s.slackExhausted = m.Counter("analogflow_slack_exhausted_rebuilds_total", "Structural steps that exhausted reserved slack and forced a cold rebuild.", nil)
	s.planned = m.Counter("analogflow_planned_solves_total", "Requests the partition planner examined under a budget.", nil)
	s.sharded = m.Counter("analogflow_sharded_solves_total", "Requests the planner split into regions.", nil)
	s.shardedUpd = m.Counter("analogflow_sharded_updates_total", "Update steps routed through the N-region decomposition.", nil)
	s.shardedUpdWarm = m.Counter("analogflow_sharded_update_warm_hits_total", "Sharded update steps that ran on the chain's cached region oracle.", nil)
	s.regionRebuilds = m.Counter("analogflow_region_cold_rebuilds_total", "Per-region cold rebuilds inside sharded solves.", nil)
	s.consensusWarm = m.Counter("analogflow_consensus_warm_starts_total", "Sharded solves whose consensus loop was seeded from carried state.", nil)
	s.consensusEsc = m.Counter("analogflow_consensus_escalations_total", "Warm consensus attempts rejected and re-run in full.", nil)
	s.regionsSkipped = m.Counter("analogflow_regions_skipped_total", "Clean regions replayed from carried state instead of re-solved.", nil)
	s.outerIters = m.Counter("analogflow_consensus_outer_iterations_total", "Consensus outer iterations across sharded solves.", nil)
	s.outerRuns = m.Counter("analogflow_consensus_outer_runs_total", "Sharded solves contributing outer iterations.", nil)
	s.shedRequests = m.Counter("analogflow_shed_requests_total", "Requests the admission queue rejected with ErrOverloaded.", nil)
	s.solverPanics = m.Counter("analogflow_solver_panics_total", "Backend panics recovered at the isolation boundary.", nil)

	m.GaugeFunc("analogflow_in_flight_solves", "Solves currently executing.", nil,
		func() float64 { return float64(s.inFlight.Load()) })
	m.GaugeFunc("analogflow_workers_effective", "Worker-slot capacity (the configured worker count).", nil,
		func() float64 { return float64(s.workers) })
	m.GaugeFunc("analogflow_workers_busy", "Worker slots currently held.", nil,
		func() float64 { return float64(s.adm.busy()) })
	for lane, name := range map[int]string{laneUrgent: "urgent", lanePriority: "priority", laneNormal: "normal"} {
		lane := lane
		m.GaugeFunc("analogflow_queue_depth", "Admission-queue waiters per lane.", metrics.Labels{"lane": name},
			func() float64 { return float64(s.adm.laneDepths()[lane]) })
	}
	m.GaugeFunc("analogflow_cached_instances", "Warm flat instances held: one-shot cache entries plus flat update chains.", nil,
		func() float64 { instances, _ := s.cached(); return float64(instances) })
	m.GaugeFunc("analogflow_cache_bytes", "Estimated heap bytes a cache retains.", metrics.Labels{"cache": "instance"},
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.bytes)
		})
	m.GaugeFunc("analogflow_cached_oracles", "Sharded update chains holding a warm region oracle.", nil,
		func() float64 { _, oracles := s.cached(); return float64(oracles) })
	m.GaugeFunc("analogflow_warm_hit_ratio", "Warm-hit rate per cache.", metrics.Labels{"cache": "instance"},
		func() float64 { return ratio(s.hits.Value(), s.misses.Value()) })
	m.GaugeFunc("analogflow_warm_hit_ratio", "Warm-hit rate per cache.", metrics.Labels{"cache": "oracle"},
		func() float64 { return ratio(s.shardedUpdWarm.Value(), s.shardedUpd.Value()-s.shardedUpdWarm.Value()) })
	m.GaugeFunc("analogflow_warm_hit_ratio", "Warm-hit rate per cache.", metrics.Labels{"cache": "consensus"},
		func() float64 { return ratio(s.consensusWarm.Value(), s.outerRuns.Value()-s.consensusWarm.Value()) })
	m.GaugeFunc("analogflow_throughput_rps", "Completed requests per second (10s meter).", nil, s.meter.Rate)
}

// Registry returns the registry the service resolves names against.
func (s *Service) Registry() *Registry { return s.reg }

// Metrics returns the service's instrument registry, for exposition.
func (s *Service) Metrics() *metrics.Registry { return s.mreg }

// Workers returns the service-wide worker bound (Config.Workers, or
// GOMAXPROCS when that was unset).
func (s *Service) Workers() int { return s.workers }

// cached counts the warm state the service holds: flat instances (one-shot
// cache entries plus flat update chains) and sharded chains' region oracles.
func (s *Service) cached() (instances, oracles int) {
	flat, sharded := s.chains.sizes()
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache) + flat, sharded
}

// BackendWindows returns the per-backend latency view: the admission
// queue's EMA estimate and the request-duration histogram's quantiles, both
// of which the metrics registry exposes.  It is nil before the first
// completed request.
func (s *Service) BackendWindows() map[string]BackendWindow { return s.ema.windows() }

// Request is one unit of batch work.
type Request struct {
	// Solver is the registry name of the backend to run.
	Solver string
	// Problem is the instance to solve.
	Problem *Problem
	// Updatable starts an update chain at Problem (the session-create path
	// of analogflowd): the solve runs on a fresh update-capable instance —
	// or, above the budget, a fresh region oracle — and keeps it as the
	// chain's warm state, so an Update from this very *Problem is warm from
	// its first step.  The solve bypasses the one-shot cache and never
	// fingerprints the problem.  Without it a solve leaves no chain state
	// behind, and an Update from its problem starts cold.  Backends without
	// update-capable instances (lp, decompose) ignore it.
	Updatable bool
	// Deadline, when non-zero, bounds the whole request — queue wait plus
	// execution.  The admission queue sheds the request immediately with
	// ErrOverloaded when its estimated queue wait already overruns the
	// deadline; an admitted request runs under a context capped at it.
	Deadline time.Time
}

// BatchResult pairs a request index with its outcome.
type BatchResult struct {
	Index  int
	Report *Report
	Err    error
}

// Solve runs one request, going through the one-shot warm-instance cache
// when the backend supports it (or starting an update chain, see
// Request.Updatable).  The call waits for a free service-wide worker slot
// (or the context, or the request deadline) before executing; under overload
// it may be shed immediately with ErrOverloaded instead of queueing past its
// deadline (see Config.MaxQueue and Request.Deadline).
func (s *Service) Solve(ctx context.Context, req Request) (*Report, error) {
	s.requests.Add(1)
	rep, err := s.run(ctx, laneNormal, req.Deadline, req.Solver, "solve", func(ctx context.Context) (*Report, error) {
		return s.solve(ctx, req)
	})
	s.completed.Add(1)
	if err != nil {
		s.noteFailure(err)
	}
	return rep, err
}

// run executes one admitted unit of work under the service-wide worker
// bound: it wraps the context with the request deadline (so the deadline
// covers queue wait and execution alike), takes a slot through the admission
// queue in the given lane, runs f, feeds the backend's latency EMA on
// success, and releases the slot.
func (s *Service) run(ctx context.Context, lane int, deadline time.Time, solver, op string, f func(context.Context) (*Report, error)) (*Report, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	if err := s.adm.acquire(ctx, lane, deadline, s.ema.estimate(solver)); err != nil {
		return nil, err
	}
	s.inFlight.Add(1)
	defer func() {
		s.meter.Mark(1)
		s.inFlight.Add(-1)
		s.adm.release()
	}()
	start := time.Now()
	rep, err := f(ctx)
	if err == nil {
		s.ema.observeOp(solver, op, time.Since(start))
	}
	return rep, err
}

// noteFailure attributes one failed request to the error counters.
func (s *Service) noteFailure(err error) {
	s.errors.Add(1)
	if errors.Is(err, ErrOverloaded) {
		s.shedRequests.Add(1)
	}
	if errors.Is(err, ErrSolverPanic) {
		s.solverPanics.Add(1)
	}
}

func (s *Service) solve(ctx context.Context, req Request) (*Report, error) {
	if req.Problem == nil {
		return nil, fmt.Errorf("solve: nil problem")
	}
	sol, err := s.reg.Get(req.Solver)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rep, routed, _, err := s.planAndRoute(ctx, sol, nil, req.Problem, req.Updatable); routed {
		return rep, err
	}
	var rep *Report
	us, updatable := sol.(UpdatableSolver)
	w, warmable := sol.(Warmable)
	switch {
	case req.Updatable && updatable:
		rep, _, err = s.stepChain(ctx, us, nil, req.Problem)
	case warmable:
		var inst Instance
		if inst, err = s.instance(w, req.Problem); err == nil {
			rep, err = guardSolve(sol.Name(), func() (*Report, error) { return inst.Solve(ctx) })
			if errors.Is(err, ErrSolverPanic) {
				// The panic left the warm instance in an unknown state:
				// drop it from the cache so the fingerprint's next solve
				// builds cold instead of inheriting poisoned engines.
				s.dropInstance(req.Problem.Fingerprint()+"|"+w.Name(), inst)
			}
		}
	default:
		rep, err = guardSolve(sol.Name(), func() (*Report, error) { return sol.Solve(ctx, req.Problem) })
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// effectiveBudget resolves the budget that applies to p: its own when set,
// the service default otherwise.
func (s *Service) effectiveBudget(p *Problem) Budget {
	if b := p.Budget(); !b.IsZero() {
		return b
	}
	return s.budget
}

// planAndRoute is the planner gate in front of every service solve: under a
// non-zero effective budget it decides monolithic-vs-sharded execution and,
// for oversized instances, runs the N-region decomposition with the
// requested backend as the warm region oracle.  routed reports whether the
// request was handled here (sharded); monolithic decisions fall through to
// the normal path with no report, and the decompose backend plans for itself.
//
// base is non-nil for Update steps: target is then base's derivative, and the
// sharded path takes the region oracle the chain table holds for base — the
// warm per-region instances of the chain's previous step — instead of
// building cold.  chain keeps the oracle as target's chain state once the
// solve succeeds (Update steps and Request.Updatable solves); any other solve
// runs on a fresh oracle and drops it.  warm reports whether the solve ran on
// the chain's oracle; individual regions may still have rebuilt cold inside
// it — a positivity flip in one region, or an analog region whose quantized
// structure moved — and analogflow_region_cold_rebuilds_total counts those
// per region, so a warm step with one structural region is one warm hit plus
// one cold rebuild, not a lost warm hit.
func (s *Service) planAndRoute(ctx context.Context, sol Solver, base, target *Problem, chain bool) (rep *Report, routed, warm bool, err error) {
	b := s.effectiveBudget(target)
	if b.IsZero() {
		return nil, false, false, nil
	}
	if ds, ok := sol.(*decomposeSolver); ok {
		// The decompose backend shards by design; what the service adds is
		// the budget a budget-less problem would otherwise miss.  Its region
		// oracle is the exact solver — stateless, so there is no chain state
		// to keep — and the solve runs in-call under the request's own slot.
		if !target.Budget().IsZero() {
			return nil, false, false, nil // the backend reads the problem's budget itself
		}
		s.planned.Add(1)
		rep, err := ds.solveWithBudget(ctx, target, b)
		if err != nil {
			return nil, true, false, err
		}
		// A budget-forced split carries the budget in its plan; the
		// backend's default small-instance decomposition does not count as a
		// planner shard.
		if rep.Plan != nil && rep.Plan.Sharded && rep.Plan.BudgetMaxVertices > 0 {
			s.sharded.Add(1)
		}
		return rep, true, false, nil
	}
	s.planned.Add(1)
	plan, part, err := planFor(target, b)
	if err != nil {
		return nil, true, false, err
	}
	if !plan.Sharded {
		return nil, false, false, nil
	}
	s.sharded.Add(1)
	// Take the chain's region oracle out of the table: this goroutine owns
	// the per-region instances outright until it stores them back under
	// target, so no other solve can run on them meanwhile.
	var oracle *regionOracle
	if base != nil {
		s.shardedUpd.Add(1)
		oracle = s.chains.take(base, sol.Name()).oracle
	}
	warm = oracle != nil
	if oracle == nil {
		oracle = newRegionOracle(sol, target.Params())
	}
	// Region solves are real solves and must respect the service-wide
	// worker bound.  The caller holds one slot for this request; release it
	// for the duration of the decomposition (a coordinator waiting on its
	// regions does no solving) and make every region solve acquire its own
	// slot — holding the request slot across the fan-out would deadlock as
	// soon as Workers oversized requests each waited for region slots.  The
	// slot is re-acquired before returning so the caller's release stays
	// balanced.
	s.releaseSlot()
	defer s.reacquireSlot()
	rep, err = solvePlanned(ctx, sol, target, plan, part, s.workers, s.slotBound, oracle)
	s.regionRebuilds.Add(int64(oracle.takeRebuilds()))
	if err != nil {
		// A failed (or aborted) sharded solve leaves the oracle's region
		// problems somewhere between base and target; it is dropped, and
		// the chain's next step runs cold.
		return nil, true, false, err
	}
	// Consensus accounting: the plan records what the outer loop actually did
	// (warm seed, escalation, skips, iterations); the counters aggregate it.
	if pl := rep.Plan; pl != nil {
		s.outerIters.Add(int64(pl.OuterIterations))
		s.outerRuns.Add(1)
		s.regionsSkipped.Add(int64(pl.RegionSkips))
		if pl.WarmStart {
			s.consensusWarm.Add(1)
		}
		if pl.Escalated {
			s.consensusEsc.Add(1)
		}
	}
	// A structural step (positivity flip inside a region, a flipped boundary
	// wiring) rebuilt the affected regions cold during the solve, so the
	// oracle is usable again by construction and the chain continues warm
	// from the next step.
	if chain {
		s.chains.put(target, sol.Name(), chainState{oracle: oracle})
	}
	if warm {
		s.shardedUpdWarm.Add(1)
	}
	return rep, true, warm, nil
}

// releaseSlot hands the caller's worker slot back during a nested fan-out.
func (s *Service) releaseSlot() {
	s.inFlight.Add(-1)
	s.adm.release()
}

// reacquireSlot takes a worker slot back after a nested fan-out.  It blocks
// unconditionally in the urgent lane — never shed, never cancelled: the
// caller's own regions have completed, so slot holders are live solves that
// terminate, and the caller must hold a slot again for its (unconditional)
// release to stay balanced.
func (s *Service) reacquireSlot() {
	s.adm.acquireBlocking(laneUrgent)
	s.inFlight.Add(1)
}

// slotBound wraps a region oracle so that every region solve holds one
// service worker slot, keeping the service-wide in-flight bound intact for
// sharded requests.  Region solves ride the urgent lane: an in-flight
// sharded request depends on them for progress, so they are never shed and
// admit ahead of queued requests.
func (s *Service) slotBound(inner decompose.Oracle) decompose.Oracle {
	return decompose.OracleFunc(func(ctx context.Context, region int, g *graph.Graph) (*graph.Flow, error) {
		if err := s.adm.acquire(ctx, laneUrgent, time.Time{}, 0); err != nil {
			return nil, err
		}
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			s.adm.release()
		}()
		return inner.SolveRegion(ctx, region, g)
	})
}

// dropInstance removes the cache entry under key only when it still holds
// exactly inst — the identity check keeps a poisoned-instance drop from
// evicting a fresh replacement a concurrent request already rebuilt.
func (s *Service) dropInstance(key string, inst Instance) {
	s.mu.Lock()
	if e, ok := s.cache[key]; ok && e.ready && e.inst == inst {
		s.removeLocked(key, e)
	}
	s.mu.Unlock()
}

// Release drops the warm state of the update chain whose current problem is
// p — a flat instance or a sharded region oracle.  It exists for session
// deletion and eviction: a closed or expired session must not pin warm
// engines against the table's bound.  Unknown solvers and problems that hold
// no chain state are no-ops.
func (s *Service) Release(p *Problem, solver string) {
	if p == nil {
		return
	}
	sol, err := s.reg.Get(solver)
	if err != nil {
		return
	}
	s.chains.take(p, sol.Name())
}

// instance returns the one-shot warm instance for the (problem, solver)
// pair, creating and caching it on first use.  Construction runs under the
// panic guard: a panic fails the request with a *SolverPanicError.
func (s *Service) instance(w Warmable, p *Problem) (Instance, error) {
	key := p.Fingerprint() + "|" + w.Name()
	s.mu.Lock()
	e, ok := s.cache[key]
	if !ok {
		e = &cacheEntry{}
		s.cache[key] = e
		s.evictLocked(e)
	}
	s.tick++
	e.lastUse = s.tick
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}

	e.once.Do(func() {
		var inst Instance
		err := guardErr(w.Name(), func() (err error) {
			inst, err = w.NewInstance(p)
			return err
		})
		var bytes int64
		if r, ok := inst.(retainer); ok && err == nil {
			bytes = r.retainedBytes()
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		e.inst, e.err, e.ready = inst, err, true
		if err != nil {
			// A failed construction is not worth caching: drop the entry so
			// a later (possibly fixed) problem with the same fingerprint
			// retries.
			delete(s.cache, key)
			return
		}
		e.bytes = bytes
		s.bytes += bytes
		s.evictLocked(e)
	})
	return e.inst, e.err
}

// evictLocked drops least-recently-used entries (never keep, never an entry
// whose construction is still in flight — see cacheEntry.ready) while the
// cache holds more than maxCached entries or more than maxBytes.  When every
// other entry is under construction the cache is allowed to run over its
// bounds temporarily; the next insert evicts once those constructions
// finish.  Callers hold s.mu.
func (s *Service) evictLocked(keep *cacheEntry) {
	for len(s.cache) > s.maxCached || s.bytes > s.maxBytes {
		var victimKey string
		var victim *cacheEntry
		for k, e := range s.cache {
			if e == keep || !e.ready {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		s.removeLocked(victimKey, victim)
	}
}

// removeLocked deletes a cache entry and its bytes.  Callers hold s.mu.
func (s *Service) removeLocked(key string, e *cacheEntry) {
	delete(s.cache, key)
	s.bytes -= e.bytes
}

// SolveBatch runs every request across the service's bounded worker pool
// and returns the results in request order.  Item failures are reported per
// item, never as a batch-level error, so one bad instance cannot sink its
// batch; a cancelled context fails the not-yet-started items with the
// context's error.
func (s *Service) SolveBatch(ctx context.Context, reqs []Request) []BatchResult {
	return s.SolveBatchFunc(ctx, reqs, nil)
}

// SolveBatchFunc is SolveBatch with a streaming hook: when onResult is
// non-nil it is invoked once per completed item, in completion order, from
// at most one goroutine at a time.  The returned slice is always in request
// order regardless of completion order or worker count.
func (s *Service) SolveBatchFunc(ctx context.Context, reqs []Request, onResult func(BatchResult)) []BatchResult {
	return s.solveBatch(ctx, reqs, onResult, nil)
}

// ErrStopped fails batch items that were skipped before starting because the
// batch's stop hook fired (server drain, client disconnect).  Items already
// in flight finish normally; stopped items consume no worker slot and no
// service counters.
var ErrStopped = errors.New("solve: batch stopped before item started")

// SolveBatchDrain is SolveBatchFunc with a cooperative stop hook: stop is
// polled before each item starts, and once it returns true the remaining
// not-yet-started items fail with ErrStopped while in-flight items run to
// completion — the draining-server contract, where the current NDJSON record
// finishes and the rest of the batch is cut short.  stop must be safe for
// concurrent calls; nil behaves like SolveBatchFunc.
func (s *Service) SolveBatchDrain(ctx context.Context, reqs []Request, onResult func(BatchResult), stop func() bool) []BatchResult {
	return s.solveBatch(ctx, reqs, onResult, stop)
}

func (s *Service) solveBatch(ctx context.Context, reqs []Request, onResult func(BatchResult), stop func() bool) []BatchResult {
	results := make([]BatchResult, len(reqs))
	var emitMu sync.Mutex
	_ = parallel.ForEachLimit(len(reqs), s.workers, func(i int) error {
		var res BatchResult
		res.Index = i
		if stop != nil && stop() {
			res.Err = ErrStopped
		} else if err := ctx.Err(); err != nil {
			res.Err = err
			s.requests.Add(1)
			s.completed.Add(1)
			s.errors.Add(1)
		} else {
			res.Report, res.Err = s.Solve(ctx, reqs[i])
		}
		results[i] = res
		if onResult != nil {
			emitMu.Lock()
			onResult(res)
			emitMu.Unlock()
		}
		return nil
	})
	return results
}

// UpdateRequest is one re-solve step: apply Update and/or Structural to
// Problem (the previous problem of the chain) and solve the result with
// Solver.
type UpdateRequest struct {
	Solver  string
	Problem *Problem
	// Update is the capacity-only component of the step; it may be empty when
	// Structural is set.
	Update graph.CapacityUpdate
	// Structural, when non-nil, is the topology component: edge insertions
	// and removals (graph.StructuralUpdate).  A mixed step applies the
	// capacity component first — its edge indices refer to the base problem's
	// edge list — then the structural one.  Removals park their edges and
	// stay value-level; insertions reclaim parked slots when endpoints match
	// and append (consuming structural slack) otherwise.
	Structural *graph.StructuralUpdate
	// Deadline, when non-zero, bounds queue wait plus execution, exactly as
	// Request.Deadline does for Solve.  Update steps queue in the priority
	// lane, so they are only shed once the queue holds nothing but other
	// priority traffic exceeding the bound.
	Deadline time.Time
}

// UpdateResult is the outcome of one Update step.
type UpdateResult struct {
	// Report is the solve report of the updated problem.
	Report *Report
	// Problem is the updated problem — pass it as the next UpdateRequest's
	// Problem to continue the chain.
	Problem *Problem
	// Warm reports whether the chain's warm state absorbed the update: for
	// flat chains, its instance updated in place (false when the chain holds
	// no state — it did not start with an Updatable solve, or its state was
	// evicted or dropped after an error — after a structural change, and for
	// backends without warm state); for sharded chains, the chain's region
	// oracle was rebound — individual regions may still have rebuilt cold on
	// a structural change (analogflow_region_cold_rebuilds_total counts
	// those).
	Warm bool
	// Structural reports whether the step carried a topology component, and
	// SlackRemaining how many parked slots the updated problem still holds —
	// the number of future insertions (per endpoint pair) the warm state can
	// absorb before an append forces a cold rebuild.
	Structural     bool
	SlackRemaining int
}

// Update is the stateful sibling of Solve: it derives the updated problem
// (Problem.WithUpdate), takes the warm state the chain table holds for the
// base problem and, when it can absorb the mutation, updates it in place —
// the analog backends re-stamp clamp values into their frozen circuit pattern
// and re-solve from the previous operating point, the CPU backends
// drain/extend their residual network and re-augment — and falls back to
// building a fresh update-capable instance otherwise.  Once the solve
// succeeds the state is stored under the updated problem, so chains of
// updates stay warm; a failed step drops it.
//
// A chain starts at a Solve with Request.Updatable and continues through
// UpdateResult.Problem.  Taking the state moves it: concurrent updates
// branching off the same base race for it — one wins, the rest build cold
// (their reports agree to solver tolerance; exactly for the deterministic
// CPU backends).  Like Solve, the call waits for a free service-wide worker
// slot.
//
// A chain whose problems exceed the effective substrate budget runs sharded
// and follows the same discipline one level up: the whole region oracle —
// one warm instance per region — is taken, rebound region by region, and
// stored under the new problem (see planAndRoute).  For the CPU backends a
// warm sharded step may recover a different — equally optimal — per-region
// flow than a cold one, which can steer the consensus iteration down a
// different path: warm and cold sharded reports agree to the decomposition
// tolerance, not bit-for-bit (the behavioral backend, being deterministic
// warm or cold, does agree exactly).
func (s *Service) Update(ctx context.Context, req UpdateRequest) (*UpdateResult, error) {
	s.requests.Add(1)
	s.updates.Add(1)
	var res *UpdateResult
	_, err := s.run(ctx, lanePriority, req.Deadline, req.Solver, "update", func(ctx context.Context) (*Report, error) {
		var err error
		res, err = s.update(ctx, req)
		return nil, err
	})
	s.completed.Add(1)
	if err != nil {
		res = nil
		s.noteFailure(err)
	}
	return res, err
}

func (s *Service) update(ctx context.Context, req UpdateRequest) (*UpdateResult, error) {
	if req.Problem == nil {
		return nil, fmt.Errorf("solve: nil problem")
	}
	sol, err := s.reg.Get(req.Solver)
	if err != nil {
		return nil, err
	}
	structural := req.Structural != nil
	target := req.Problem
	if structural {
		s.structUpdates.Add(1)
		// Mixed steps apply the capacity component first (its edge indices
		// refer to the base problem's edge list), then the topology component.
		if len(req.Update.Edges) > 0 {
			if target, err = target.WithUpdate(req.Update); err != nil {
				return nil, err
			}
		}
		if target, err = target.WithStructuralUpdate(*req.Structural); err != nil {
			return nil, err
		}
	} else if target, err = target.WithUpdate(req.Update); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// An oversized chain stays sharded — and stays warm: the planner takes
	// the region oracle the chain holds for the base problem, each region
	// absorbs its share of the capacity delta through the same
	// WithUpdate/UpdatableInstance.Update path flat chains use, and the
	// oracle is stored under the updated problem for the next step.
	// Structural steps (a capacity crossing zero inside a region) rebuild
	// only the affected regions cold — counted in
	// analogflow_region_cold_rebuilds_total — and the rest of the oracle
	// stays warm.
	if rep, routed, warm, err := s.planAndRoute(ctx, sol, req.Problem, target, true); routed {
		if err != nil {
			return nil, err
		}
		return &UpdateResult{Report: rep, Problem: target, Warm: warm,
			Structural: structural, SlackRemaining: target.StructuralSlack()}, nil
	}
	var rep *Report
	warm := false
	if us, ok := sol.(UpdatableSolver); ok {
		rep, warm, err = s.stepChain(ctx, us, req.Problem, target)
	} else {
		// Backends without update-absorbing state (lp, decompose) just
		// solve the updated problem.
		rep, err = guardSolve(sol.Name(), func() (*Report, error) { return sol.Solve(ctx, target) })
	}
	if err != nil {
		return nil, err
	}
	return &UpdateResult{Report: rep, Problem: target, Warm: warm,
		Structural: structural, SlackRemaining: target.StructuralSlack()}, nil
}

// stepChain runs one step of a flat chain: it brings the chain's instance
// from base to target (a chain start passes a nil base, which holds none),
// solves, and stores the instance as target's chain state once the solve
// succeeded.  A failed solve, a panic included, drops the instance with this
// goroutine's reference to it: nothing else holds it.
func (s *Service) stepChain(ctx context.Context, us UpdatableSolver, base, target *Problem) (*Report, bool, error) {
	inst, warm, err := s.updateInstance(us, base, target)
	if err != nil {
		return nil, false, err
	}
	rep, err := guardSolve(us.Name(), func() (*Report, error) { return inst.Solve(ctx) })
	if err != nil {
		return nil, false, err
	}
	s.chains.put(target, us.Name(), chainState{inst: inst})
	if warm {
		s.updatesWarm.Add(1)
	}
	return rep, warm, nil
}

// updateInstance takes the chain's warm instance for the base problem and
// updates it to the target, or builds a fresh update-capable instance for
// the target when the chain holds none or its instance cannot absorb the
// step.
func (s *Service) updateInstance(us UpdatableSolver, base, target *Problem) (UpdatableInstance, bool, error) {
	if inst := s.chains.take(base, us.Name()).inst; inst != nil {
		err := guardErr(us.Name(), func() error { return inst.Update(target) })
		if err == nil {
			s.hits.Add(1)
			return inst, true, nil
		}
		// Whatever failed, the taken instance is dropped: a panic may have
		// left it half-mutated, and a structural change leaves it answering
		// for the base problem, which the chain has moved past.
		if !errors.Is(err, ErrIncompatibleUpdate) {
			return nil, false, err
		}
		if errors.Is(err, ErrSlackExhausted) {
			// An insertion had to append past the warm pattern's slot pool:
			// this is the one honest cold rebuild of the slack contract.
			s.slackExhausted.Add(1)
		}
	}
	s.misses.Add(1)
	var inst UpdatableInstance
	err := guardErr(us.Name(), func() (err error) {
		inst, err = us.NewUpdatableInstance(target)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return inst, false, nil
}
