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
	// MaxCachedInstances bounds the warm-instance cache; <= 0 selects 64.
	// When the bound is exceeded the least-recently-used instance is
	// evicted (its engine and factorisations are garbage once no in-flight
	// solve still holds it).
	MaxCachedInstances int
	// MaxCachedOracles bounds the warm region-oracle cache sharded solves
	// and update chains draw from; <= 0 selects 8.  One cached oracle holds
	// one warm instance per region, so the bound is deliberately smaller
	// than the flat instance cache's.
	MaxCachedOracles int
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

// Service is the concurrent batch engine on top of the registry: it fans a
// batch of requests across a bounded worker pool (internal/parallel) and
// caches one warm Instance per (problem fingerprint, solver) pair, so that
// repeated solves of the same instance reuse the same core.Session — and,
// in circuit mode, the same mna.Engine, whose cached symbolic LU turns every
// solve after the first into numeric-only refactorizations.
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

	// oracles is the warm region-oracle cache: one entry per sharded
	// problem chain, claimed exclusively for the duration of a sharded
	// solve and re-published under the fingerprint it then answers for.
	oracles *oracleCache

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
// (potentially expensive) preprocessing.
type cacheEntry struct {
	once    sync.Once
	inst    Instance
	err     error
	lastUse atomic.Int64
	// ready flips to true when once.Do has completed.  The eviction pass
	// skips entries that are still under construction: evicting one would
	// orphan the instance being built while a concurrent request for the
	// same fingerprint rebuilds it from scratch.
	ready atomic.Bool
}

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
		budget:    cfg.Budget,
		adm:       newAdmitter(workers, cfg.MaxQueue),
		ema:       newBackendWindows(mreg),
		mreg:      mreg,
		meter:     metrics.NewMeter(10 * time.Second),
		cache:     make(map[string]*cacheEntry),
		oracles:   newOracleCache(cfg.MaxCachedOracles),
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
	m.GaugeFunc("analogflow_cached_instances", "Warm-instance cache population.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.cache))
	})
	m.GaugeFunc("analogflow_cached_oracles", "Warm region-oracle cache population.", nil,
		func() float64 { return float64(s.oracles.size()) })
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

// Stats is a snapshot of the service counters.
type Stats struct {
	// Requests counts Solve calls (batch items included); Errors the subset
	// that failed; Completed the subset that finished either way.
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Completed int64 `json:"completed"`
	// CacheHits / CacheMisses count warm-instance lookups.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CachedInstances is the current cache population, InFlight the solves
	// currently executing.
	CachedInstances int   `json:"cached_instances"`
	InFlight        int64 `json:"in_flight"`
	// Updates counts Update calls; UpdateWarmHits the subset a warm instance
	// absorbed in place (the remainder fell back to a cold build).
	Updates        int64 `json:"updates"`
	UpdateWarmHits int64 `json:"update_warm_hits"`
	// StructuralUpdates counts Update steps that carried a topology component
	// (edge insertions/removals); SlackExhaustedRebuilds the subset whose
	// insertion found no parked slot to reclaim and forced one honest cold
	// rebuild of the warm instance (the chain continues warm from it).
	StructuralUpdates      int64 `json:"structural_updates"`
	SlackExhaustedRebuilds int64 `json:"slack_exhausted_rebuilds"`
	// PlannedSolves counts requests the partition planner examined under a
	// non-zero budget; ShardedSolves the subset it split into regions and
	// routed through the N-region decomposition.
	PlannedSolves int64 `json:"planned_solves"`
	ShardedSolves int64 `json:"sharded_solves"`
	// ShardedUpdates counts Update steps routed through the planner's
	// N-region decomposition; ShardedUpdateWarmHits the subset that ran on
	// the chain's cached region oracle (claimed, rebound region by region,
	// re-published).  RegionColdRebuilds totals the per-region cold rebuilds
	// across every sharded solve — structural fallbacks inside otherwise
	// warm chains land here, not in a lost warm hit.  CachedOracles is the
	// oracle cache population.
	ShardedUpdates        int64 `json:"sharded_updates"`
	ShardedUpdateWarmHits int64 `json:"sharded_update_warm_hits"`
	RegionColdRebuilds    int64 `json:"region_cold_rebuilds"`
	CachedOracles         int   `json:"cached_oracles"`
	// ConsensusWarmStarts counts sharded solves whose consensus outer loop
	// was seeded from the chain's carried state; ConsensusEscalations the
	// subset whose warm quick attempt was rejected (unconverged or outside
	// the acceptance band) and re-ran the full consensus.  RegionsSkipped
	// totals the clean regions replayed from carried state instead of
	// re-solved, and AvgOuterIterations is the mean consensus outer-iteration
	// count per sharded solve — the number the warm start exists to shrink.
	ConsensusWarmStarts  int64   `json:"consensus_warm_starts"`
	ConsensusEscalations int64   `json:"consensus_escalations"`
	RegionsSkipped       int64   `json:"regions_skipped"`
	AvgOuterIterations   float64 `json:"avg_outer_iterations"`
	// ShedRequests counts requests the admission queue rejected with
	// ErrOverloaded (deadline unmeetable or queue full) — they never held a
	// worker slot.  QueueDepth is the current sheddable-waiter population.
	ShedRequests int64 `json:"shed_requests"`
	QueueDepth   int64 `json:"queue_depth"`
	// SolverPanics counts backend panics recovered at the isolation
	// boundary and converted into ErrSolverPanic failures (the poisoned
	// warm state was dropped; the process kept serving).
	SolverPanics int64 `json:"solver_panics"`
	// BackendWindows is the latency view per backend: the fixed-alpha EMA
	// (the admission queue's deadline estimator) and histogram quantiles.
	BackendWindows map[string]BackendWindow `json:"backend_windows,omitempty"`
	// EffectiveWorkers is the worker-slot capacity (the configured
	// Workers); BusyWorkers the slots currently held; LaneDepths the
	// admission waiters per lane.
	EffectiveWorkers int        `json:"effective_workers"`
	BusyWorkers      int        `json:"busy_workers"`
	LaneDepths       LaneDepths `json:"lane_depths"`
	// ThroughputRPS is completed requests per second over a 10s meter.
	ThroughputRPS float64 `json:"throughput_rps"`
}

// LaneDepths is the admission-queue waiter count per priority lane.
type LaneDepths struct {
	Urgent   int `json:"urgent"`
	Priority int `json:"priority"`
	Normal   int `json:"normal"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	cached := len(s.cache)
	s.mu.Unlock()
	var avgOuter float64
	if runs := s.outerRuns.Value(); runs > 0 {
		avgOuter = float64(s.outerIters.Value()) / float64(runs)
	}
	depths := s.adm.laneDepths()
	return Stats{
		Requests:               s.requests.Value(),
		Errors:                 s.errors.Value(),
		Completed:              s.completed.Value(),
		CacheHits:              s.hits.Value(),
		CacheMisses:            s.misses.Value(),
		CachedInstances:        cached,
		InFlight:               s.inFlight.Load(),
		Updates:                s.updates.Value(),
		UpdateWarmHits:         s.updatesWarm.Value(),
		StructuralUpdates:      s.structUpdates.Value(),
		SlackExhaustedRebuilds: s.slackExhausted.Value(),
		PlannedSolves:          s.planned.Value(),
		ShardedSolves:          s.sharded.Value(),

		ShardedUpdates:        s.shardedUpd.Value(),
		ShardedUpdateWarmHits: s.shardedUpdWarm.Value(),
		RegionColdRebuilds:    s.regionRebuilds.Value(),
		CachedOracles:         s.oracles.size(),
		ConsensusWarmStarts:   s.consensusWarm.Value(),
		ConsensusEscalations:  s.consensusEsc.Value(),
		RegionsSkipped:        s.regionsSkipped.Value(),
		AvgOuterIterations:    avgOuter,
		ShedRequests:          s.shedRequests.Value(),
		QueueDepth:            int64(s.adm.queueDepth()),
		SolverPanics:          s.solverPanics.Value(),
		BackendWindows:        s.ema.windows(),
		EffectiveWorkers:      s.workers,
		BusyWorkers:           s.adm.busy(),
		LaneDepths: LaneDepths{
			Urgent:   depths[laneUrgent],
			Priority: depths[lanePriority],
			Normal:   depths[laneNormal],
		},
		ThroughputRPS: s.meter.Rate(),
	}
}

// Request is one unit of batch work.
type Request struct {
	// Solver is the registry name of the backend to run.
	Solver string
	// Problem is the instance to solve.
	Problem *Problem
	// Updatable asks the service to build the warm instance through
	// UpdatableSolver.NewUpdatableInstance when the backend supports it, so
	// a later Update chain starting from this problem is warm from its
	// first step (the session-create path of analogflowd).  It only
	// influences instance construction; an already-cached instance for the
	// fingerprint is used either way.
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

// Solve runs one request, going through the warm-instance cache when the
// backend supports it.  The call waits for a free service-wide worker slot
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
	start := time.Now()
	rep, err := f(ctx)
	if err == nil {
		s.ema.observeOp(solver, op, time.Since(start))
	}
	s.meter.Mark(1)
	s.inFlight.Add(-1)
	s.adm.release()
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
	if rep, routed, _, err := s.planAndRoute(ctx, sol, nil, req.Problem); routed {
		return rep, err
	}
	start := time.Now()
	var rep *Report
	if w, ok := sol.(Warmable); ok {
		inst, err := s.instance(w, req.Problem, req.Updatable)
		if err != nil {
			return nil, err
		}
		rep, err = guardSolve(sol.Name(), func() (*Report, error) { return inst.Solve(ctx) })
		if err != nil {
			if errors.Is(err, ErrSolverPanic) {
				// The panic left the warm instance in an unknown state:
				// drop it from the cache so the fingerprint's next solve
				// builds cold instead of inheriting poisoned engines.
				s.dropInstance(req.Problem.Fingerprint()+"|"+w.Name(), inst)
			}
			return nil, err
		}
		// A concurrent Update may have claimed this instance after the cache
		// lookup and rebound it to the updated problem before (or right
		// after) our solve ran.  The binding is published before the rebind,
		// so a fingerprint mismatch here catches every interleaving in which
		// the report could belong to the wrong problem; re-solve on a fresh
		// uncached instance (the claim already removed this entry).
		if b, ok := inst.(interface{ BoundFingerprint() string }); ok &&
			b.BoundFingerprint() != req.Problem.Fingerprint() {
			fresh, err := buildInstance(w, req.Problem, req.Updatable)
			if err != nil {
				return nil, err
			}
			rep, err = guardSolve(sol.Name(), func() (*Report, error) { return fresh.Solve(ctx) })
			if err != nil {
				return nil, err
			}
		}
	} else {
		rep, err = guardSolve(sol.Name(), func() (*Report, error) { return sol.Solve(ctx, req.Problem) })
		if err != nil {
			return nil, err
		}
	}
	rep.Solver = sol.Name()
	if rep.WallTime == 0 {
		rep.WallTime = time.Since(start)
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
// base is non-nil for Update steps: target is then base's capacity-only
// derivative, and the sharded path claims the region oracle cached for base
// — the warm per-region instances of the chain's previous step — instead of
// building cold.  Plain solves (base == nil) claim their own fingerprint's
// oracle, so repeated sharded solves of one problem are warm too.  warm
// reports whether the solve ran on a claimed oracle; individual regions may
// still have rebuilt cold inside it — a positivity flip in one region, or an
// analog region whose quantized structure moved — and RegionColdRebuilds
// counts those per region, so a warm step with one structural region is one
// warm hit plus one cold rebuild, not a lost warm hit.
func (s *Service) planAndRoute(ctx context.Context, sol Solver, base, target *Problem) (rep *Report, routed, warm bool, err error) {
	b := s.effectiveBudget(target)
	if b.IsZero() {
		return nil, false, false, nil
	}
	if ds, ok := sol.(*decomposeSolver); ok {
		// The decompose backend shards by design; what the service adds is
		// the budget a budget-less problem would otherwise miss.  Its region
		// oracle is the exact solver — stateless, so there is nothing for
		// the oracle cache to keep warm — and the solve runs in-call under
		// the request's own slot.
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
	if base != nil {
		s.shardedUpd.Add(1)
	}
	// Claim the chain's warm region oracle: the base problem's for an
	// update step, the target's own for a repeated solve.  claim removes
	// the entry, so this goroutine owns the per-region instances outright —
	// racers (concurrent updates branching off one base, or a solve racing
	// an update) find the cache empty and run cold, which is why no
	// binding guard is needed here: an oracle is never shared between two
	// in-flight solves.
	claimKey := oracleKey(target.Fingerprint(), sol, b)
	if base != nil {
		claimKey = oracleKey(base.Fingerprint(), sol, b)
	}
	oracle := s.oracles.claim(claimKey)
	claimed := oracle != nil
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
	rebuilds := oracle.takeRebuilds()
	s.regionRebuilds.Add(int64(rebuilds))
	if err != nil {
		// A failed (or aborted) sharded solve leaves the oracle's region
		// problems somewhere between base and target, so it answers for
		// neither fingerprint; drop it rather than re-publish a poisoned
		// entry.  The per-region instances have already dropped any state an
		// aborted solve corrupted (cpuInstance/Session poisoning contract).
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
	// Re-publish under the fingerprint the oracle now answers for.  A
	// structural step (positivity flip inside a region, a flipped boundary
	// wiring) rebuilt the affected regions cold during the solve, so the
	// oracle is usable again by construction — never a poisoned cache entry —
	// and the chain continues warm from the next step.
	s.oracles.publish(oracleKey(target.Fingerprint(), sol, b), oracle)
	if base != nil && claimed {
		s.shardedUpdWarm.Add(1)
	}
	return rep, true, claimed, nil
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
	if e, ok := s.cache[key]; ok && e.ready.Load() && e.inst == inst {
		delete(s.cache, key)
	}
	s.mu.Unlock()
}

// Release drops the warm state the service holds for (p, solver): the flat
// warm instance cached under the problem's fingerprint and, when a budget
// applies, the sharded region oracle cached for the chain.  It exists for
// session deletion and eviction — a closed or expired session must not pin
// warm engines against the cache bounds forever.  Unknown solvers and
// uncached fingerprints are no-ops.
func (s *Service) Release(p *Problem, solver string) {
	if p == nil {
		return
	}
	sol, err := s.reg.Get(solver)
	if err != nil {
		return
	}
	s.mu.Lock()
	delete(s.cache, p.Fingerprint()+"|"+sol.Name())
	s.mu.Unlock()
	if b := s.effectiveBudget(p); !b.IsZero() {
		// claim removes the entry; dropping the returned oracle (if any)
		// releases its per-region instances.
		s.oracles.claim(oracleKey(p.Fingerprint(), sol, b))
	}
}

// instance returns the warm instance for the (problem, solver) pair,
// creating and caching it on first use.  updatable selects the
// update-absorbing construction for a fresh instance (no effect on a cache
// hit).
func (s *Service) instance(w Warmable, p *Problem, updatable bool) (Instance, error) {
	key := p.Fingerprint() + "|" + w.Name()
	s.mu.Lock()
	e, ok := s.cache[key]
	if !ok {
		e = &cacheEntry{}
		s.cache[key] = e
		s.evictLocked(e)
	}
	s.tick++
	e.lastUse.Store(s.tick)
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}

	e.once.Do(func() {
		e.inst, e.err = buildInstance(w, p, updatable)
		e.ready.Store(true)
	})
	if e.err != nil {
		// A failed construction is not worth caching: drop the entry so a
		// later (possibly fixed) problem with the same fingerprint retries.
		s.mu.Lock()
		if s.cache[key] == e {
			delete(s.cache, key)
		}
		s.mu.Unlock()
		return nil, e.err
	}
	return e.inst, nil
}

// evictLocked drops least-recently-used entries (never keep, never an entry
// whose construction is still in flight — see cacheEntry.ready) until the
// cache respects its bound.  When every other entry is under construction the
// cache is allowed to run over its bound temporarily; the next insert evicts
// once those constructions finish.  Callers hold s.mu.
func (s *Service) evictLocked(keep *cacheEntry) {
	for len(s.cache) > s.maxCached {
		var victimKey string
		var victim *cacheEntry
		for k, e := range s.cache {
			if e == keep || !e.ready.Load() {
				continue
			}
			if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(s.cache, victimKey)
	}
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
	// Warm reports whether warm state absorbed the update: for flat chains,
	// a warm instance updated in place (false on the first step of a chain,
	// after a structural change, and for backends without warm state); for
	// sharded chains, the chain's cached region oracle was claimed and
	// rebound — individual regions may still have rebuilt cold on a
	// structural change (Stats.RegionColdRebuilds counts those).
	Warm bool
	// Structural reports whether the step carried a topology component, and
	// SlackRemaining how many parked slots the updated problem still holds —
	// the number of future insertions (per endpoint pair) the warm state can
	// absorb before an append forces a cold rebuild.
	Structural     bool
	SlackRemaining int
}

// Update is the stateful sibling of Solve: it derives the updated problem
// (Problem.WithUpdate), routes it to the warm instance the cache holds for
// the base problem when one exists and can absorb the mutation — the analog
// backends re-stamp clamp values into their frozen circuit pattern and
// re-solve from the previous operating point, the CPU backends drain/extend
// their residual network and re-augment — and falls back to building a fresh
// update-capable instance otherwise.  Either way the instance ends up cached
// under the updated problem's fingerprint, so chains of updates stay warm.
//
// Claiming the warm instance moves it: the base problem's cache entry is
// re-keyed to the updated problem, and concurrent updates branching off the
// same base race for the warm state — one wins, the rest build cold (their
// reports agree to solver tolerance; exactly for the deterministic CPU
// backends).  Like Solve, the call waits for a free service-wide worker slot.
//
// A chain whose problems exceed the effective substrate budget runs sharded
// and follows the same discipline one level up: the whole region oracle —
// one warm instance per region — is claimed from the oracle cache, rebound
// region by region, and re-published under the new fingerprint (see
// planAndRoute).  For the CPU backends a warm sharded step may recover a
// different — equally optimal — per-region flow than a cold one, which can
// steer the consensus iteration down a different path: warm and cold sharded
// reports agree to the decomposition tolerance, not bit-for-bit (the
// behavioral backend, being deterministic warm or cold, does agree exactly).
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
	// An oversized chain stays sharded — and stays warm: the planner claims
	// the region oracle cached for the base problem's fingerprint, each
	// region absorbs its share of the capacity delta through the same
	// WithUpdate/UpdatableInstance.Update path flat chains use, and the
	// oracle is re-published under the updated fingerprint for the next
	// step.  Structural steps (a capacity crossing zero inside a region)
	// rebuild only the affected regions cold — counted in
	// Stats.RegionColdRebuilds — and the rest of the oracle stays warm.
	if rep, routed, warm, err := s.planAndRoute(ctx, sol, req.Problem, target); routed {
		if err != nil {
			return nil, err
		}
		return &UpdateResult{Report: rep, Problem: target, Warm: warm,
			Structural: structural, SlackRemaining: target.StructuralSlack()}, nil
	}
	start := time.Now()
	w, warmable := sol.(Warmable)
	if !warmable {
		// Backends without per-problem state (lp, decompose) just solve the
		// updated problem.
		rep, err := guardSolve(sol.Name(), func() (*Report, error) { return sol.Solve(ctx, target) })
		if err != nil {
			return nil, err
		}
		rep.Solver = sol.Name()
		if rep.WallTime == 0 {
			rep.WallTime = time.Since(start)
		}
		return &UpdateResult{Report: rep, Problem: target,
			Structural: structural, SlackRemaining: target.StructuralSlack()}, nil
	}
	inst, warm, err := s.updateInstance(w, req.Problem, target)
	if err != nil {
		return nil, err
	}
	rep, err := guardSolve(sol.Name(), func() (*Report, error) { return inst.Solve(ctx) })
	if err != nil {
		if errors.Is(err, ErrSolverPanic) {
			// updateInstance published this instance under the target
			// fingerprint; a panic mid-solve poisons it, so drop that entry
			// and let the chain's next touch rebuild cold.
			s.dropInstance(target.Fingerprint()+"|"+w.Name(), inst)
		}
		return nil, err
	}
	// Same guard as Service.solve: the instance is published under the
	// target fingerprint before this solve runs, so an identical-chain
	// Update branching off the target may already have claimed and rebound
	// it.  On a binding mismatch, re-solve the target on a fresh instance.
	if b, ok := inst.(interface{ BoundFingerprint() string }); ok &&
		b.BoundFingerprint() != target.Fingerprint() {
		fresh, err := buildInstance(w, target, true)
		if err != nil {
			return nil, err
		}
		warm = false
		rep, err = guardSolve(sol.Name(), func() (*Report, error) { return fresh.Solve(ctx) })
		if err != nil {
			return nil, err
		}
	}
	if warm {
		// Counted only after the binding guard, so the stat never claims a
		// warm hit for a step that fell back to a cold re-solve.
		s.updatesWarm.Add(1)
	}
	rep.Solver = sol.Name()
	if rep.WallTime == 0 {
		rep.WallTime = time.Since(start)
	}
	return &UpdateResult{Report: rep, Problem: target, Warm: warm,
		Structural: structural, SlackRemaining: target.StructuralSlack()}, nil
}

// updateInstance routes an update to the warm instance cached for the base
// problem, or builds a fresh update-capable instance for the target.
func (s *Service) updateInstance(w Warmable, base, target *Problem) (Instance, bool, error) {
	baseKey := base.Fingerprint() + "|" + w.Name()
	targetKey := target.Fingerprint() + "|" + w.Name()

	// Claim the base entry: removing it from the map makes this goroutine
	// the instance's only owner for the in-place mutation.
	s.mu.Lock()
	e := s.cache[baseKey]
	var claimed *cacheEntry
	if e != nil && e.ready.Load() && e.err == nil {
		if _, ok := e.inst.(UpdatableInstance); ok {
			delete(s.cache, baseKey)
			claimed = e
		}
	}
	s.mu.Unlock()

	if claimed != nil {
		err := guardErr(w.Name(), func() error { return claimed.inst.(UpdatableInstance).Update(target) })
		if err == nil {
			s.hits.Add(1)
			s.putEntry(targetKey, claimed)
			return claimed.inst, true, nil
		}
		if errors.Is(err, ErrSolverPanic) {
			// The panic may have left the instance half-mutated — valid for
			// neither base nor target — so drop it instead of putting it
			// back (the claim already removed it from the cache).
			return nil, false, err
		}
		// The instance could not absorb the update, but it is still a valid
		// warm instance for the base problem: put it back so base-problem
		// solve traffic keeps its warm state.
		s.putEntry(baseKey, claimed)
		if !errors.Is(err, ErrIncompatibleUpdate) {
			return nil, false, err
		}
		if errors.Is(err, ErrSlackExhausted) {
			// An insertion had to append past the warm pattern's slot pool:
			// this is the one honest cold rebuild of the slack contract.
			s.slackExhausted.Add(1)
		}
		// Structural change (or a non-updatable instance): fall through to a
		// cold build for the target.
	}

	s.misses.Add(1)
	inst, err := buildInstance(w, target, true)
	if err != nil {
		return nil, false, err
	}
	ne := &cacheEntry{inst: inst}
	ne.once.Do(func() {})
	ne.ready.Store(true)
	s.putEntry(targetKey, ne)
	return inst, false, nil
}

// buildInstance constructs a warm instance for p, preferring the
// update-absorbing construction when asked for and supported.
func buildInstance(w Warmable, p *Problem, updatable bool) (Instance, error) {
	if us, ok := w.(UpdatableSolver); ok && updatable {
		return us.NewUpdatableInstance(p)
	}
	return w.NewInstance(p)
}

// putEntry inserts a pre-built entry under key, keeping an already-present
// entry (two racers produced equivalent instances; first one wins, the loser
// keeps solving its uncached instance).
func (s *Service) putEntry(key string, e *cacheEntry) {
	s.mu.Lock()
	if _, exists := s.cache[key]; !exists {
		s.cache[key] = e
		s.evictLocked(e)
	}
	s.tick++
	e.lastUse.Store(s.tick)
	s.mu.Unlock()
}
