package solve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"analogflow/internal/cluster"
	"analogflow/internal/core"
	"analogflow/internal/decompose"
	"analogflow/internal/graph"
)

// Budget describes the substrate capacity available to one monolithic solve —
// the planner's input.  An instance that exceeds the budget is sharded into
// overlapping regions (Section 6.4 dual decomposition) sized to fit it, each
// region solved by the requested backend.
type Budget struct {
	// MaxVertices is the largest instance a single monolithic solve may
	// take, measured on the original graph (the same quantity the analog
	// crossbar bounds); <= 0 means unbounded and disables the planner.
	MaxVertices int `json:"max_vertices,omitempty"`
	// MaxRegions caps how many regions the planner may shard into (the
	// island count of a clustered fabric); <= 0 selects 16.
	MaxRegions int `json:"max_regions,omitempty"`
	// Partitioner names the region partitioner: "bfs" (default) or
	// "cluster".
	Partitioner string `json:"partitioner,omitempty"`
}

// IsZero reports whether the budget imposes no constraint (planner disabled).
func (b Budget) IsZero() bool { return b.MaxVertices <= 0 }

// Validate checks the budget.  The partitioner name is checked even for a
// zero (planner-disabled) budget, so a typo surfaces instead of going inert.
func (b Budget) Validate() error {
	if _, err := decompose.PartitionerByName(b.Partitioner); err != nil {
		return err
	}
	if b.IsZero() {
		return nil
	}
	if b.MaxVertices < 2 {
		return fmt.Errorf("solve: budget max vertices must be at least 2, got %d", b.MaxVertices)
	}
	return nil
}

// maxRegions returns the region cap, defaulting to 16.
func (b Budget) maxRegions() int {
	if b.MaxRegions <= 0 {
		return 16
	}
	return b.MaxRegions
}

// BudgetFromArchitecture derives the planner budget of a clustered island
// fabric (Section 6.2): each region subproblem must fit one island's mesh,
// and the fabric's island count bounds how many regions can solve at once.
func BudgetFromArchitecture(a cluster.Architecture) Budget {
	return Budget{
		MaxVertices: a.IslandSize,
		MaxRegions:  a.Islands,
		Partitioner: decompose.ClusterPartitioner{}.Name(),
	}
}

// BudgetFromCrossbar derives the planner budget of a monolithic crossbar:
// one region per substrate pass, bounded by the array dimension.
func BudgetFromCrossbar(rows, cols int) Budget {
	n := rows
	if cols < n {
		n = cols
	}
	return Budget{MaxVertices: n}
}

// Plan is the planner's decision for one problem under one budget, exposed in
// the solve Report so clients can see how their instance was executed.
type Plan struct {
	// Sharded reports whether the instance was split into regions; a
	// monolithic plan leaves the remaining fields describing the (single
	// region) instance.
	Sharded bool `json:"sharded"`
	// Vertices is the instance size the decision was made on.
	Vertices int `json:"vertices"`
	// BudgetMaxVertices echoes the budget the decision honoured (0 when no
	// budget applied).
	BudgetMaxVertices int `json:"budget_max_vertices,omitempty"`
	// Regions is the region count of a sharded plan.
	Regions int `json:"regions,omitempty"`
	// Partitioner names the partitioner that produced the regions.
	Partitioner string `json:"partitioner,omitempty"`
	// RegionVertices lists |V| of each region subproblem (virtual terminals
	// included).  When a shallow or skewed instance cannot be cut into
	// budget-sized regions the planner ships the best partition it found;
	// oversized entries here are the signal.
	RegionVertices []int `json:"region_vertices,omitempty"`
	// OuterIterations, RegionSolves and RegionSkips describe the consensus
	// work of a sharded solve: outer iterations executed (a rejected warm
	// quick attempt included), region subproblems the oracle actually solved,
	// and clean regions replayed from carried state instead of re-solved.
	OuterIterations int `json:"outer_iterations,omitempty"`
	RegionSolves    int `json:"region_solves,omitempty"`
	RegionSkips     int `json:"region_skips,omitempty"`
	// WarmStart reports whether carried consensus state seeded the run;
	// Escalated whether the warm quick attempt was rejected (unconverged, or
	// outside the acceptance band against the exact reference) and the full
	// consensus re-ran on the still-warm region instances.
	WarmStart bool `json:"warm_start,omitempty"`
	Escalated bool `json:"escalated,omitempty"`
}

// planFor decides monolithic-vs-sharded execution for p under budget b and,
// for sharded plans, returns the partition to run.  The partition for a given
// (partitioner, regions) pair is memoised on the problem, so re-solves and
// concurrent requests share the work.
func planFor(p *Problem, b Budget) (*Plan, decompose.Partition, error) {
	n := p.Graph().NumVertices()
	plan := &Plan{Vertices: n}
	if b.IsZero() || n <= b.MaxVertices {
		return plan, decompose.Partition{}, nil
	}
	if err := b.Validate(); err != nil {
		return nil, decompose.Partition{}, err
	}
	pt, err := decompose.PartitionerByName(b.Partitioner)
	if err != nil {
		return nil, decompose.Partition{}, err
	}
	plan.BudgetMaxVertices = b.MaxVertices
	plan.Partitioner = pt.Name()

	// Start at the count that would fit with zero overlap and grow while
	// that SHRINKS the largest region, stopping as soon as every region
	// fits the budget or growth stops helping — overlap duplication, split
	// nodes and partitioner granularity can keep some regions above budget
	// on shallow hub-dominated instances, and piling on more regions there
	// only degrades the consensus without fitting anything.  The shipped
	// plan reports any oversized regions honestly.
	want := (n + b.MaxVertices - 1) / b.MaxVertices
	if want < 2 {
		want = 2
	}
	maxR := b.maxRegions()
	if want > maxR {
		want = maxR
	}
	var best decompose.Partition
	var bestSizes []int
	bestMax := 0
	stale := 0
	for k := want; k <= maxR; k++ {
		part, err := p.partitionInto(pt, k)
		if err != nil {
			return nil, decompose.Partition{}, err
		}
		sizes := regionSizes(part, p.Graph())
		maxSize := 0
		for _, s := range sizes {
			if s > maxSize {
				maxSize = s
			}
		}
		if best.NumRegions() == 0 || maxSize < bestMax {
			best, bestSizes, bestMax = part, sizes, maxSize
			stale = 0
		} else {
			stale++
		}
		if bestMax <= b.MaxVertices || stale >= 2 {
			break
		}
	}
	plan.Sharded = best.NumRegions() > 1
	plan.Regions = best.NumRegions()
	plan.RegionVertices = bestSizes
	if !plan.Sharded {
		// The partitioner collapsed to a single region (e.g. a shallow
		// instance); execution is monolithic after all.
		plan.BudgetMaxVertices = b.MaxVertices
		return plan, decompose.Partition{}, nil
	}
	return plan, best, nil
}

// regionSizes computes |V| of each region subproblem as the decomposition
// will build it: region members, plus the virtual terminals a region without
// the real source or sink gains, plus one out-half node per non-terminal
// overlap vertex (the split-vertex consensus gadget).
func regionSizes(part decompose.Partition, g *graph.Graph) []int {
	sizes := make([]int, part.NumRegions())
	for r, in := range part.In {
		count := 0
		for v, b := range in {
			if !b {
				continue
			}
			count++
			if v != g.Source() && v != g.Sink() {
				shared := 0
				for _, other := range part.In {
					if other[v] {
						shared++
					}
				}
				if shared > 1 {
					count++ // the ov_out half of the split
				}
			}
		}
		if !in[g.Source()] {
			count++
		}
		if !in[g.Sink()] {
			count++
		}
		sizes[r] = count
	}
	return sizes
}

// --- registry-backed region oracle ------------------------------------------

// regionOracle solves decomposition subproblems with a registry backend,
// keeping one warm instance per region across outer iterations: the region
// index is stable, the iteration-to-iteration retargeting is capacity-only,
// so a warm instance absorbs it through the same update path dynamic graphs
// use — the analog sessions re-stamp their pattern-frozen circuits (zero new
// symbolic factorizations after the first iteration), the CPU backends drain
// and re-augment their residual networks.
//
// The same mechanism extends across decomposition RUNS: a capacity-only
// update of the parent problem reaches each region as a capacity-only change
// of its subproblem graph (the partition depends only on adjacency, which
// capacity updates never touch), so an oracle carried from one SolveContext
// call to the next — the service's chain table does exactly that for sharded
// Service.Update chains — absorbs the next step's regions warm.  A region
// whose structure did change (a positivity flip moved its s-t core, or new
// capacities flipped a boundary-wiring decision) falls back to a cold rebuild
// of that region alone and the chain continues; coldRebuilds counts these.
type regionOracle struct {
	sol    Solver
	params core.Params

	mu      sync.Mutex
	regions map[int]*oracleRegion
	// coldRebuilds counts post-first-build instance reconstructions — the
	// warm-path regressions the planner tests pin to zero.
	coldRebuilds int

	// consensus is the decomposition state of this oracle's last sharded
	// solve (decompose.WarmState), carried across Service.Update steps with
	// the oracle so the next step can seed its outer loop instead of
	// re-running consensus from the structural relaxation.  baselineRelErr is
	// the relative error of the last FULL consensus run — the acceptance
	// reference for warm quick attempts (a warm result is only accepted while
	// it stays within a small band of what full consensus achieves on this
	// chain).  Both are touched only by the single solvePlanned run that owns
	// the oracle, never by concurrent region solves, so they ride
	// outside the mutex.
	consensus      *decompose.WarmState
	baselineRelErr float64
	hasBaseline    bool
}

// oracleRegion is the warm state of one region's solver chain.
type oracleRegion struct {
	prob *Problem
	inst Instance
}

// newRegionOracle builds an oracle around a backend and the parent problem's
// substrate parameters.
func newRegionOracle(sol Solver, params core.Params) *regionOracle {
	return &regionOracle{sol: sol, params: params, regions: make(map[int]*oracleRegion)}
}

// SolveRegion implements decompose.Oracle.  Calls for distinct regions may
// run concurrently (the decomposition fans them over the bounded pool); the
// outer loop serialises calls for the same region, so the per-region state
// needs no lock beyond the registry map's.
func (o *regionOracle) SolveRegion(ctx context.Context, region int, g *graph.Graph) (*graph.Flow, error) {
	o.mu.Lock()
	st := o.regions[region]
	if st == nil {
		st = &oracleRegion{}
		o.regions[region] = st
	}
	o.mu.Unlock()

	if st.prob == nil {
		prob, err := NewProblem(g, WithParams(o.params))
		if err != nil {
			return nil, err
		}
		st.prob = prob
	} else if upd, ok := capacityDiff(st.prob.Graph(), g); !ok {
		// The decomposition only retargets capacities; a structural change
		// means the caller handed us a different region — rebuild.
		o.noteRebuild(st)
		prob, err := NewProblem(g, WithParams(o.params))
		if err != nil {
			return nil, err
		}
		st.prob = prob
	} else if len(upd.Edges) > 0 {
		next, err := st.prob.WithUpdate(upd)
		if err != nil {
			return nil, err
		}
		if ui, isUpd := st.inst.(UpdatableInstance); isUpd {
			switch err := guardErr(o.sol.Name(), func() error { return ui.Update(next) }); {
			case err == nil:
			case errors.Is(err, ErrSolverPanic):
				// The panic may have left the warm instance half-retargeted;
				// drop it and fail this region — the whole sharded solve
				// fails and the service drops the chain's oracle.
				o.noteRebuild(st)
				return nil, err
			case errors.Is(err, ErrIncompatibleUpdate):
				// The warm state cannot absorb this retarget (e.g. the
				// region's quantized work graph changed shape); fall back to
				// a cold build for the new problem.
				o.noteRebuild(st)
			default:
				return nil, err
			}
		} else {
			o.noteRebuild(st)
		}
		st.prob = next
	}

	if st.inst == nil {
		var inst Instance
		err := guardErr(o.sol.Name(), func() (err error) {
			if us, ok := o.sol.(UpdatableSolver); ok {
				inst, err = us.NewUpdatableInstance(st.prob)
			} else if w, ok := o.sol.(Warmable); ok {
				inst, err = w.NewInstance(st.prob)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		st.inst = inst
	}
	// Region solves run under the panic guard: a backend panic inside one
	// region becomes an ErrSolverPanic failure of that region (and so of the
	// whole sharded solve), not a process crash.  The region's warm instance
	// is poisoned by the panic — noteRebuild drops it and counts the cold
	// rebuild the region will pay if the (dropped-by-the-service) oracle is
	// ever solved on again.
	var rep *Report
	var err error
	if st.inst != nil {
		rep, err = guardSolve(o.sol.Name(), func() (*Report, error) { return st.inst.Solve(ctx) })
		if err != nil && errors.Is(err, ErrSolverPanic) {
			o.noteRebuild(st)
		}
	} else {
		rep, err = guardSolve(o.sol.Name(), func() (*Report, error) { return o.sol.Solve(ctx, st.prob) })
	}
	if err != nil {
		return nil, err
	}
	if rep.EdgeFlows == nil {
		return nil, fmt.Errorf("solve: backend %q reports no edge flows; it cannot serve as a region oracle", o.sol.Name())
	}
	return &graph.Flow{Value: rep.FlowValue, Edge: rep.EdgeFlows}, nil
}

// noteRebuild drops the region's warm instance and counts the cold rebuild
// (only when there was something warm to lose).
func (o *regionOracle) noteRebuild(st *oracleRegion) {
	if st.inst == nil {
		return
	}
	st.inst = nil
	o.mu.Lock()
	o.coldRebuilds++
	o.mu.Unlock()
}

// rebuilds returns how many times a warm region instance had to be rebuilt
// cold after its first construction.
func (o *regionOracle) rebuilds() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.coldRebuilds
}

// takeRebuilds returns the cold-rebuild count and resets it, so a caller
// reusing one oracle across solves can attribute rebuilds to the solve that
// caused them (the per-step warm/cold accounting of sharded update chains).
func (o *regionOracle) takeRebuilds() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.coldRebuilds
	o.coldRebuilds = 0
	return n
}

// engineStats collects the per-region MNA engine counters of analog-backed
// oracles, for the warm-region invariants the tests pin (region index order;
// regions without a circuit engine are skipped).
func (o *regionOracle) engineStats() map[int]struct {
	Factorizations, Refactorizations int
} {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[int]struct{ Factorizations, Refactorizations int })
	for r, st := range o.regions {
		ai, ok := st.inst.(*analogInstance)
		if !ok {
			continue
		}
		stats, ok := ai.session().EngineStats()
		if !ok {
			continue
		}
		out[r] = struct{ Factorizations, Refactorizations int }{
			Factorizations:   stats.Factorizations,
			Refactorizations: stats.Refactorizations,
		}
	}
	return out
}

// capacityDiff compares two structurally identical graphs and returns the
// capacity update that transforms old into new.  ok is false when the graphs
// differ structurally: vertex count, terminals, edge endpoints — or parked
// flags, because a park/unpark changes which edges the region's s-t core
// keeps resident.  A structural parent update therefore reaches the region
// oracle as a per-region structural change of exactly the regions owning the
// touched edges (an appended edge changes the owner's edge count, a park flips
// the owner's flag), and SolveRegion rebuilds those regions cold while every
// untouched region — whose subproblem graph is byte-identical or differs only
// in boundary capacities — stays warm.
func capacityDiff(oldG, newG *graph.Graph) (graph.CapacityUpdate, bool) {
	if oldG.NumVertices() != newG.NumVertices() ||
		oldG.NumEdges() != newG.NumEdges() ||
		oldG.Source() != newG.Source() || oldG.Sink() != newG.Sink() {
		return graph.CapacityUpdate{}, false
	}
	var u graph.CapacityUpdate
	for i, n := 0, oldG.NumEdges(); i < n; i++ {
		eo, en := oldG.Edge(i), newG.Edge(i)
		if eo.From != en.From || eo.To != en.To || oldG.ParkedEdge(i) != newG.ParkedEdge(i) {
			return graph.CapacityUpdate{}, false
		}
		if eo.Capacity != en.Capacity {
			u.Edges = append(u.Edges, i)
			u.Capacities = append(u.Capacities, en.Capacity)
		}
	}
	return u, true
}

// warmQuickIterations bounds the outer loop of a warm quick attempt: a
// seeded consensus either settles within a few iterations (the common case —
// one dirty region, readings re-agree immediately) or it is cheaper to
// escalate to the full run than to grind the truncated one.
const warmQuickIterations = 8

// warmAcceptSlack widens the acceptance band for warm quick attempts: a warm
// result is accepted only while its relative error stays within this factor
// of what the last full consensus run achieved on the same chain.  Carried
// consensus allowances are binding, so a capacity increase can converge below
// the new optimum — the band (measured against the memoised exact reference
// the sharded reports compute anyway) is what catches that and forces the
// escalation the decompose.WarmState contract demands.
const warmAcceptSlack = 1.25

// solvePlanned executes a sharded plan: the dual decomposition of the
// problem's graph under the plan's partition, with the requested backend as
// the warm region oracle.  The report carries the backend's name and the
// plan, so clients see both what solved the regions and how the instance was
// split.  wrap, when non-nil, decorates the oracle (the service binds each
// region solve to a worker slot through it).  The caller owns the oracle: a
// fresh one makes the solve cold, one taken from an update chain carries
// the previous solve's warm region instances — and the consensus state of
// the previous step — into this run.
//
// With carried consensus state the run is two-phase: a warm quick attempt
// seeds the outer loop from that state under a small iteration budget, and
// its result is accepted only if it converged AND lands inside the
// warmAcceptSlack band of the chain's full-consensus accuracy; otherwise the
// full consensus re-runs from the structural relaxation (still on the warm
// region instances, which absorb the retargets incrementally).  The full run
// refreshes the acceptance baseline; accepted quick attempts never do, so a
// drifting warm value cannot ratchet its own acceptance band.
func solvePlanned(ctx context.Context, sol Solver, p *Problem, plan *Plan, part decompose.Partition, workers int, wrap func(decompose.Oracle) decompose.Oracle, oracle *regionOracle) (*Report, error) {
	opts := p.DecomposeOptions()
	opts.Oracle = oracle
	if wrap != nil {
		opts.Oracle = wrap(oracle)
	}
	if workers > 0 {
		opts.Workers = workers
	}
	opts.CarryState = true
	start := time.Now()
	var res *decompose.Result
	// unseeded is the escalated full run's WarmState: the quick attempt's
	// region layout without its consensus seed, so the full run starts from
	// the structural relaxation, as a cold run does, without rebuilding the
	// regions.
	var unseeded *decompose.WarmState
	warmStart, escalated := false, false
	quickIters, quickSolves, quickSkips := 0, 0, 0
	if oracle.consensus != nil {
		quick := opts
		quick.WarmState = oracle.consensus
		if quick.MaxIterations > warmQuickIterations {
			quick.MaxIterations = warmQuickIterations
		}
		qres, err := decompose.SolveContext(ctx, p.Graph(), part, quick)
		if err != nil {
			return nil, err
		}
		warmStart = qres.WarmStarted
		accept := qres.Converged
		if accept {
			exact, err := p.ExactValue(ctx)
			if err != nil {
				return nil, err
			}
			band := oracle.baselineRelErr*warmAcceptSlack + 1e-9
			if !oracle.hasBaseline {
				band = p.DecomposeOptions().Tolerance
			}
			accept = graph.RelativeError(qres.FlowValue, exact) <= band
		}
		if accept {
			res = qres
		} else {
			escalated = true
			unseeded = qres.State.Unseeded()
			quickIters = qres.Iterations
			quickSolves = qres.RegionSolves
			quickSkips = qres.RegionSkips
		}
	}
	if res == nil {
		full := opts
		full.WarmState = unseeded
		fres, err := decompose.SolveContext(ctx, p.Graph(), part, full)
		if err != nil {
			return nil, err
		}
		exact, err := p.ExactValue(ctx)
		if err != nil {
			return nil, err
		}
		oracle.baselineRelErr = graph.RelativeError(fres.FlowValue, exact)
		oracle.hasBaseline = true
		res = fres
	}
	oracle.consensus = res.State
	wall := time.Since(start)
	planned := *plan
	planned.Regions = res.Regions
	planned.RegionVertices = res.SubproblemSizes
	planned.OuterIterations = res.Iterations + quickIters
	planned.RegionSolves = res.RegionSolves + quickSolves
	planned.RegionSkips = res.RegionSkips + quickSkips
	planned.WarmStart = warmStart
	planned.Escalated = escalated
	rep := &Report{FlowValue: res.FlowValue, Iterations: res.Iterations, Converged: res.Converged, Plan: &planned}
	return p.finish(ctx, sol.Name(), rep, nil, reference, wall)
}
