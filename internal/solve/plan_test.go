package solve

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"analogflow/internal/cluster"
	"analogflow/internal/core"
	"analogflow/internal/decompose"
	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
	"analogflow/internal/testutil"
)

func TestBudgetValidate(t *testing.T) {
	if err := (Budget{}).Validate(); err != nil {
		t.Errorf("zero budget invalid: %v", err)
	}
	if err := (Budget{MaxVertices: 64}).Validate(); err != nil {
		t.Errorf("plain budget invalid: %v", err)
	}
	if err := (Budget{MaxVertices: 1}).Validate(); err == nil {
		t.Errorf("max vertices 1 accepted")
	}
	if err := (Budget{MaxVertices: 64, Partitioner: "voronoi"}).Validate(); err == nil {
		t.Errorf("unknown partitioner accepted")
	}
	if _, err := NewProblem(graph.PaperFigure5(), WithBudget(Budget{MaxVertices: 64, Partitioner: "voronoi"})); err == nil {
		t.Errorf("NewProblem accepted an invalid budget")
	}
}

func TestBudgetFromArchitecture(t *testing.T) {
	arch := cluster.Architecture{Topology: cluster.Topology2D, IslandSize: 32, Islands: 8, ChannelCapacity: 64}
	b := BudgetFromArchitecture(arch)
	if b.MaxVertices != 32 || b.MaxRegions != 8 || b.Partitioner != "cluster" {
		t.Errorf("unexpected budget from architecture: %+v", b)
	}
	if b := BudgetFromCrossbar(64, 48); b.MaxVertices != 48 {
		t.Errorf("crossbar budget %+v does not take the binding dimension", b)
	}
}

func TestPlanForMonolithicUnderBudget(t *testing.T) {
	p, err := NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := planFor(p, Budget{MaxVertices: 64})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sharded {
		t.Errorf("five vertices sharded under a 64-vertex budget: %+v", plan)
	}
	if plan.Vertices != 5 {
		t.Errorf("plan vertices %d, want 5", plan.Vertices)
	}
}

func TestPlanForShardsOversizedInstance(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 9))
	p, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, partitioner := range []string{"bfs", "cluster"} {
		plan, part, err := planFor(p, Budget{MaxVertices: 80, Partitioner: partitioner})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Sharded {
			t.Fatalf("%s: 200 vertices not sharded under an 80-vertex budget: %+v", partitioner, plan)
		}
		if plan.Regions != part.NumRegions() || plan.Regions < 2 {
			t.Errorf("%s: plan regions %d vs partition %d", partitioner, plan.Regions, part.NumRegions())
		}
		if len(plan.RegionVertices) != plan.Regions {
			t.Errorf("%s: %d region sizes for %d regions", partitioner, len(plan.RegionVertices), plan.Regions)
		}
		if err := part.Validate(g); err != nil {
			t.Errorf("%s: planned partition invalid: %v", partitioner, err)
		}
	}
}

// TestServiceAutoShardsOversizedProblem is the acceptance path: a service
// configured with a substrate budget routes an oversized instance through the
// N-region decomposition automatically — for a CPU backend and for the
// behavioral analog backend — the report carries the plan, the flow value
// stays within tolerance of the exact value, and the planner counters move.
func TestServiceAutoShardsOversizedProblem(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 9))
	exact, err := maxflow.OptimalValue(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"dinic", "push-relabel", "behavioral"} {
		svc := NewService(Config{Workers: 2, Budget: Budget{MaxVertices: 80}})
		p, err := NewProblem(g)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := svc.Solve(context.Background(), Request{Solver: solver, Problem: p})
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if rep.Plan == nil || !rep.Plan.Sharded {
			t.Fatalf("%s: report carries no sharded plan: %+v", solver, rep.Plan)
		}
		if rep.Solver != solver {
			t.Errorf("%s: report solver %q", solver, rep.Solver)
		}
		if rep.Plan.Regions < 2 {
			t.Errorf("%s: sharded into %d regions", solver, rep.Plan.Regions)
		}
		tol := 0.25
		if solver == "behavioral" {
			tol = 0.35 // quantization + perturbation noise on top of the consensus gap
		}
		testutil.AssertAlmostEqual(t, rep.FlowValue, exact, tol, solver+" sharded flow vs exact")
		if planned, sharded := plannerCounters(t, svc); planned != 1 || sharded != 1 {
			t.Errorf("%s: planner stats %v planned / %v sharded, want 1 / 1", solver, planned, sharded)
		}
	}
}

// TestServiceBudgetMonolithicWhenFits: the planner leaves an in-budget
// problem on the normal (warm-cache) path and does not stamp a plan.
func TestServiceBudgetMonolithicWhenFits(t *testing.T) {
	svc := NewService(Config{Workers: 1, Budget: Budget{MaxVertices: 64}})
	p, err := NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan != nil {
		t.Errorf("monolithic solve unexpectedly carries a plan: %+v", rep.Plan)
	}
	if planned, sharded := plannerCounters(t, svc); planned != 1 || sharded != 0 {
		t.Errorf("planner stats %v planned / %v sharded, want 1 / 0", planned, sharded)
	}
}

// TestShardedSerialVsConcurrentIdentical pins the service-level contract: a
// sharded solve produces an identical (normalized) report for one worker and
// for many, for every N in {2, 4, 8}.
func TestShardedSerialVsConcurrentIdentical(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 9))
	for _, regions := range []int{2, 4, 8} {
		budget := Budget{MaxVertices: 210/regions + 40, MaxRegions: regions}
		run := func(workers int) Report {
			svc := NewService(Config{Workers: workers, Budget: budget})
			p, err := NewProblem(g)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: p})
			if err != nil {
				t.Fatal(err)
			}
			return rep.Normalized()
		}
		serial := run(1)
		concurrent := run(8)
		if serial.Plan == nil || !serial.Plan.Sharded {
			t.Fatalf("regions=%d: not sharded: %+v", regions, serial.Plan)
		}
		if !reflect.DeepEqual(serial.Plan, concurrent.Plan) {
			t.Errorf("regions=%d: plans differ:\nserial:     %+v\nconcurrent: %+v", regions, *serial.Plan, *concurrent.Plan)
		}
		serial.Plan, concurrent.Plan = nil, nil
		if serial.FlowValue != concurrent.FlowValue || serial.Iterations != concurrent.Iterations ||
			serial.Converged != concurrent.Converged || serial.ExactValue != concurrent.ExactValue {
			t.Errorf("regions=%d: reports differ:\nserial:     %+v\nconcurrent: %+v", regions, serial, concurrent)
		}
	}
}

// TestRegionOracleWarmCPU: across outer iterations the CPU region oracle
// never rebuilds an instance cold — every retarget is absorbed by the warm
// residual network.
func TestRegionOracleWarmCPU(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 9))
	p, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, part, err := planFor(p, Budget{MaxVertices: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Sharded {
		t.Fatal("instance not sharded")
	}
	sol, err := DefaultRegistry().Get("dinic")
	if err != nil {
		t.Fatal(err)
	}
	oracle := newRegionOracle(sol, p.Params())
	opts := p.DecomposeOptions()
	opts.Oracle = oracle
	res, err := decompose.SolveContext(context.Background(), p.Graph(), part, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("decomposition converged in %d iteration(s); the warm path was never exercised", res.Iterations)
	}
	if n := oracle.rebuilds(); n != 0 {
		t.Errorf("%d cold region rebuilds across %d iterations, want 0", n, res.Iterations)
	}
}

// TestRegionOracleWarmAnalogZeroSymbolicRefactorizations is the Section 6.4
// warm-substrate invariant: with the circuit backend as the region oracle,
// every region keeps one session (and one MNA engine) across outer
// iterations, so after the first iteration the retargeted capacities are
// re-stamped into the frozen sparsity pattern — numeric refactorizations
// accumulate, symbolic factorizations stay pinned at one per region.
func TestRegionOracleWarmAnalogZeroSymbolicRefactorizations(t *testing.T) {
	// A path instance with a mid-chain bottleneck: deep enough to split,
	// disagreeing enough that consensus needs several iterations, and
	// retargets that never cross a quantization-structure boundary.
	const n = 12
	g := graph.MustNew(n, 0, n-1)
	for v := 0; v < n-1; v++ {
		cap := 10.0
		if v == 3 {
			cap = 4
		}
		g.MustAddEdge(v, v+1, cap)
	}
	params := core.DefaultParams()
	params.Variation = core.DefaultCleanVariation()
	p, err := NewProblem(g, WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	part, err := p.PartitionInto("bfs", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := DefaultRegistry().Get("circuit")
	if err != nil {
		t.Fatal(err)
	}
	oracle := newRegionOracle(sol, params)
	opts := p.DecomposeOptions()
	opts.Oracle = oracle
	opts.MaxIterations = 6
	opts.Tolerance = 1e-4 // keep iterating: the pin needs several warm re-solves
	res, err := decompose.SolveContext(context.Background(), g, part, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("decomposition stopped after %d iteration(s); the warm path was never exercised", res.Iterations)
	}
	if n := oracle.rebuilds(); n != 0 {
		t.Fatalf("%d cold region rebuilds, want 0 (warm sessions lost)", n)
	}
	stats := oracle.engineStats()
	if len(stats) == 0 {
		t.Fatal("no region engines recorded")
	}
	for r, st := range stats {
		if st.Factorizations != 1 {
			t.Errorf("region %d: %d symbolic factorizations after %d iterations, want exactly 1",
				r, st.Factorizations, res.Iterations)
		}
		if st.Refactorizations == 0 {
			t.Errorf("region %d: no numeric refactorizations — the warm path did not run", r)
		}
	}
}

// TestDecomposeBackendCarriesPlan: the decompose backend reports its region
// plan for default (two-region) runs and honours the problem budget.
func TestDecomposeBackendCarriesPlan(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 9))
	p, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DefaultRegistry().Solve(context.Background(), "decompose", p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || rep.Plan.Regions != 2 || rep.Plan.Partitioner != "bfs" {
		t.Errorf("default decompose plan: %+v, want two bfs regions", rep.Plan)
	}
	budgeted, err := NewProblem(g, WithBudget(Budget{MaxVertices: 60, MaxRegions: 8}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err = DefaultRegistry().Solve(context.Background(), "decompose", budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded || rep.Plan.Regions < 3 {
		t.Errorf("budgeted decompose plan: %+v, want >= 3 regions under a 60-vertex budget", rep.Plan)
	}
	if rep.Plan.BudgetMaxVertices != 60 {
		t.Errorf("plan does not echo the budget: %+v", rep.Plan)
	}
}

// TestNRegionProblemOptionsMatchTwoRegion: through the public problem API,
// N-region decompose options agree with the two-region default on the
// paper's Figure 5 instance (the N-vs-2 acceptance gate at the solve layer).
func TestNRegionProblemOptionsMatchTwoRegion(t *testing.T) {
	for _, regions := range []int{2, 4, 8} {
		opts := decompose.DefaultOptions()
		opts.Regions = regions
		p, err := NewProblem(graph.PaperFigure5(), WithDecomposeOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := DefaultRegistry().Solve(context.Background(), "decompose", p)
		if err != nil {
			t.Fatal(err)
		}
		testutil.AssertAlmostEqual(t, rep.FlowValue, graph.PaperFigure5MaxFlow, 0.05,
			"figure5 decompose flow")
		if rep.Plan == nil {
			t.Fatal("no plan on decompose report")
		}
	}
}

// TestCapacityDiff covers the oracle's structural guard.
func TestCapacityDiff(t *testing.T) {
	g := graph.PaperFigure5()
	same, ok := capacityDiff(g, g)
	if !ok || len(same.Edges) != 0 {
		t.Errorf("self diff: %+v ok=%v", same, ok)
	}
	caps := make([]float64, g.NumEdges())
	for i := range caps {
		caps[i] = g.Edge(i).Capacity
	}
	caps[2] = 7
	changed, err := g.WithCapacities(caps)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := capacityDiff(g, changed)
	if !ok || len(u.Edges) != 1 || u.Edges[0] != 2 || u.Capacities[0] != 7 {
		t.Errorf("capacity diff: %+v ok=%v", u, ok)
	}
	other := graph.MustNew(g.NumVertices(), g.Source(), g.Sink())
	other.MustAddEdge(0, 2, 1) // different edge list
	if _, ok := capacityDiff(g, other); ok {
		t.Errorf("structural difference not detected")
	}
}

// shardGaugeSolver counts concurrent entries into a delegated backend, for
// sharded worker-bound assertions (region oracles need real edge flows, so
// this wraps an exact solver instead of faking a report).
type shardGaugeSolver struct {
	inner    Solver
	inFlight atomic.Int64
	peak     atomic.Int64
}

func (g *shardGaugeSolver) Name() string     { return "gauged" }
func (g *shardGaugeSolver) Describe() string { return "concurrency-gauged exact solver" }

func (g *shardGaugeSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	n := g.inFlight.Add(1)
	defer g.inFlight.Add(-1)
	for {
		cur := g.peak.Load()
		if n <= cur || g.peak.CompareAndSwap(cur, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond) // widen the overlap window
	return g.inner.Solve(ctx, p)
}

// TestShardedSolvesRespectWorkerBound: the service-wide worker bound holds
// for sharded requests too — a sharded request releases its own slot and
// every region solve acquires one, so N concurrent oversized requests never
// exceed Workers in-flight backend solves.
func TestShardedSolvesRespectWorkerBound(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 9))
	inner, err := DefaultRegistry().Get("dinic")
	if err != nil {
		t.Fatal(err)
	}
	gauge := &shardGaugeSolver{inner: inner}
	reg := NewRegistry()
	if err := reg.Register(gauge); err != nil {
		t.Fatal(err)
	}
	const workers = 2
	svc := NewService(Config{Registry: reg, Workers: workers, Budget: Budget{MaxVertices: 80}})
	var wg sync.WaitGroup
	for i := 0; i < 2*workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewProblem(g)
			if err != nil {
				t.Error(err)
				return
			}
			rep, err := svc.Solve(context.Background(), Request{Solver: "gauged", Problem: p})
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Plan == nil || !rep.Plan.Sharded {
				t.Errorf("request not sharded: %+v", rep.Plan)
			}
		}()
	}
	wg.Wait()
	if peak := gauge.peak.Load(); peak > workers {
		t.Errorf("peak of %d concurrent backend solves exceeds the worker bound %d", peak, workers)
	}
	if got := MetricValue(t, svc, "analogflow_in_flight_solves"); got != 0 {
		t.Errorf("in-flight gauge %v after completion, want 0", got)
	}
}

// TestServiceBudgetReachesDecomposeBackend: the service-wide budget applies
// to the decompose backend too — a budget-less oversized problem routed to
// "decompose" is split to the service budget, not to the default two regions.
func TestServiceBudgetReachesDecomposeBackend(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 9))
	svc := NewService(Config{Workers: 1, Budget: Budget{MaxVertices: 80, MaxRegions: 8}})
	p, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Solve(context.Background(), Request{Solver: "decompose", Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded || rep.Plan.BudgetMaxVertices != 80 || rep.Plan.Regions < 3 {
		t.Errorf("service budget did not reach the decompose backend: plan %+v", rep.Plan)
	}
	if planned, sharded := plannerCounters(t, svc); planned != 1 || sharded != 1 {
		t.Errorf("planner stats %v planned / %v sharded, want 1 / 1", planned, sharded)
	}
	// A problem carrying its own budget wins over the service default.
	own, err := NewProblem(g, WithBudget(Budget{MaxVertices: 120}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err = svc.Solve(context.Background(), Request{Solver: "decompose", Problem: own})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || rep.Plan.BudgetMaxVertices != 120 {
		t.Errorf("problem budget not honoured: plan %+v", rep.Plan)
	}
}
