// Fault-injection matrix: drives the internal/faultinject harness through
// the service's failure domains and pins the isolation contracts — a backend
// panic becomes a typed error for exactly that caller, poisoned warm state is
// dropped (never served again), and the process-level counters account for
// every incident.  Lives in package solve_test because faultinject imports
// solve.
package solve_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"analogflow/internal/decompose"
	"analogflow/internal/faultinject"
	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
	"analogflow/internal/solve"
)

// faultyService builds a service whose sole backend is the real "dinic"
// solver wrapped by a fault injector, preserving its warmable/updatable
// capability surface.
func faultyService(t *testing.T, inj *faultinject.Injector, cfg solve.Config) *solve.Service {
	t.Helper()
	inner, err := solve.DefaultRegistry().Get("dinic")
	if err != nil {
		t.Fatal(err)
	}
	reg := solve.NewRegistry()
	if err := reg.Register(faultinject.WrapSolver(inner, inj)); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	return solve.NewService(cfg)
}

func figure5SolveProblem(t *testing.T) *solve.Problem {
	t.Helper()
	p, err := solve.NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFaultPanicFlatWarmChain pins the flat-cache isolation contract: a
// panic inside a warm instance surfaces as ErrSolverPanic carrying the
// backend name and a stack, the poisoned instance is evicted, and the next
// solve of the same fingerprint rebuilds cold and produces the original
// value — the process never stops serving.
func TestFaultPanicFlatWarmChain(t *testing.T) {
	inj := faultinject.New(faultinject.Plan{})
	svc := faultyService(t, inj, solve.Config{Workers: 1})
	prob := figure5SolveProblem(t)

	rep, err := svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: prob})
	if err != nil {
		t.Fatal(err)
	}
	want := rep.FlowValue
	if got := solve.MetricValue(t, svc, "analogflow_cached_instances"); got != 1 {
		t.Fatalf("warm cache holds %v instances after base solve, want 1", got)
	}

	inj.SetPlan(faultinject.Plan{PanicOnSolve: int(inj.Calls()) + 1})
	_, err = svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: prob})
	if !errors.Is(err, solve.ErrSolverPanic) {
		t.Fatalf("want ErrSolverPanic, got %v", err)
	}
	var pe *solve.SolverPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v carries no *SolverPanicError", err)
	}
	if pe.Solver != "dinic" {
		t.Errorf("panic attributed to %q, want dinic", pe.Solver)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "faultinject") {
		t.Errorf("panic stack does not reach the faulting frame:\n%s", pe.Stack)
	}
	if got := solve.MetricValue(t, svc, "analogflow_solver_panics_total"); got != 1 {
		t.Errorf("solver_panics = %v, want 1", got)
	}
	if got := solve.MetricValue(t, svc, "analogflow_cached_instances"); got != 0 {
		t.Errorf("poisoned instance still cached (%v entries)", got)
	}

	inj.SetPlan(faultinject.Plan{})
	misses := func() float64 {
		return solve.MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "miss")
	}
	missesBefore := misses()
	rep, err = svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: prob})
	if err != nil {
		t.Fatalf("post-panic solve failed: %v", err)
	}
	if rep.FlowValue != want {
		t.Errorf("post-panic value %v, want %v", rep.FlowValue, want)
	}
	if got := misses(); got != missesBefore+1 {
		t.Errorf("post-panic solve was not a cold cache miss (misses %v -> %v)", missesBefore, got)
	}
}

// bumpUpdate builds a warm-compatible capacity step: pure increases on a few
// non-terminal edges never cross zero, so they are capacity-only from every
// region's point of view.
func bumpUpdate(p *solve.Problem, k int) graph.CapacityUpdate {
	g := p.Graph()
	edges := g.Edges()
	var u graph.CapacityUpdate
	for i := 0; i < len(edges) && len(u.Edges) < 3; i++ {
		idx := (i*7 + k*13) % len(edges)
		e := edges[idx]
		if e.From == g.Source() || e.To == g.Source() || e.From == g.Sink() || e.To == g.Sink() {
			continue
		}
		dup := false
		for _, seen := range u.Edges {
			if seen == idx {
				dup = true
			}
		}
		if dup {
			continue
		}
		u.Edges = append(u.Edges, idx)
		u.Capacities = append(u.Capacities, e.Capacity+5)
	}
	return u
}

// TestFaultPanicMidShardedUpdateChain is the acceptance scenario: a backend
// panic in the middle of a sharded warm update chain (a) surfaces as
// ErrSolverPanic to that caller, (b) drops the chain's region oracle, (c) is
// accounted by solver_panics and region_cold_rebuilds, and (d) a solve that
// restarts the chain from the same problem runs cold, sharded and
// value-correct.
func TestFaultPanicMidShardedUpdateChain(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 3))
	inj := faultinject.New(faultinject.Plan{})
	svc := faultyService(t, inj, solve.Config{Workers: 2, Budget: solve.Budget{MaxVertices: 80}})
	prob, err := solve.NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: prob, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded {
		t.Fatalf("base solve not sharded: %+v", rep.Plan)
	}
	if got := solve.MetricValue(t, svc, "analogflow_cached_oracles"); got != 1 {
		t.Fatalf("cached_oracles = %v after base solve, want 1", got)
	}

	// Warm the chain with one clean step so the panic lands mid-chain, on a
	// warm oracle, not on the cold base solve.
	res, err := svc.Update(context.Background(), solve.UpdateRequest{
		Solver: "dinic", Problem: prob, Update: bumpUpdate(prob, 0),
	})
	if err != nil {
		t.Fatalf("warm-up step: %v", err)
	}
	if !res.Warm {
		t.Fatalf("warm-up step ran cold")
	}
	prob = res.Problem

	// Arm: the very next guarded solve — the first region re-solve of the
	// next update step — panics.
	inj.SetPlan(faultinject.Plan{PanicOnSolve: int(inj.Calls()) + 1})
	_, err = svc.Update(context.Background(), solve.UpdateRequest{
		Solver: "dinic", Problem: prob, Update: bumpUpdate(prob, 1),
	})
	if !errors.Is(err, solve.ErrSolverPanic) {
		t.Fatalf("mid-chain panic surfaced as %v, want ErrSolverPanic", err)
	}
	var pe *solve.SolverPanicError
	if !errors.As(err, &pe) || pe.Solver != "dinic" {
		t.Fatalf("panic error %v not attributed to dinic", err)
	}
	if got := solve.MetricValue(t, svc, "analogflow_solver_panics_total"); got != 1 {
		t.Errorf("solver_panics = %v, want 1", got)
	}
	if got := solve.MetricValue(t, svc, "analogflow_cached_oracles"); got != 0 {
		t.Errorf("the chain's oracle not dropped after panic: cached_oracles = %v", got)
	}
	if got := solve.MetricValue(t, svc, "analogflow_region_cold_rebuilds_total"); got < 1 {
		t.Errorf("region_cold_rebuilds = %v, want >= 1 (the panicked region)", got)
	}

	// Nothing poisoned is left: restarting the chain from its last problem
	// builds cold, still sharded, and converges to a correct value.
	inj.SetPlan(faultinject.Plan{})
	rep, err = svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: prob, Updatable: true})
	if err != nil {
		t.Fatalf("post-panic cold solve failed: %v", err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded {
		t.Fatalf("post-panic solve not sharded: %+v", rep.Plan)
	}
	if rep.RelativeError > 0.25 {
		t.Errorf("post-panic solve %.2f vs exact %.2f (%.0f%% error)",
			rep.FlowValue, rep.ExactValue, 100*rep.RelativeError)
	}
	if got := solve.MetricValue(t, svc, "analogflow_cached_oracles"); got != 1 {
		t.Errorf("the restarted chain holds no oracle: cached_oracles = %v", got)
	}
}

// TestFaultCancelMidChain pins the context fault: a cancellation fired just
// before a solve runs surfaces as context.Canceled — not as a panic, not as
// an overload — and the service serves the next request normally.
func TestFaultCancelMidChain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := faultinject.New(faultinject.Plan{CancelOnSolve: 1, Cancel: cancel})
	svc := faultyService(t, inj, solve.Config{Workers: 1})
	prob := figure5SolveProblem(t)

	_, err := svc.Solve(ctx, solve.Request{Solver: "dinic", Problem: prob})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	panics, shed := solve.MetricValue(t, svc, "analogflow_solver_panics_total"), solve.MetricValue(t, svc, "analogflow_shed_requests_total")
	if panics != 0 || shed != 0 {
		t.Errorf("cancellation miscounted: panics=%v shed=%v", panics, shed)
	}
	if _, err := svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: prob}); err != nil {
		t.Fatalf("post-cancel solve failed: %v", err)
	}
}

// TestFaultInjectedError pins the plain-error fault: the Nth solve fails
// with ErrInjected, counted as an ordinary error (no panic, no shed), and
// the next solve succeeds.
func TestFaultInjectedError(t *testing.T) {
	inj := faultinject.New(faultinject.Plan{ErrorOnSolve: 1})
	svc := faultyService(t, inj, solve.Config{Workers: 1})
	prob := figure5SolveProblem(t)

	_, err := svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: prob})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	errs, panics := solve.MetricValue(t, svc, "analogflow_errors_total"), solve.MetricValue(t, svc, "analogflow_solver_panics_total")
	if errs != 1 || panics != 0 {
		t.Errorf("errors=%v panics=%v after injected error, want 1/0", errs, panics)
	}
	if _, err := svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: prob}); err != nil {
		t.Fatalf("second solve failed: %v", err)
	}
}

// TestFaultRegionOracle drives WrapOracle against the raw decompose fan-out:
// an injected region error propagates wrapped (errors.Is reaches ErrInjected
// through the region attribution), an injected region panic is contained by
// the fan-out's own recover, and a clean plan converges to the exact value.
func TestFaultRegionOracle(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(120, 5))
	part := decompose.BisectByBFS(g)
	opts := decompose.DefaultOptions()

	t.Run("error", func(t *testing.T) {
		inj := faultinject.New(faultinject.Plan{
			Regions: []faultinject.RegionFault{{Region: 1, Call: 1, Mode: faultinject.ModeError}},
		})
		opts := opts
		opts.Oracle = faultinject.WrapOracle(decompose.ExactOracle(), inj)
		_, err := decompose.SolveContext(context.Background(), g, part, opts)
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("want ErrInjected through region attribution, got %v", err)
		}
		if !strings.Contains(err.Error(), "region 1") {
			t.Errorf("error %v does not name the faulted region", err)
		}
	})

	t.Run("panic", func(t *testing.T) {
		inj := faultinject.New(faultinject.Plan{
			Regions: []faultinject.RegionFault{{Region: 0, Call: 1, Mode: faultinject.ModePanic}},
		})
		opts := opts
		opts.Oracle = faultinject.WrapOracle(decompose.ExactOracle(), inj)
		_, err := decompose.SolveContext(context.Background(), g, part, opts)
		if err == nil || !strings.Contains(err.Error(), "oracle panicked") {
			t.Fatalf("raw-oracle panic not contained by the fan-out: %v", err)
		}
	})

	t.Run("clean", func(t *testing.T) {
		inj := faultinject.New(faultinject.Plan{})
		ref, err := decompose.SolveContext(context.Background(), g, part, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts := opts
		opts.Oracle = faultinject.WrapOracle(decompose.ExactOracle(), inj)
		got, err := decompose.SolveContext(context.Background(), g, part, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.FlowValue-ref.FlowValue) > 1e-9 {
			t.Errorf("wrapped oracle changed the result: %v vs %v", got.FlowValue, ref.FlowValue)
		}
		if inj.Calls() != 0 {
			// WrapOracle routes through beforeRegion, not beforeSolve; the
			// solve counter must not move.
			t.Errorf("region wrapper consumed %d solve counts", inj.Calls())
		}
	})
}

// constructPanicSolver is the real dinic backend whose instance constructors
// panic once per arming.
type constructPanicSolver struct {
	solve.UpdatableSolver
	armed atomic.Bool
}

func (c *constructPanicSolver) trip() {
	if c.armed.CompareAndSwap(true, false) {
		panic("injected construction panic")
	}
}

func (c *constructPanicSolver) NewInstance(p *solve.Problem) (solve.Instance, error) {
	c.trip()
	return c.UpdatableSolver.NewInstance(p)
}

func (c *constructPanicSolver) NewUpdatableInstance(p *solve.Problem) (solve.UpdatableInstance, error) {
	c.trip()
	return c.UpdatableSolver.NewUpdatableInstance(p)
}

// TestFaultPanicInInstanceConstruction pins that building a warm instance
// lies inside the isolation boundary: a constructor panic, one-shot, chain
// start or sharded region, fails its request with ErrSolverPanic and is
// counted, the worker slot comes back, and nothing poisoned stays cached, so
// the next solve of the same problem builds afresh and answers.  Each call
// runs under a deadline, so a leaked slot fails the test instead of hanging
// it.
func TestFaultPanicInInstanceConstruction(t *testing.T) {
	inner, err := solve.DefaultRegistry().Get("dinic")
	if err != nil {
		t.Fatal(err)
	}
	sol := &constructPanicSolver{UpdatableSolver: inner.(solve.UpdatableSolver)}
	reg := solve.NewRegistry()
	if err := reg.Register(sol); err != nil {
		t.Fatal(err)
	}
	newService := func(workers int) *solve.Service {
		return solve.NewService(solve.Config{Registry: reg, Workers: workers})
	}
	prob := figure5SolveProblem(t)
	want, err := maxflow.OptimalValue(prob.Graph())
	if err != nil {
		t.Fatal(err)
	}
	svc := newService(1)
	call := func(req solve.Request) (rep *solve.Report, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("the panic escaped Service.Solve: %v", r)
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return svc.Solve(ctx, req)
	}
	for i, updatable := range []bool{false, true} {
		sol.armed.Store(true)
		req := solve.Request{Solver: "dinic", Problem: prob, Updatable: updatable}
		if _, err := call(req); !errors.Is(err, solve.ErrSolverPanic) {
			t.Fatalf("updatable=%v: a constructor panic answered %v, want ErrSolverPanic", updatable, err)
		}
		if got := solve.MetricValue(t, svc, "analogflow_solver_panics_total"); got != float64(i+1) {
			t.Errorf("updatable=%v: solver_panics = %v, want %d", updatable, got, i+1)
		}
		rep, err := call(req)
		if err != nil {
			t.Fatalf("updatable=%v: the solve after the panic: %v", updatable, err)
		}
		if rep.FlowValue != want {
			t.Errorf("updatable=%v: flow %v after the panic, want %v", updatable, rep.FlowValue, want)
		}
	}
	for _, gauge := range []string{"analogflow_in_flight_solves", "analogflow_workers_busy"} {
		if got := solve.MetricValue(t, svc, gauge); got != 0 {
			t.Errorf("%s = %v with no solve running", gauge, got)
		}
	}

	// Batch items construct on pool goroutines, where an escaping panic
	// would end the process.
	sol.armed.Store(true)
	other, err := solve.NewProblem(rmat.MustGenerate(rmat.SparseParams(32, 3)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	panicked := 0
	for _, res := range newService(2).SolveBatch(ctx, []solve.Request{
		{Solver: "dinic", Problem: prob}, {Solver: "dinic", Problem: other},
	}) {
		switch {
		case errors.Is(res.Err, solve.ErrSolverPanic):
			panicked++
		case res.Err != nil:
			t.Errorf("batch item %d: %v", res.Index, res.Err)
		}
	}
	if panicked != 1 {
		t.Errorf("%d batch items failed with ErrSolverPanic, want 1", panicked)
	}

	// A sharded solve builds its region instances on the decomposition's
	// workers.
	sol.armed.Store(true)
	sharded := solve.NewService(solve.Config{Registry: reg, Workers: 2, Budget: solve.Budget{MaxVertices: 80, MaxRegions: 3}})
	big, err := solve.FromRMAT(rmat.SparseParams(200, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Solve(ctx, solve.Request{Solver: "dinic", Problem: big}); !errors.Is(err, solve.ErrSolverPanic) {
		t.Errorf("a region constructor panic answered %v, want ErrSolverPanic", err)
	}
	if got := solve.MetricValue(t, sharded, "analogflow_solver_panics_total"); got != 1 {
		t.Errorf("sharded solver_panics = %v, want 1", got)
	}
}
