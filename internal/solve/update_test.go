package solve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
)

// chainUpdates is a deterministic sequence of capacity-only updates for a
// graph: step k bumps a few edges up and halves a few others, cycling so the
// drain path (decrease below carried flow) is exercised.
func chainUpdates(g *graph.Graph, steps int) []graph.CapacityUpdate {
	out := make([]graph.CapacityUpdate, 0, steps)
	ne := g.NumEdges()
	caps := make([]float64, ne)
	for i := 0; i < ne; i++ {
		caps[i] = g.Edge(i).Capacity
	}
	for k := 0; k < steps; k++ {
		var u graph.CapacityUpdate
		for j := 0; j < 4; j++ {
			e := (k*7 + j*3) % ne
			dup := false
			for _, seen := range u.Edges {
				if seen == e {
					dup = true
				}
			}
			if dup {
				continue
			}
			var c float64
			if (k+j)%2 == 0 {
				c = caps[e] + float64(5+k)
			} else {
				c = math.Max(1, math.Floor(caps[e]/2))
			}
			u.Edges = append(u.Edges, e)
			u.Capacities = append(u.Capacities, c)
			caps[e] = c
		}
		out = append(out, u)
	}
	return out
}

func TestProblemWithUpdate(t *testing.T) {
	base, err := NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	upd := graph.CapacityUpdate{Edges: []int{0, 3}, Capacities: []float64{5, 2}}
	p2, err := base.WithUpdate(upd)
	if err != nil {
		t.Fatal(err)
	}
	// The base problem is untouched; the derived one carries the new values.
	if base.Graph().Edge(0).Capacity != 3 || p2.Graph().Edge(0).Capacity != 5 {
		t.Fatalf("update leaked into the base problem or did not apply")
	}
	// Chained fingerprints: deterministic, distinct from the base, distinct
	// from a content-equal from-scratch problem (a one-shot solve of a
	// derived problem never aliases the cold cache entry of its content).
	p2b, err := base.WithUpdate(upd)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Fingerprint() != p2b.Fingerprint() {
		t.Errorf("identical chains produced different fingerprints")
	}
	if p2.Fingerprint() == base.Fingerprint() {
		t.Errorf("update did not change the fingerprint")
	}
	fresh, err := NewProblem(p2.Graph().Clone())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Fingerprint() == fresh.Fingerprint() {
		t.Errorf("chained fingerprint aliases the content fingerprint")
	}

	// Prune reuse: positivity unchanged ⇒ the core shares the base's edge
	// mapping (same backing slice, not just equal values).
	_, basePr := base.STCore()
	_, pr2 := p2.STCore()
	if basePr == nil || pr2 == nil {
		t.Fatal("expected prune results on both problems")
	}
	if len(basePr.EdgeMap) > 0 && &basePr.EdgeMap[0] != &pr2.EdgeMap[0] {
		t.Errorf("prune mapping was recomputed despite unchanged positivity")
	}
	// Zeroing an edge forces a fresh prune.
	p3, err := base.WithUpdate(graph.CapacityUpdate{Edges: []int{2}, Capacities: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	core3, pr3 := p3.STCore()
	if pr3 != nil && len(pr3.EdgeMap) == len(basePr.EdgeMap) && &pr3.EdgeMap[0] == &basePr.EdgeMap[0] {
		t.Errorf("positivity change still reused the base prune mapping")
	}
	if core3.NumEdges() >= base.Graph().NumEdges() {
		t.Errorf("zeroing edge 2 should shrink the core: %d edges", core3.NumEdges())
	}

	// Validation failures surface as typed errors.
	var verr *ValidationError
	if _, err := base.WithUpdate(graph.CapacityUpdate{Edges: []int{99}, Capacities: []float64{1}}); !errors.As(err, &verr) {
		t.Errorf("bad edge index: want *ValidationError, got %v", err)
	}
	if _, err := base.WithUpdate(graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{-1}}); !errors.As(err, &verr) {
		t.Errorf("negative capacity: want *ValidationError, got %v", err)
	}
}

// TestServiceUpdateWarmMatchesCold is the warm-vs-cold contract per backend,
// over a chain of updates on an integral R-MAT instance:
//
//   - every backend: warm FlowValue and ExactValue equal the cold solve of
//     the mutated problem exactly (integral capacities make the reference
//     and the exact optima float-exact);
//   - behavioral: the full normalized report is bit-identical (the model is
//     a deterministic function of the prepared instance and the seed);
//   - CPU backends: the warm edge assignment is a verified optimal flow of
//     the mutated graph (it may be a different optimum than the cold one).
func TestServiceUpdateWarmMatchesCold(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(48, 11))
	updates := chainUpdates(g, 6)
	for _, backend := range []string{"behavioral", "dinic", "edmonds-karp", "push-relabel"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			svc := NewService(Config{Workers: 2})
			params := core.DefaultParams()
			prob, err := NewProblem(g, WithParams(params))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Solve(context.Background(), Request{Solver: backend, Problem: prob, Updatable: true}); err != nil {
				t.Fatal(err)
			}
			sawWarm := false
			for step, u := range updates {
				res, err := svc.Update(context.Background(), UpdateRequest{Solver: backend, Problem: prob, Update: u})
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				prob = res.Problem
				sawWarm = sawWarm || res.Warm

				coldProb, err := NewProblem(prob.Graph().Clone(), WithParams(params))
				if err != nil {
					t.Fatal(err)
				}
				cold, err := DefaultRegistry().Solve(context.Background(), backend, coldProb)
				if err != nil {
					t.Fatalf("step %d cold: %v", step, err)
				}
				warm := res.Report
				if warm.FlowValue != cold.FlowValue {
					t.Fatalf("step %d: warm flow %.12g, cold flow %.12g", step, warm.FlowValue, cold.FlowValue)
				}
				if warm.ExactValue != cold.ExactValue {
					t.Fatalf("step %d: warm exact %.12g, cold exact %.12g", step, warm.ExactValue, cold.ExactValue)
				}
				switch backend {
				case "behavioral":
					if !reflect.DeepEqual(warm.Normalized(), cold.Normalized()) {
						t.Fatalf("step %d: behavioral reports differ:\nwarm: %+v\ncold: %+v", step, warm.Normalized(), cold.Normalized())
					}
				default:
					f := graph.NewFlow(prob.Graph())
					copy(f.Edge, warm.EdgeFlows)
					f.RecomputeValue(prob.Graph())
					if err := maxflow.VerifyOptimal(prob.Graph(), f, 1e-6); err != nil {
						t.Fatalf("step %d: warm flow is not a verified optimum: %v", step, err)
					}
				}
			}
			if !sawWarm {
				t.Errorf("no update of the chain was absorbed warm")
			}
			if n, warm := MetricValue(t, svc, "analogflow_updates_total"), MetricValue(t, svc, "analogflow_update_warm_hits_total"); n != float64(len(updates)) || warm == 0 {
				t.Errorf("update counters: %v updates, %v warm hits", n, warm)
			}
		})
	}
}

// TestServiceUpdateCircuitWarm is the circuit-mode contract on the worked
// example: warm results match a cold updatable build to solver tolerance.
func TestServiceUpdateCircuitWarm(t *testing.T) {
	params := core.DefaultParams()
	params.Variation = core.DefaultCleanVariation()
	svc := NewService(Config{Workers: 1})
	prob, err := NewProblem(graph.PaperFigure5(), WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	updates := []graph.CapacityUpdate{
		{Edges: []int{1, 4}, Capacities: []float64{3, 3}},
		{Edges: []int{0}, Capacities: []float64{4}},
		{Edges: []int{1, 4}, Capacities: []float64{2, 2}},
	}
	for step, u := range updates {
		res, err := svc.Update(context.Background(), UpdateRequest{Solver: "circuit", Problem: prob, Update: u})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		prob = res.Problem

		reg := DefaultRegistry()
		coldProb, err := NewProblem(prob.Graph().Clone(), WithParams(params))
		if err != nil {
			t.Fatal(err)
		}
		us := mustUpdatableSolver(t, reg, "circuit")
		coldInst, err := us.NewUpdatableInstance(coldProb)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldInst.Solve(context.Background())
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		warm := res.Report
		tol := 1e-6 * math.Max(1, math.Abs(cold.FlowValue))
		if math.Abs(warm.FlowValue-cold.FlowValue) > tol {
			t.Fatalf("step %d: warm flow %.9f, cold flow %.9f", step, warm.FlowValue, cold.FlowValue)
		}
		if warm.ExactValue != cold.ExactValue {
			t.Fatalf("step %d: warm exact %.9f, cold exact %.9f", step, warm.ExactValue, cold.ExactValue)
		}
		for i := range warm.EdgeFlows {
			if math.Abs(warm.EdgeFlows[i]-cold.EdgeFlows[i]) > 1e-6 {
				t.Fatalf("step %d edge %d: warm %.9f, cold %.9f", step, i, warm.EdgeFlows[i], cold.EdgeFlows[i])
			}
		}
	}
}

func mustUpdatableSolver(t *testing.T, reg *Registry, name string) UpdatableSolver {
	t.Helper()
	sol, err := reg.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	us, ok := sol.(UpdatableSolver)
	if !ok {
		t.Fatalf("%s is not an UpdatableSolver", name)
	}
	return us
}

// TestServiceUpdateEngineStatsPin is the acceptance pin of the tentpole: once
// a circuit update chain is warm, N further capacity-only updates add
// refactorizations but zero symbolic factorizations — the frozen sparsity
// pattern and cached symbolic LU survive every clamp re-stamp.
func TestServiceUpdateEngineStatsPin(t *testing.T) {
	params := core.DefaultParams()
	params.Variation = core.DefaultCleanVariation()
	svc := NewService(Config{Workers: 1})
	prob, err := NewProblem(graph.PaperFigure5(), WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	// Step 0 starts the chain (builds the updatable instance cold).
	res, err := svc.Update(context.Background(), UpdateRequest{
		Solver: "circuit", Problem: prob,
		Update: graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prob = res.Problem
	sess := chainSession(t, svc, prob, "circuit")
	base, ok := sess.EngineStats()
	if !ok {
		t.Fatal("no engine after the first circuit update")
	}

	const n = 5
	for k := 0; k < n; k++ {
		c := float64(3 + (k % 3))
		res, err = svc.Update(context.Background(), UpdateRequest{
			Solver: "circuit", Problem: prob,
			Update: graph.CapacityUpdate{Edges: []int{0, 1}, Capacities: []float64{c, c}},
		})
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		if !res.Warm {
			t.Fatalf("update %d was not absorbed warm", k)
		}
		prob = res.Problem
	}
	after, ok := chainSession(t, svc, prob, "circuit").EngineStats()
	if !ok {
		t.Fatal("warm chain lost its engine")
	}
	if after.Factorizations != base.Factorizations {
		t.Errorf("%d updates cost %d new symbolic factorizations (%d -> %d)",
			n, after.Factorizations-base.Factorizations, base.Factorizations, after.Factorizations)
	}
	if after.Refactorizations <= base.Refactorizations {
		t.Errorf("updates did not run on the refactor path: %d -> %d",
			base.Refactorizations, after.Refactorizations)
	}
}

// TestServiceUpdateSerialVsConcurrent pins determinism across concurrency:
// independent update chains produce identical reports whether the chains run
// one after another or all at once.
func TestServiceUpdateSerialVsConcurrent(t *testing.T) {
	type chain struct {
		backend string
		g       *graph.Graph
		updates []graph.CapacityUpdate
	}
	var chains []chain
	for i, backend := range []string{"dinic", "behavioral", "push-relabel", "edmonds-karp"} {
		g := rmat.MustGenerate(rmat.SparseParams(32, int64(3+i)))
		chains = append(chains, chain{backend: backend, g: g, updates: chainUpdates(g, 4)})
	}
	runChain := func(svc *Service, c chain) []Report {
		prob, err := NewProblem(c.g, WithParams(core.DefaultParams()))
		if err != nil {
			t.Error(err)
			return nil
		}
		var reports []Report
		for _, u := range c.updates {
			res, err := svc.Update(context.Background(), UpdateRequest{Solver: c.backend, Problem: prob, Update: u})
			if err != nil {
				t.Error(err)
				return nil
			}
			prob = res.Problem
			reports = append(reports, res.Report.Normalized())
		}
		return reports
	}

	serialSvc := NewService(Config{Workers: 1})
	serial := make([][]Report, len(chains))
	for i, c := range chains {
		serial[i] = runChain(serialSvc, c)
	}

	concSvc := NewService(Config{Workers: 8})
	concurrent := make([][]Report, len(chains))
	var wg sync.WaitGroup
	for i, c := range chains {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = runChain(concSvc, c)
		}()
	}
	wg.Wait()

	for i := range chains {
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Errorf("chain %d (%s): serial and concurrent reports differ", i, chains[i].backend)
		}
	}
}

// TestServiceUpdateStructuralFallback: zeroing an edge changes the s-t core,
// so the warm state must be bypassed — the update still succeeds, cold.
func TestServiceUpdateStructuralFallback(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	prob, err := NewProblem(graph.PaperFigure5(), WithParams(core.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: prob, Updatable: true}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Update(context.Background(), UpdateRequest{
		Solver: "dinic", Problem: prob,
		Update: graph.CapacityUpdate{Edges: []int{2}, Capacities: []float64{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm {
		t.Errorf("structural change was reported as a warm absorption")
	}
	if res.Report.FlowValue != 1 { // only the x2/x4 path remains, capacity 1
		t.Errorf("flow after zeroing x3: %g, want 1", res.Report.FlowValue)
	}
	// The chain keeps working from the structurally changed problem.
	res2, err := svc.Update(context.Background(), UpdateRequest{
		Solver: "dinic", Problem: res.Problem,
		Update: graph.CapacityUpdate{Edges: []int{3}, Capacities: []float64{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Warm {
		t.Errorf("follow-up capacity-only update did not go warm")
	}
	if res2.Report.FlowValue != 2 {
		t.Errorf("flow after widening x4: %g, want 2", res2.Report.FlowValue)
	}
}

// TestServiceSolveUpdateRaceKeepsBindings: a one-shot Solve of a chain's
// base problem never runs on the chain's warm state, so it answers for the
// base however it interleaves with an Update that moves the chain on.  The
// one-shot path and the chain table share no instance, which a sequential
// pass pins first, before a short nondeterministic hammer.
func TestServiceSolveUpdateRaceKeepsBindings(t *testing.T) {
	params := core.DefaultParams()
	upd := graph.CapacityUpdate{Edges: []int{1, 3}, Capacities: []float64{3, 3}} // base flow 2 -> updated flow 3
	for _, backend := range []string{"dinic", "behavioral"} {
		svc := NewService(Config{Workers: 4})
		base := figure5Problem(t, params)
		baseRep, err := svc.Solve(context.Background(), Request{Solver: backend, Problem: base, Updatable: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Update(context.Background(), UpdateRequest{Solver: backend, Problem: base, Update: upd})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Warm {
			t.Errorf("%s: the chain's first step ran cold", backend)
		}
		rep, err := svc.Solve(context.Background(), Request{Solver: backend, Problem: base})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FlowValue != baseRep.FlowValue {
			t.Errorf("%s: Solve(base) after the update returned flow %g, want the base problem's %g",
				backend, rep.FlowValue, baseRep.FlowValue)
		}
	}

	// And a short nondeterministic hammer over the real interleaving.
	for round := 0; round < 10; round++ {
		svc := NewService(Config{Workers: 4})
		base := figure5Problem(t, params)
		if _, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: base, Updatable: true}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var solveFlow float64
		var solveErr error
		go func() {
			defer wg.Done()
			rep, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: base})
			if err != nil {
				solveErr = err
				return
			}
			solveFlow = rep.FlowValue
		}()
		go func() {
			defer wg.Done()
			if _, err := svc.Update(context.Background(), UpdateRequest{Solver: "dinic", Problem: base, Update: upd}); err != nil {
				t.Errorf("round %d: update: %v", round, err)
			}
		}()
		wg.Wait()
		if solveErr != nil {
			t.Fatalf("round %d: solve: %v", round, solveErr)
		}
		if solveFlow != 2 {
			t.Fatalf("round %d: Solve(base) returned the updated problem's flow %g, want 2", round, solveFlow)
		}
	}
}

// gridGraph builds an n x n grid with right/down edges and varied caps — an
// instance on which push-relabel performs far more than 4096 discharges, so
// its periodic cancellation check fires mid-run.
func gridGraph(n int) *graph.Graph {
	g := graph.MustNew(n*n, 0, n*n-1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := i*n + j
			c := float64((i*31+j*17)%97 + 3)
			if j+1 < n {
				g.MustAddEdge(v, v+1, c)
			}
			if i+1 < n {
				g.MustAddEdge(v, v+n, c+11)
			}
		}
	}
	return g
}

// TestCPUInstanceDropsPoisonedStateAfterAbort pins the cancellation-safety
// fix: a push-relabel solve aborted mid-discharge leaves a preflow (not a
// feasible flow) in the residual, so the warm instance must drop that state
// — the next solve has to produce the exact cold optimum, not a silently
// corrupted value re-augmented from the preflow.
func TestCPUInstanceDropsPoisonedStateAfterAbort(t *testing.T) {
	p := mustProblem(t, gridGraph(90), core.DefaultParams())
	us := mustUpdatableSolver(t, DefaultRegistry(), "push-relabel")
	inst, err := us.NewUpdatableInstance(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inst.Solve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-run solve did not fail with the context error (got %v); grow the instance so the discharge-loop check fires", err)
	}
	rep, err := inst.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := maxflow.Solve(p.Graph(), maxflow.PushRelabel)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlowValue != cold.Value {
		t.Fatalf("post-abort warm solve returned %g, cold optimum is %g (poisoned preflow survived)", rep.FlowValue, cold.Value)
	}
	f := graph.NewFlow(p.Graph())
	copy(f.Edge, rep.EdgeFlows)
	f.RecomputeValue(p.Graph())
	if err := maxflow.VerifyOptimal(p.Graph(), f, 1e-6); err != nil {
		t.Fatalf("post-abort warm flow is not a verified optimum: %v", err)
	}
}

// TestServiceUpdateNeverClaimsWarmWithoutState: claiming a cached instance
// that holds no warm residual (never solved, or state dropped after an
// abort) must be reported as a cold fallback, not a warm hit.
func TestServiceUpdateNeverClaimsWarmWithoutState(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	prob := figure5Problem(t, core.DefaultParams())
	sol, err := svc.Registry().Get("dinic")
	if err != nil {
		t.Fatal(err)
	}
	// Hold an instance that never solved as the chain's state (the service
	// itself only stores solved instances; an aborted solve leaves the same
	// empty residual behind).
	inst, err := sol.(UpdatableSolver).NewUpdatableInstance(prob)
	if err != nil {
		t.Fatal(err)
	}
	svc.chains.put(prob, "dinic", chainState{inst: inst})
	res, err := svc.Update(context.Background(), UpdateRequest{
		Solver: "dinic", Problem: prob,
		Update: graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm {
		t.Error("update of a never-solved instance was reported warm")
	}
	if got := MetricValue(t, svc, "analogflow_update_warm_hits_total"); got != 0 {
		t.Errorf("update_warm_hits = %v for a cold from-scratch step", got)
	}
	if res.Report.FlowValue != 2 {
		t.Errorf("flow %g, want 2", res.Report.FlowValue)
	}
}

// TestServiceUpdateUnwarmableBackends: lp and decompose have no warm state;
// Update must still produce a correct cold solve of the mutated problem.
func TestServiceUpdateUnwarmableBackends(t *testing.T) {
	for _, backend := range []string{"lp", "decompose"} {
		svc := NewService(Config{Workers: 1})
		prob, err := NewProblem(graph.PaperFigure5(), WithParams(core.DefaultParams()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.Update(context.Background(), UpdateRequest{
			Solver: backend, Problem: prob,
			Update: graph.CapacityUpdate{Edges: []int{3}, Capacities: []float64{2}},
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Warm {
			t.Errorf("%s claims warm state", backend)
		}
		if res.Report.ExactValue != 3 {
			t.Errorf("%s: exact value %g, want 3", backend, res.Report.ExactValue)
		}
	}
}
