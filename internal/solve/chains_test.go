package solve

import (
	"context"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// heldChainState returns the warm state the chain table holds for the chain
// whose current problem is p, failing the test when it holds none.
func heldChainState(t *testing.T, s *Service, p *Problem, solver string) chainState {
	t.Helper()
	s.chains.mu.Lock()
	st, ok := s.chains.m[chainKey{p, solver}]
	s.chains.mu.Unlock()
	if !ok {
		t.Fatalf("no %s chain state held for the problem", solver)
	}
	return st
}

// chainSession digs the warm core.Session of a flat analog chain out of the
// chain table, for engine-level assertions.
func chainSession(t *testing.T, s *Service, p *Problem, solver string) *core.Session {
	t.Helper()
	inst, ok := heldChainState(t, s, p, solver).inst.(*analogInstance)
	if !ok {
		t.Fatalf("chain holds no analog instance for %s", solver)
	}
	return inst.session()
}

// chainOracle digs the region oracle of a sharded chain out of the chain
// table, for engine-level assertions.
func chainOracle(t *testing.T, s *Service, p *Problem, solver string) *regionOracle {
	t.Helper()
	o := heldChainState(t, s, p, solver).oracle
	if o == nil {
		t.Fatalf("chain holds no region oracle for %s", solver)
	}
	return o
}

// TestChainTableSemantics covers the table's ownership discipline directly:
// take removes, put replaces an entry under the same key, the bound evicts
// the entry stored longest ago, and sizes splits flat from sharded chains.
func TestChainTableSemantics(t *testing.T) {
	c := newChainTable(2)
	sol, err := DefaultRegistry().Get("dinic")
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := figure5Problem(t, core.DefaultParams()), figure5Problem(t, core.DefaultParams()), figure5Problem(t, core.DefaultParams())
	o1, o2 := newRegionOracle(sol, core.DefaultParams()), newRegionOracle(sol, core.DefaultParams())
	inst, err := sol.(UpdatableSolver).NewUpdatableInstance(a)
	if err != nil {
		t.Fatal(err)
	}

	c.put(a, "dinic", chainState{oracle: o1})
	if got := c.take(a, "dinic").oracle; got != o1 {
		t.Fatal("take did not return the stored oracle")
	}
	if got := c.take(a, "dinic"); got.oracle != nil || got.inst != nil {
		t.Fatal("take did not remove the entry")
	}
	// Equal content is not the same chain: the key is the problem pointer.
	c.put(a, "dinic", chainState{oracle: o1})
	if got := c.take(b, "dinic"); got.oracle != nil {
		t.Fatal("a content-equal problem took another chain's state")
	}
	if got := c.take(a, "push-relabel"); got.oracle != nil {
		t.Fatal("another backend took the chain's state")
	}
	c.put(a, "dinic", chainState{oracle: o2})
	if got := c.take(a, "dinic").oracle; got != o2 {
		t.Error("put did not replace the entry under its key")
	}

	c.put(a, "dinic", chainState{inst: inst})
	c.put(b, "dinic", chainState{oracle: o1})
	c.put(d, "dinic", chainState{oracle: o2}) // evicts a, stored longest ago
	if flat, sharded := c.sizes(); flat != 0 || sharded != 2 {
		t.Fatalf("sizes = %d flat, %d sharded; want 0, 2", flat, sharded)
	}
	if got := c.take(a, "dinic"); got.inst != nil {
		t.Error("oldest entry not evicted")
	}
	if c.take(b, "dinic").oracle != o1 || c.take(d, "dinic").oracle != o2 {
		t.Error("recently stored entries evicted")
	}
}

// TestChainStartLeavesProblemUnfingerprinted: starting a chain computes no
// content hash — the chain's state is keyed by its problem, and the one-shot
// cache, which reads the fingerprint, is bypassed.  The chain's first step
// then runs warm, and releasing its current problem drops what it held.
func TestChainStartLeavesProblemUnfingerprinted(t *testing.T) {
	for _, tc := range []struct {
		name, solver string
		budget       Budget
		g            *graph.Graph
	}{
		{"flat-dinic", "dinic", Budget{}, graph.PaperFigure5()},
		{"flat-behavioral", "behavioral", Budget{}, graph.PaperFigure5()},
		{"sharded", "dinic", Budget{MaxVertices: 80}, rmat.MustGenerate(rmat.SparseParams(200, 3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(Config{Workers: 2, Budget: tc.budget})
			prob, err := NewProblem(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Solve(context.Background(), Request{Solver: tc.solver, Problem: prob, Updatable: true}); err != nil {
				t.Fatal(err)
			}
			if prob.pipe.fp != "" {
				t.Error("starting the chain fingerprinted its problem")
			}
			res, err := svc.Update(context.Background(), UpdateRequest{Solver: tc.solver, Problem: prob,
				Update: graph.CapacityUpdate{Edges: []int{1}, Capacities: []float64{tc.g.Edge(1).Capacity + 1}}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Warm {
				t.Error("the chain's first step ran cold")
			}
			svc.Release(res.Problem, tc.solver)
			if instances, oracles := MetricValue(t, svc, "analogflow_cached_instances"), MetricValue(t, svc, "analogflow_cached_oracles"); instances != 0 || oracles != 0 {
				t.Errorf("Release left %v instances and %v oracles held", instances, oracles)
			}
		})
	}
}

// TestChainSurvivesOneShotEviction: one-shot traffic cannot evict a chain's
// warm state.  With room for a single cached instance, two distinct one-shot
// solves between a chain's steps leave its next step warm.
func TestChainSurvivesOneShotEviction(t *testing.T) {
	for _, solver := range []string{"dinic", "behavioral"} {
		svc := NewService(Config{Workers: 1, MaxCachedInstances: 1})
		prob := figure5Problem(t, core.DefaultParams())
		if _, err := svc.Solve(context.Background(), Request{Solver: solver, Problem: prob, Updatable: true}); err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			other := mustProblem(t, rmat.MustGenerate(rmat.SparseParams(24, seed)), core.DefaultParams())
			if _, err := svc.Solve(context.Background(), Request{Solver: solver, Problem: other}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := svc.Update(context.Background(), UpdateRequest{Solver: solver, Problem: prob,
			Update: graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{5}}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Warm {
			t.Errorf("%s: one-shot solves evicted the chain's warm state", solver)
		}
	}
}
