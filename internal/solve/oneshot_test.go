package solve

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
)

// cpuBackends are the exact backends whose one-shot instances return their
// residual to maxflow's pool.
var cpuBackends = []string{"push-relabel", "dinic", "edmonds-karp"}

// verifyReport checks that a report's expanded flows are a maximum flow of
// p's graph.
func verifyReport(t *testing.T, p *Problem, rep *Report) {
	t.Helper()
	g := p.Graph()
	f := graph.NewFlow(g)
	copy(f.Edge, rep.EdgeFlows)
	f.RecomputeValue(g)
	if err := maxflow.VerifyOptimal(g, f, 1e-9*math.Max(1, f.Value)); err != nil {
		t.Errorf("%s: %v", rep.Solver, err)
	}
}

// cachedNetwork reports whether the one-shot cache entry for (p, solver)
// still holds a residual network.
func cachedNetwork(t *testing.T, s *Service, p *Problem, solver string) bool {
	t.Helper()
	s.mu.Lock()
	e, ok := s.cache[p.Fingerprint()+"|"+solver]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("no cache entry for %s", solver)
	}
	inst := e.inst.(*cpuInstance)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.net != nil
}

// TestOneShotResidualPoolSafety runs concurrent one-shot CPU solves of
// distinct grids through one service, twice over, so the second round runs
// on residual arrays the first round released.  Every report must be a
// verified maximum flow, no cached one-shot instance may keep a network, and
// the first round's edge flows must be unchanged after the second round
// reused the pooled arrays.
func TestOneShotResidualPoolSafety(t *testing.T) {
	svc := NewService(Config{Workers: 3})
	type solved struct {
		p    *Problem
		rep  *Report
		kept []float64
	}
	round := func(seed int64) []solved {
		var mu sync.Mutex
		var out []solved
		var wg sync.WaitGroup
		for i, solver := range cpuBackends {
			for j := 0; j < 2; j++ {
				p, err := FromSegmentationGrid(14+i, 10+j, j == 1, seed+int64(3*i+j))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(p *Problem, solver string) {
					defer wg.Done()
					rep, err := svc.Solve(context.Background(), Request{Solver: solver, Problem: p})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					out = append(out, solved{p, rep, append([]float64(nil), rep.EdgeFlows...)})
					mu.Unlock()
				}(p, solver)
			}
		}
		wg.Wait()
		for _, s := range out {
			verifyReport(t, s.p, s.rep)
			if cachedNetwork(t, svc, s.p, s.rep.Solver) {
				t.Errorf("%s: the one-shot instance kept its residual network", s.rep.Solver)
			}
		}
		return out
	}
	first := round(1)
	round(100)
	for _, s := range first {
		if !slices.Equal(s.rep.EdgeFlows, s.kept) {
			t.Fatalf("%s: edge flows changed after the pooled arrays were reused", s.rep.Solver)
		}
	}
}

// TestOneShotCacheHitAnswersFromStoredFlow pins that a repeat of a one-shot
// CPU solve is a cache hit answered from the stored flow and certificate:
// the same flows, exact value and relative error, with no network rebuilt.
func TestOneShotCacheHitAnswersFromStoredFlow(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	p, err := FromSegmentationGrid(16, 12, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range cpuBackends {
		t.Run(solver, func(t *testing.T) {
			req := Request{Solver: solver, Problem: p}
			first, err := svc.Solve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			hits := MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "hit")
			again, err := svc.Solve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if got := MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "hit"); got != hits+1 {
				t.Fatalf("repeat solve: %g cache hits, want %g", got, hits+1)
			}
			if cachedNetwork(t, svc, p, solver) {
				t.Error("the cache hit rebuilt a residual network")
			}
			if again.FlowValue != first.FlowValue || again.ExactValue != first.ExactValue || again.RelativeError != first.RelativeError {
				t.Errorf("hit answered flow %g exact %g error %g, first solve %g %g %g",
					again.FlowValue, again.ExactValue, again.RelativeError, first.FlowValue, first.ExactValue, first.RelativeError)
			}
			if !slices.Equal(again.EdgeFlows, first.EdgeFlows) {
				t.Error("hit answered different edge flows")
			}
			verifyReport(t, p, again)
		})
	}
}
