package solve

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
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
// CPU solve is a cache hit answered from the stored report: the whole report,
// wall time included, equals the first solve's, no network is rebuilt, and
// an edit to a returned report does not reach the next one.  The grid's prune
// keeps every edge; the R-MAT instance's prune removes some, so its flows are
// expanded back to the original indexing.
func TestOneShotCacheHitAnswersFromStoredFlow(t *testing.T) {
	problems := map[string]func() (*Problem, error){
		"grid":         func() (*Problem, error) { return FromSegmentationGrid(16, 12, false, 5) },
		"pruned R-MAT": func() (*Problem, error) { return FromRMAT(rmat.SparseParams(96, 4)) },
	}
	for _, solver := range cpuBackends {
		t.Run(solver, func(t *testing.T) {
			svc := NewService(Config{Workers: 1})
			for name, build := range problems {
				// Each request builds its own problem, as analogflowd does.
				solve := func() *Report {
					t.Helper()
					p, err := build()
					if err != nil {
						t.Fatal(err)
					}
					rep, err := svc.Solve(context.Background(), Request{Solver: solver, Problem: p})
					if err != nil {
						t.Fatal(err)
					}
					verifyReport(t, p, rep)
					return rep
				}
				first := solve()
				if name == "pruned R-MAT" && first.PrunedEdges == 0 {
					t.Fatal("the R-MAT instance's prune removed nothing")
				}
				want := *first
				want.EdgeFlows = slices.Clone(first.EdgeFlows)
				first.EdgeFlows[0]++ // a caller may edit its report
				hits := MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "hit")
				again := solve()
				if got := MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "hit"); got != hits+1 {
					t.Fatalf("%s: repeat solve: %g cache hits, want %g", name, got, hits+1)
				}
				p, _ := build()
				if cachedNetwork(t, svc, p, solver) {
					t.Errorf("%s: the cache hit rebuilt a residual network", name)
				}
				if !reflect.DeepEqual(*again, want) {
					t.Errorf("%s: hit answered %+v, first solve %+v", name, again.Normalized(), want.Normalized())
				}
			}
		})
	}
}

// TestOneShotAnswerReleasesProblem pins that a cached one-shot CPU entry
// keeps its answer, not its problem: once the request drops its references,
// the problem's graph is garbage, while the entry stays cached and answers a
// repeat.
func TestOneShotAnswerReleasesProblem(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	for _, solver := range cpuBackends {
		t.Run(solver, func(t *testing.T) {
			graphRef := solveAndForget(t, svc, solver)
			runtime.GC()
			if graphRef.Value() != nil {
				t.Fatal("the cached entry keeps the problem's graph alive")
			}
			hits := MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "hit")
			solveAndForget(t, svc, solver)
			if got := MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "hit"); got != hits+1 {
				t.Fatalf("repeat solve: %g cache hits, want %g", got, hits+1)
			}
		})
	}
}

// solveAndForget solves a fresh copy of one grid through svc and returns a
// weak pointer to its graph, holding no strong reference to the problem.
func solveAndForget(t *testing.T, svc *Service, solver string) weak.Pointer[graph.Graph] {
	t.Helper()
	p, err := FromSegmentationGrid(16, 12, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(context.Background(), Request{Solver: solver, Problem: p}); err != nil {
		t.Fatal(err)
	}
	return weak.Make(p.Graph())
}
