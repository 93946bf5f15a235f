package solve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// circuitParams returns a parameter set under which the MNA circuit solve of
// the Figure 5 example converges quickly and deterministically.
func circuitParams() core.Params {
	p := core.DefaultParams()
	p.Variation = core.DefaultCleanVariation()
	return p
}

func figure5Problem(t *testing.T, params core.Params) *Problem {
	t.Helper()
	p, err := NewProblem(graph.PaperFigure5(), WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cachedSession digs the warm core.Session out of the service cache for
// engine-level assertions.
func cachedSession(t *testing.T, s *Service, p *Problem, solver string) *core.Session {
	t.Helper()
	s.mu.Lock()
	e, ok := s.cache[p.Fingerprint()+"|"+solver]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("no cached instance for %s", solver)
	}
	inst, ok := e.inst.(*analogInstance)
	if !ok {
		t.Fatalf("cached instance has type %T", e.inst)
	}
	return inst.session()
}

// TestServiceWarmEngineReuse is the acceptance criterion for the instance
// cache: N concurrent solves of the same problem fingerprint must share one
// cached engine, so the symbolic factorization count stays at the
// single-solve level while the refactorization count grows.
func TestServiceWarmEngineReuse(t *testing.T) {
	params := circuitParams()

	// Baseline: one solve on a fresh service, to learn the single-solve
	// symbolic factorization count.
	base := NewService(Config{Workers: 1})
	baseProb := figure5Problem(t, params)
	if _, err := base.Solve(context.Background(), Request{Solver: "circuit", Problem: baseProb}); err != nil {
		t.Fatal(err)
	}
	baseStats, ok := cachedSession(t, base, baseProb, "circuit").EngineStats()
	if !ok {
		t.Fatal("baseline session has no engine")
	}
	if baseStats.Factorizations == 0 {
		t.Fatal("baseline solve ran no factorization")
	}

	// N concurrent solves of N distinct Problem values with identical
	// content: all must land on one cached instance.
	const n = 8
	svc := NewService(Config{Workers: 4})
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Solver: "circuit", Problem: figure5Problem(t, params)}
	}
	results := svc.SolveBatch(context.Background(), reqs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("batch item %d failed: %v", r.Index, r.Err)
		}
	}
	// Every report must be identical (modulo wall time): same instance, and
	// each solve re-seeds its stochastic models.
	first := results[0].Report.Normalized()
	for _, r := range results[1:] {
		if !reflect.DeepEqual(first, r.Report.Normalized()) {
			t.Fatalf("concurrent solves diverged:\n%+v\nvs\n%+v", first, r.Report.Normalized())
		}
	}

	sess := cachedSession(t, svc, reqs[0].Problem, "circuit")
	if got := sess.Solves(); got != n {
		t.Fatalf("cached session ran %d solves, want %d (cache not shared)", got, n)
	}
	stats, ok := sess.EngineStats()
	if !ok {
		t.Fatal("cached session has no engine")
	}
	if stats.Factorizations != baseStats.Factorizations {
		t.Errorf("symbolic factorizations grew with repeats: %d solves cost %d, single solve costs %d",
			n, stats.Factorizations, baseStats.Factorizations)
	}
	if stats.Refactorizations <= baseStats.Refactorizations {
		t.Errorf("repeated solves did not hit the refactor-only path: %d refactorizations after %d solves (baseline %d)",
			stats.Refactorizations, n, baseStats.Refactorizations)
	}

	misses := MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "miss")
	hits := MetricValue(t, svc, "analogflow_cache_events_total", "cache", "instance", "event", "hit")
	if misses != 1 || hits != n-1 {
		t.Errorf("cache counters: %v misses / %v hits, want 1 / %d", misses, hits, n-1)
	}
	requests, completed := MetricValue(t, svc, "analogflow_requests_total"), MetricValue(t, svc, "analogflow_completed_total")
	if errs := MetricValue(t, svc, "analogflow_errors_total"); requests != n || completed != n || errs != 0 {
		t.Errorf("request counters: %v requests, %v completed, %v errors", requests, completed, errs)
	}
}

// sleeperSolver blocks until its context is cancelled (or a failsafe timer
// fires); it stands in for a long-running solve in the cancellation test.
type sleeperSolver struct{ started chan struct{} }

func (s *sleeperSolver) Name() string     { return "sleeper" }
func (s *sleeperSolver) Describe() string { return "test backend that blocks until cancelled" }

func (s *sleeperSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	close(s.started)
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		return nil, errors.New("sleeper: failsafe timeout — cancellation never arrived")
	}
}

// TestServiceCancellationAbortsPromptly is the acceptance criterion for
// cancellation: cancelling the context of an in-flight solve must abort it
// promptly with the context's error.
func TestServiceCancellationAbortsPromptly(t *testing.T) {
	reg := DefaultRegistry()
	sleeper := &sleeperSolver{started: make(chan struct{})}
	if err := reg.Register(sleeper); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Registry: reg, Workers: 2})
	prob := figure5Problem(t, core.DefaultParams())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.Solve(ctx, Request{Solver: "sleeper", Problem: prob})
		done <- err
	}()
	<-sleeper.started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled solve did not return within 5s")
	}

	// A real backend with an already-expired deadline must also abort.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	bigProb, err := NewProblem(rmat.MustGenerate(rmat.SparseParams(128, 11)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(expired, Request{Solver: "push-relabel", Problem: bigProb}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestServiceBatchSerialMatchesConcurrent pins the determinism contract of
// the batch engine: a serial service and a concurrent one must produce
// identical reports (modulo wall time) for a mixed-backend batch.
func TestServiceBatchSerialMatchesConcurrent(t *testing.T) {
	build := func() []Request {
		params := core.DefaultParams()
		g1 := graph.PaperFigure5()
		g2 := rmat.MustGenerate(rmat.SparseParams(48, 9))
		var reqs []Request
		for _, solver := range []string{"behavioral", "dinic", "edmonds-karp", "push-relabel", "lp", "decompose"} {
			for _, g := range []*graph.Graph{g1, g2} {
				p, err := NewProblem(g, WithParams(params))
				if err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, Request{Solver: solver, Problem: p})
			}
		}
		// Duplicate fingerprints exercise the cache under concurrency.
		p, err := NewProblem(graph.PaperFigure5(), WithParams(params))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{Solver: "behavioral", Problem: p}, Request{Solver: "behavioral", Problem: p})
		return reqs
	}

	serial := NewService(Config{Workers: 1}).SolveBatch(context.Background(), build())
	concurrent := NewService(Config{Workers: 8}).SolveBatch(context.Background(), build())
	if len(serial) != len(concurrent) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(concurrent))
	}
	for i := range serial {
		if (serial[i].Err == nil) != (concurrent[i].Err == nil) {
			t.Fatalf("item %d: error mismatch: %v vs %v", i, serial[i].Err, concurrent[i].Err)
		}
		if serial[i].Err != nil {
			continue
		}
		a, b := serial[i].Report.Normalized(), concurrent[i].Report.Normalized()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("item %d: reports differ:\nserial:     %+v\nconcurrent: %+v", i, a, b)
		}
	}
}

// gaugeSolver records the maximum number of concurrently executing solves.
type gaugeSolver struct {
	cur, max atomic.Int64
}

func (g *gaugeSolver) Name() string     { return "gauge" }
func (g *gaugeSolver) Describe() string { return "test backend that gauges concurrency" }

func (g *gaugeSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	n := g.cur.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			break
		}
	}
	time.Sleep(5 * time.Millisecond)
	g.cur.Add(-1)
	return &Report{FlowValue: 1}, nil
}

// TestServiceWorkersBoundIsServiceWide pins that the Workers limit caps
// in-flight solves across concurrent batches, not per SolveBatch call.
func TestServiceWorkersBoundIsServiceWide(t *testing.T) {
	reg := NewRegistry()
	gauge := &gaugeSolver{}
	if err := reg.Register(gauge); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Registry: reg, Workers: 2})
	prob := figure5Problem(t, core.DefaultParams())
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := make([]Request, 5)
			for i := range reqs {
				reqs[i] = Request{Solver: "gauge", Problem: prob}
			}
			for _, r := range svc.SolveBatch(context.Background(), reqs) {
				if r.Err != nil {
					t.Errorf("item failed: %v", r.Err)
				}
			}
		}()
	}
	wg.Wait()
	if got := gauge.max.Load(); got > 2 {
		t.Errorf("observed %d concurrent solves across batches, want <= 2", got)
	}
}

func TestServiceUnknownSolver(t *testing.T) {
	svc := NewService(Config{})
	_, err := svc.Solve(context.Background(), Request{Solver: "no-such", Problem: figure5Problem(t, core.DefaultParams())})
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("want ErrUnknownSolver, got %v", err)
	}
	if got := MetricValue(t, svc, "analogflow_errors_total"); got != 1 {
		t.Errorf("error not counted: %v errors", got)
	}
}

// gatedWarmSolver is a Warmable whose NewInstance blocks on a per-problem
// gate and counts construction calls, for the eviction-under-construction
// regression test.
type gatedWarmSolver struct {
	mu    sync.Mutex
	calls map[string]int
	gates map[string]chan struct{} // closed to release construction
	began map[string]chan struct{} // closed when construction starts
}

func newGatedWarmSolver() *gatedWarmSolver {
	return &gatedWarmSolver{
		calls: map[string]int{},
		gates: map[string]chan struct{}{},
		began: map[string]chan struct{}{},
	}
}

func (g *gatedWarmSolver) Name() string     { return "gated-warm" }
func (g *gatedWarmSolver) Describe() string { return "test backend with gated construction" }

func (g *gatedWarmSolver) arm(fp string) (began, gate chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	began, gate = make(chan struct{}), make(chan struct{})
	g.began[fp], g.gates[fp] = began, gate
	return began, gate
}

func (g *gatedWarmSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	inst, err := g.NewInstance(p)
	if err != nil {
		return nil, err
	}
	return inst.Solve(ctx)
}

func (g *gatedWarmSolver) NewInstance(p *Problem) (Instance, error) {
	fp := p.Fingerprint()
	g.mu.Lock()
	g.calls[fp]++
	began, gate := g.began[fp], g.gates[fp]
	g.mu.Unlock()
	if began != nil {
		close(began)
		g.mu.Lock()
		g.began[fp] = nil
		g.mu.Unlock()
	}
	if gate != nil {
		<-gate
	}
	return fakeInstance{}, nil
}

type fakeInstance struct{}

func (fakeInstance) Solve(ctx context.Context) (*Report, error) { return &Report{FlowValue: 1}, nil }

// TestServiceEvictionSkipsEntriesUnderConstruction is the regression test
// for the insert-time eviction race: with maxCached=1, inserting problem B
// while problem A's instance is still being constructed must NOT evict A's
// entry — evicting it would orphan the in-flight construction and force a
// concurrent request for A to rebuild from scratch.
func TestServiceEvictionSkipsEntriesUnderConstruction(t *testing.T) {
	gs := newGatedWarmSolver()
	reg := NewRegistry()
	if err := reg.Register(gs); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Registry: reg, Workers: 4, MaxCachedInstances: 1})

	probA := figure5Problem(t, core.DefaultParams())
	probB, err := NewProblem(rmat.MustGenerate(rmat.SparseParams(16, 5)), WithParams(core.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	beganA, gateA := gs.arm(probA.Fingerprint())

	// Start A; its construction blocks on the gate.
	doneA := make(chan error, 1)
	go func() {
		_, err := svc.Solve(context.Background(), Request{Solver: "gated-warm", Problem: probA})
		doneA <- err
	}()
	<-beganA

	// B inserts while A is under construction; with maxCached=1 the old code
	// evicted A's entry here.
	if _, err := svc.Solve(context.Background(), Request{Solver: "gated-warm", Problem: probB}); err != nil {
		t.Fatal(err)
	}

	close(gateA)
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	// A second request for A must hit the cached entry, not reconstruct.
	if _, err := svc.Solve(context.Background(), Request{Solver: "gated-warm", Problem: probA}); err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	callsA := gs.calls[probA.Fingerprint()]
	gs.mu.Unlock()
	if callsA != 1 {
		t.Fatalf("problem A was constructed %d times; the in-flight entry was evicted and orphaned", callsA)
	}
}

// TestServiceEvictionHammered runs many concurrent solves of two alternating
// fingerprints through a maxCached=1 service, checking that nothing
// deadlocks or fails under constant eviction pressure (race detector
// coverage for the claim/evict paths).
func TestServiceEvictionHammered(t *testing.T) {
	svc := NewService(Config{Workers: 4, MaxCachedInstances: 1})
	params := core.DefaultParams()
	probs := []*Problem{
		figure5Problem(t, params),
		mustProblem(t, rmat.MustGenerate(rmat.SparseParams(16, 3)), params),
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				p := probs[(w+k)%2]
				if _, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: p}); err != nil {
					t.Errorf("solve failed under eviction pressure: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := MetricValue(t, svc, "analogflow_cached_instances"); got > 2 {
		t.Errorf("cache failed to shrink back: %v instances", got)
	}
}

func mustProblem(t *testing.T, g *graph.Graph, params core.Params) *Problem {
	t.Helper()
	p, err := NewProblem(g, WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestServiceCacheEviction(t *testing.T) {
	svc := NewService(Config{Workers: 1, MaxCachedInstances: 1})
	params := core.DefaultParams()
	p1 := figure5Problem(t, params)
	p2, err := NewProblem(rmat.MustGenerate(rmat.SparseParams(24, 2)), WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Problem{p1, p2, p1} {
		if _, err := svc.Solve(context.Background(), Request{Solver: "behavioral", Problem: p}); err != nil {
			t.Fatal(err)
		}
	}
	if got := MetricValue(t, svc, "analogflow_cached_instances"); got != 1 {
		t.Errorf("cache holds %v instances, want 1", got)
	}
}

// TestServiceStreamingOrder checks that SolveBatchFunc reports every item
// exactly once and that the returned slice is index-ordered.
func TestServiceStreamingOrder(t *testing.T) {
	svc := NewService(Config{Workers: 4})
	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{Solver: "dinic", Problem: figure5Problem(t, core.DefaultParams())})
	}
	seen := make(map[int]bool)
	results := svc.SolveBatchFunc(context.Background(), reqs, func(r BatchResult) {
		if seen[r.Index] {
			t.Errorf("index %d streamed twice", r.Index)
		}
		seen[r.Index] = true
	})
	if len(seen) != len(reqs) {
		t.Errorf("streamed %d results, want %d", len(seen), len(reqs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("item %d failed: %v", i, r.Err)
		}
	}
}
