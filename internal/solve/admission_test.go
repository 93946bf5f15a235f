package solve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"analogflow/internal/core"
	"analogflow/internal/graph"
)

// gateSolver blocks each solve until released, so tests can pin the worker
// pool in a known state.  started receives one token per solve that begins;
// release is closed (or fed) to let solves finish.
type gateSolver struct {
	name    string
	started chan struct{}
	release chan struct{}
	calls   atomic.Int64
}

func newGateSolver(name string) *gateSolver {
	return &gateSolver{
		name:    name,
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (g *gateSolver) Name() string     { return g.name }
func (g *gateSolver) Describe() string { return "test backend gated on a channel" }

func (g *gateSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	g.calls.Add(1)
	g.started <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &Report{FlowValue: 1}, nil
}

// orderSolver records the fingerprint of every problem it starts solving.
type orderSolver struct {
	mu    sync.Mutex
	order []string
}

func (o *orderSolver) Name() string     { return "order" }
func (o *orderSolver) Describe() string { return "test backend recording solve order" }

func (o *orderSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	o.mu.Lock()
	o.order = append(o.order, p.Fingerprint())
	o.mu.Unlock()
	return &Report{FlowValue: 1}, nil
}

func gateService(t *testing.T, gate *gateSolver, extra []Solver, workers, maxQueue int) *Service {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register(gate); err != nil {
		t.Fatal(err)
	}
	for _, s := range extra {
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return NewService(Config{Registry: reg, Workers: workers, MaxQueue: maxQueue})
}

// occupy fills every worker slot of the service with gated solves and waits
// until they are all executing.  The returned wait function releases them
// and joins the goroutines.
func occupy(t *testing.T, svc *Service, gate *gateSolver, prob *Problem, n int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Solve(context.Background(), Request{Solver: gate.name, Problem: prob}); err != nil {
				t.Errorf("occupier failed: %v", err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-gate.started:
		case <-time.After(5 * time.Second):
			t.Fatal("occupier never started")
		}
	}
	return func() {
		close(gate.release)
		wg.Wait()
	}
}

// waitQueueDepth polls until the admission queue holds exactly want
// sheddable waiters.
func waitQueueDepth(t *testing.T, svc *Service, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queueDepth(t, svc) != float64(want) {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %v)", want, queueDepth(t, svc))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedDeadlineUnmeetable pins the deadline-aware shed: with the single
// worker pinned and the backend's latency EMA far above the request
// deadline, the request is rejected immediately with ErrOverloaded — it
// never queues, never holds a slot, and the solver never sees it.
func TestShedDeadlineUnmeetable(t *testing.T) {
	gate := newGateSolver("block")
	svc := gateService(t, gate, nil, 1, 0)
	prob := figure5Problem(t, core.DefaultParams())
	done := occupy(t, svc, gate, prob, 1)

	// Prime the estimator: the backend "typically" takes an hour, so any
	// millisecond-scale deadline is hopeless once the slot is taken.
	svc.ema.observeOp("block", "solve", time.Hour)
	callsBefore := gate.calls.Load()
	_, err := svc.Solve(context.Background(), Request{
		Solver:   "block",
		Problem:  prob,
		Deadline: time.Now().Add(50 * time.Millisecond),
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var ovl *OverloadError
	if !errors.As(err, &ovl) {
		t.Fatalf("error %v is not an *OverloadError", err)
	}
	if ovl.Reason != "deadline" {
		t.Errorf("shed reason %q, want deadline", ovl.Reason)
	}
	if ovl.EstimatedWait < time.Hour/2 {
		t.Errorf("estimated wait %v implausibly small", ovl.EstimatedWait)
	}
	if ovl.RetryAfter <= 0 {
		t.Errorf("no retry-after hint: %+v", ovl)
	}
	if got := gate.calls.Load(); got != callsBefore {
		t.Errorf("shed request reached the solver (%d calls, was %d)", got, callsBefore)
	}
	if got := MetricValue(t, svc, "analogflow_shed_requests_total"); got != 1 {
		t.Errorf("shed_requests = %v, want 1", got)
	}
	done()
	// The service keeps serving after shedding: a no-deadline request runs.
	if _, err := svc.Solve(context.Background(), Request{Solver: "block", Problem: prob}); err != nil {
		t.Fatalf("post-shed solve failed: %v", err)
	}
}

// TestShedQueueFull pins the bounded-queue shed: once MaxQueue sheddable
// waiters queue behind a pinned worker, the next request is rejected with
// reason "queue full" regardless of deadline.
func TestShedQueueFull(t *testing.T) {
	gate := newGateSolver("block")
	svc := gateService(t, gate, nil, 1, 1)
	prob := figure5Problem(t, core.DefaultParams())
	done := occupy(t, svc, gate, prob, 1)

	// One queued request fills the bounded queue.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Solve(context.Background(), Request{Solver: "block", Problem: prob}); err != nil {
			t.Errorf("queued request failed: %v", err)
		}
	}()
	waitQueueDepth(t, svc, 1)

	_, err := svc.Solve(context.Background(), Request{Solver: "block", Problem: prob})
	var ovl *OverloadError
	if !errors.As(err, &ovl) || ovl.Reason != "queue full" {
		t.Fatalf("want queue-full OverloadError, got %v", err)
	}
	if shed, depth := MetricValue(t, svc, "analogflow_shed_requests_total"), queueDepth(t, svc); shed != 1 || depth != 1 {
		t.Errorf("stats after shed: shed=%v depth=%v, want 1/1", shed, depth)
	}
	done()
	wg.Wait()
	// The queued request drained the queue and released its slot.
	if depth, inFlight := queueDepth(t, svc), MetricValue(t, svc, "analogflow_in_flight_solves"); depth != 0 || inFlight != 0 {
		t.Errorf("stats after drain: queue depth %v, in flight %v", depth, inFlight)
	}
}

// TestShedPriorityLaneAdmitsUpdatesFirst pins the lane contract: with the
// single worker pinned, a queued Update step is granted the freed slot ahead
// of an earlier-queued cold Solve, so warm session traffic is never shed (or
// starved) behind batch backlog.
func TestShedPriorityLaneAdmitsUpdatesFirst(t *testing.T) {
	gate := newGateSolver("block")
	rec := &orderSolver{}
	svc := gateService(t, gate, []Solver{rec}, 1, 0)
	coldProb := figure5Problem(t, core.DefaultParams())
	base, err := NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	upd := graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{9}}
	target, err := base.WithUpdate(upd)
	if err != nil {
		t.Fatal(err)
	}

	done := occupy(t, svc, gate, coldProb, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // queues first, in the normal lane
		defer wg.Done()
		if _, err := svc.Solve(context.Background(), Request{Solver: "order", Problem: coldProb}); err != nil {
			t.Errorf("cold solve failed: %v", err)
		}
	}()
	waitQueueDepth(t, svc, 1)
	wg.Add(1)
	go func() { // queues second, in the priority lane
		defer wg.Done()
		if _, err := svc.Update(context.Background(), UpdateRequest{Solver: "order", Problem: base, Update: upd}); err != nil {
			t.Errorf("update failed: %v", err)
		}
	}()
	waitQueueDepth(t, svc, 2)
	done()
	wg.Wait()

	rec.mu.Lock()
	order := append([]string(nil), rec.order...)
	rec.mu.Unlock()
	if len(order) != 2 {
		t.Fatalf("recorded %d solves, want 2", len(order))
	}
	if order[0] != target.Fingerprint() {
		t.Errorf("update did not run first: order[0] is the cold solve")
	}
}

// TestShedAdmitWorkerBound is the -race pin: a storm of concurrent
// shed/admit decisions — mixed deadlines, some shed, some queued, updates
// and solves interleaved — never lets more than Workers solves execute at
// once, and every failure is a typed admission outcome.
func TestShedAdmitWorkerBound(t *testing.T) {
	const workers = 2
	reg := NewRegistry()
	gauge := &gaugeSolver{}
	if err := reg.Register(gauge); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Registry: reg, Workers: workers, MaxQueue: 4})
	// A realistic EMA makes some tight deadlines shed and loose ones queue.
	svc.ema.observeOp("gauge", "solve", 5*time.Millisecond)
	prob := figure5Problem(t, core.DefaultParams())
	base, err := NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var shed, ok, failed atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 25; j++ {
				var deadline time.Time
				switch rng.Intn(3) {
				case 0:
					deadline = time.Now().Add(time.Duration(rng.Intn(3)) * time.Microsecond)
				case 1:
					deadline = time.Now().Add(time.Second)
				}
				var err error
				if rng.Intn(4) == 0 {
					_, err = svc.Update(context.Background(), UpdateRequest{
						Solver: "gauge", Problem: base,
						Update:   graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{float64(1 + rng.Intn(50))}},
						Deadline: deadline,
					})
				} else {
					_, err = svc.Solve(context.Background(), Request{Solver: "gauge", Problem: prob, Deadline: deadline})
				}
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					failed.Add(1)
				default:
					t.Errorf("unexpected error class: %v", err)
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if got := gauge.max.Load(); got > workers {
		t.Errorf("observed %d concurrent solves, want <= %d", got, workers)
	}
	if ok.Load() == 0 {
		t.Error("no request ever succeeded under load")
	}
	if got := MetricValue(t, svc, "analogflow_shed_requests_total"); got != float64(shed.Load()) {
		t.Errorf("shed_requests=%v but %d callers saw ErrOverloaded", got, shed.Load())
	}
	if inFlight, depth := MetricValue(t, svc, "analogflow_in_flight_solves"), queueDepth(t, svc); inFlight != 0 || depth != 0 {
		t.Errorf("service not quiescent after storm: in flight %v, queue depth %v", inFlight, depth)
	}
}

// TestDrainSolveBatchSkipsPendingItems pins SolveBatchDrain: once the stop
// hook fires, in-flight items finish and every not-yet-started item fails
// with ErrStopped without touching the request counters.
func TestDrainSolveBatchSkipsPendingItems(t *testing.T) {
	reg := NewRegistry()
	rec := &orderSolver{}
	if err := reg.Register(rec); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Registry: reg, Workers: 1})
	prob := figure5Problem(t, core.DefaultParams())
	reqs := make([]Request, 5)
	for i := range reqs {
		reqs[i] = Request{Solver: "order", Problem: prob}
	}
	var stopped atomic.Bool
	var emitted int
	results := svc.SolveBatchDrain(context.Background(), reqs, func(res BatchResult) {
		if res.Err == nil {
			emitted++
			if emitted == 2 {
				stopped.Store(true) // drain begins mid-batch
			}
		}
	}, stopped.Load)
	requestsAfter := MetricValue(t, svc, "analogflow_requests_total")
	errorsAfter := MetricValue(t, svc, "analogflow_errors_total")
	var okN, stoppedN int
	for _, r := range results {
		switch {
		case r.Err == nil:
			okN++
		case errors.Is(r.Err, ErrStopped):
			stoppedN++
		default:
			t.Errorf("item %d: unexpected error %v", r.Index, r.Err)
		}
	}
	if okN != 2 || stoppedN != 3 {
		t.Fatalf("got %d ok / %d stopped, want 2/3", okN, stoppedN)
	}
	// Stopped items never became service requests, errors or solver calls.
	if requestsAfter != 2 || errorsAfter != 0 {
		t.Errorf("stopped items leaked into counters: %v requests, %v errors", requestsAfter, errorsAfter)
	}
	rec.mu.Lock()
	calls := len(rec.order)
	rec.mu.Unlock()
	if calls != 2 {
		t.Errorf("solver saw %d calls, want 2", calls)
	}
}
