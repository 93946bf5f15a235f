// Package faultinject is the deterministic fault layer the failure-domain
// tests drive: a seedable Plan of faults (panic on the Nth solve, error on
// region K, fixed delay, context-cancel mid-chain) wired behind wrappers
// that drop into the places real faults strike — a Registry-registrable
// solve.Solver (WrapSolver, warm instances included) and a decompose.Oracle
// (WrapOracle).  Everything is counter-based, never clock- or
// scheduler-based, so a fault plan replays identically across runs and under
// -race.
//
// The package exists for tests, but it is not test-only code on purpose:
// wrapping a production registry with a fault plan is how chaos drills
// against a running analogflowd would be staged.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"analogflow/internal/decompose"
	"analogflow/internal/graph"
	"analogflow/internal/solve"
)

// ErrInjected is the sentinel every injected (non-panic) fault wraps.
var ErrInjected = errors.New("faultinject: injected fault")

// Mode selects what a region fault does.
type Mode string

const (
	// ModeError fails the region solve with ErrInjected.
	ModeError Mode = "error"
	// ModePanic panics inside the region solve (the isolation layers under
	// test must convert it into an error).
	ModePanic Mode = "panic"
	// ModeDelay sleeps Plan.Delay inside the region solve.
	ModeDelay Mode = "delay"
)

// RegionFault is one fault targeted at a decomposition region.
type RegionFault struct {
	// Region is the region index the fault strikes.
	Region int
	// Call is the 1-based per-region call count to strike on; 0 strikes
	// every call for that region.
	Call int
	// Mode is what happens.
	Mode Mode
}

// Plan is one deterministic fault schedule.  The zero Plan injects nothing.
// Solve-counting faults (PanicOnSolve, ErrorOnSolve, CancelOnSolve) trigger
// on the Nth guarded solver invocation, 1-based, counted across every
// wrapper sharing the Injector — warm-instance solves, one-shot solves and
// region solves all count.
type Plan struct {
	// PanicOnSolve panics on the Nth solve; 0 disables.
	PanicOnSolve int
	// ErrorOnSolve fails the Nth solve with ErrInjected; 0 disables.
	ErrorOnSolve int
	// CancelOnSolve invokes Cancel just before the Nth solve runs — the
	// "context cancelled mid-chain" fault; 0 disables.  The solve itself
	// proceeds and observes the cancelled context the way a live request
	// would.
	CancelOnSolve int
	// Cancel is the cancellation hook CancelOnSolve fires.
	Cancel func()
	// Delay is slept (context-aware) before every solve, and inside
	// ModeDelay region faults; 0 disables.
	Delay time.Duration
	// FailRate injects ErrInjected on each solve with this probability,
	// drawn from a rand.Rand seeded with Seed — deterministic for a fixed
	// seed and call order; 0 disables.
	FailRate float64
	// Seed seeds the FailRate stream.
	Seed int64
	// Regions are the per-region faults WrapOracle applies.
	Regions []RegionFault
}

// Injector executes one Plan.  One Injector may back any number of wrappers;
// its counters are shared across them, which is what makes "the Nth solve in
// this chain" well-defined no matter which path the service routes a step
// through.  Safe for concurrent use.
type Injector struct {
	calls atomic.Int64

	mu          sync.Mutex
	plan        Plan
	rng         *rand.Rand
	regionCalls map[int]int
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{
		plan:        plan,
		rng:         rand.New(rand.NewSource(plan.Seed)),
		regionCalls: make(map[int]int),
	}
}

// Calls reports how many guarded solve invocations have happened.
func (in *Injector) Calls() int64 { return in.calls.Load() }

// SetPlan replaces the fault plan mid-run (and re-seeds the FailRate
// stream).  Solve counts are absolute, so arming "panic on the next solve"
// after a warm-up phase is SetPlan(Plan{PanicOnSolve: int(in.Calls()) + 1}).
func (in *Injector) SetPlan(plan Plan) {
	in.mu.Lock()
	in.plan = plan
	in.rng = rand.New(rand.NewSource(plan.Seed))
	in.mu.Unlock()
}

// planSnapshot reads the current plan consistently.
func (in *Injector) planSnapshot() Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plan
}

// beforeSolve applies the solve-counting faults for one invocation and
// returns the error to fail it with, nil to let it run.  Panics are raised
// here — converting them into errors is exactly the isolation contract the
// wrappers exist to test.
func (in *Injector) beforeSolve(ctx context.Context) error {
	n := int(in.calls.Add(1))
	plan := in.planSnapshot()
	if plan.Delay > 0 {
		t := time.NewTimer(plan.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if plan.CancelOnSolve == n && plan.Cancel != nil {
		plan.Cancel()
	}
	if plan.PanicOnSolve == n {
		panic(fmt.Sprintf("faultinject: planned panic on solve %d", n))
	}
	if plan.ErrorOnSolve == n {
		return fmt.Errorf("%w: planned error on solve %d", ErrInjected, n)
	}
	if plan.FailRate > 0 {
		in.mu.Lock()
		hit := in.rng.Float64() < plan.FailRate
		in.mu.Unlock()
		if hit {
			return fmt.Errorf("%w: random failure on solve %d", ErrInjected, n)
		}
	}
	return nil
}

// beforeRegion applies region faults for one SolveRegion call.
func (in *Injector) beforeRegion(ctx context.Context, region int) error {
	in.mu.Lock()
	in.regionCalls[region]++
	call := in.regionCalls[region]
	in.mu.Unlock()
	plan := in.planSnapshot()
	for _, f := range plan.Regions {
		if f.Region != region || (f.Call != 0 && f.Call != call) {
			continue
		}
		switch f.Mode {
		case ModePanic:
			panic(fmt.Sprintf("faultinject: planned panic in region %d (call %d)", region, call))
		case ModeError:
			return fmt.Errorf("%w: planned error in region %d (call %d)", ErrInjected, region, call)
		case ModeDelay:
			if plan.Delay > 0 {
				t := time.NewTimer(plan.Delay)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				}
			}
		}
	}
	return nil
}

// WrapSolver wraps a backend so every solve runs through the injector.  The
// wrapper preserves the inner solver's capability surface: an
// UpdatableSolver stays updatable and a Warmable stays warmable, so the
// solve.Service routes the wrapped backend through exactly the code paths —
// one-shot warm-instance cache, update chains, region oracles — a real
// backend takes.  The wrapper keeps the inner name, so it substitutes for the
// backend in a custom Registry.
func WrapSolver(inner solve.Solver, in *Injector) solve.Solver {
	fs := faultySolver{inner: inner, in: in}
	if us, ok := inner.(solve.UpdatableSolver); ok {
		return &faultyUpdatableSolver{faultyWarmable{faultySolver: fs, w: us}, us}
	}
	if w, ok := inner.(solve.Warmable); ok {
		return &faultyWarmable{faultySolver: fs, w: w}
	}
	return &fs
}

type faultySolver struct {
	inner solve.Solver
	in    *Injector
}

func (s *faultySolver) Name() string { return s.inner.Name() }
func (s *faultySolver) Describe() string {
	return "fault-injecting wrapper: " + s.inner.Describe()
}

func (s *faultySolver) Solve(ctx context.Context, p *solve.Problem) (*solve.Report, error) {
	if err := s.in.beforeSolve(ctx); err != nil {
		return nil, err
	}
	return s.inner.Solve(ctx, p)
}

type faultyWarmable struct {
	faultySolver
	w solve.Warmable
}

func (s *faultyWarmable) NewInstance(p *solve.Problem) (solve.Instance, error) {
	inst, err := s.w.NewInstance(p)
	if err != nil {
		return nil, err
	}
	return &faultyInstance{inner: inst, in: s.in}, nil
}

type faultyUpdatableSolver struct {
	faultyWarmable
	us solve.UpdatableSolver
}

func (s *faultyUpdatableSolver) NewUpdatableInstance(p *solve.Problem) (solve.UpdatableInstance, error) {
	inst, err := s.us.NewUpdatableInstance(p)
	if err != nil {
		return nil, err
	}
	return &faultyUpdatableInstance{faultyInstance{inner: inst, in: s.in}}, nil
}

type faultyInstance struct {
	inner solve.Instance
	in    *Injector
}

func (i *faultyInstance) Solve(ctx context.Context) (*solve.Report, error) {
	if err := i.in.beforeSolve(ctx); err != nil {
		return nil, err
	}
	return i.inner.Solve(ctx)
}

type faultyUpdatableInstance struct {
	faultyInstance
}

func (i *faultyUpdatableInstance) Update(p *solve.Problem) error {
	return i.inner.(solve.UpdatableInstance).Update(p)
}

// WrapOracle wraps a decomposition region oracle so region faults
// (Plan.Regions) strike inside SolveRegion — the raw-oracle failure domain
// the decompose fan-out itself must contain.
func WrapOracle(inner decompose.Oracle, in *Injector) decompose.Oracle {
	return decompose.OracleFunc(func(ctx context.Context, region int, g *graph.Graph) (*graph.Flow, error) {
		if err := in.beforeRegion(ctx, region); err != nil {
			return nil, err
		}
		return inner.SolveRegion(ctx, region, g)
	})
}
