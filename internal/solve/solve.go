// Package solve is the unified solver layer of analogflow: one stable
// Solve(ctx, *Problem) (*Report, error) interface over every max-flow
// substrate the repository implements — the analog behavioral and circuit
// models of internal/core, the classical CPU algorithms of internal/maxflow,
// the LP formulation of internal/lp and the dual decomposition of
// internal/decompose.
//
// The package has three layers:
//
//   - Problem / Pipeline: a validated instance plus a staged preprocessing
//     pipeline (parse → prune-to-s-t-core → quantize → optional decompose)
//     whose artifacts are computed lazily, exactly once, and shared by every
//     backend that solves the problem.
//   - Registry: a name-keyed registry of Solver implementations; the seven
//     built-in backends are available from DefaultRegistry.
//   - Service: a bounded-concurrency batch engine with per-fingerprint
//     instance caching, which keeps one warm core.Session (and hence one
//     warm mna.Engine) per cached problem so repeated solves hit the
//     numeric-only refactorization path of internal/mna.
//
// Every entry point takes a context.Context; cancellation is threaded down
// into the Newton iterations of the circuit engine, the augmenting-path
// loops of the combinatorial algorithms and the simplex pivot loop.
package solve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"analogflow/internal/graph"
	"analogflow/internal/jsonenc"
)

// Solver is one max-flow backend behind the unified interface.
type Solver interface {
	// Name is the registry key, e.g. "dinic" or "behavioral".
	Name() string
	// Describe returns a one-line human-readable description.
	Describe() string
	// Solve runs the backend on the problem.  Implementations must honour
	// context cancellation and must not mutate the problem's graph.
	Solve(ctx context.Context, p *Problem) (*Report, error)
}

// Instance is a warm, problem-bound solver created by a Warmable backend.
// Instances may cache arbitrary state between solves (preprocessing,
// circuits, factorisations); they serialise their own solves and are safe
// for concurrent use.
type Instance interface {
	Solve(ctx context.Context) (*Report, error)
}

// Warmable is implemented by backends that benefit from per-problem state
// reuse across repeated solves.  The batch service caches one Instance per
// (problem fingerprint, solver) pair.
type Warmable interface {
	Solver
	NewInstance(p *Problem) (Instance, error)
}

// ErrIncompatibleUpdate is returned by UpdatableInstance.Update when the
// target problem is not a capacity-only mutation the warm state can absorb
// (the s-t core or the quantized work graph changed structurally).  The
// service reacts by building a fresh instance for the target instead.
var ErrIncompatibleUpdate = errors.New("solve: update incompatible with warm instance state")

// ErrSlackExhausted is the structural-slack refinement of
// ErrIncompatibleUpdate: a structural insertion had to append a genuinely new
// edge (no parked slot with matching endpoints was left to reclaim), and the
// warm instance's frozen pattern has no position for it.  The service reacts
// like any incompatible update — one honest cold rebuild, counted in
// Stats.SlackExhaustedRebuilds, after which the chain continues warm —
// and errors.Is(err, ErrIncompatibleUpdate) holds.
var ErrSlackExhausted = fmt.Errorf("%w: structural slack exhausted", ErrIncompatibleUpdate)

// UpdatableInstance is an Instance that can absorb a capacity-only problem
// update in place, carrying its warm state (residual networks, circuits,
// factorisations, previous operating points) over to the updated problem.
// After a successful Update the instance answers Solve for the new problem;
// the caller owns re-keying any cache.  A structural change fails with
// ErrIncompatibleUpdate and leaves the instance bound to its old problem.
type UpdatableInstance interface {
	Instance
	Update(p *Problem) error
}

// UpdatableSolver is a Warmable whose purpose-built instances absorb
// capacity-only updates.  NewUpdatableInstance may construct differently from
// NewInstance (e.g. the circuit backend builds per-edge clamp sources), so
// the service uses it when an update chain starts cold.
type UpdatableSolver interface {
	Warmable
	NewUpdatableInstance(p *Problem) (UpdatableInstance, error)
}

// Report is the unified outcome of one solve — a superset of core.Result's
// metrics so that every backend can be compared field by field.  Fields that
// a backend does not produce are left at their zero value.
type Report struct {
	// Solver is the registry name of the backend that produced the report.
	Solver string `json:"solver"`
	// FlowValue is the flow value the backend reported, in original
	// capacity units.
	FlowValue float64 `json:"flow_value"`
	// ExactValue is the exact maximum flow of the instance and
	// RelativeError the deviation of FlowValue from it.  Push-relabel and
	// Edmonds-Karp reports certify their own optimum from the residual
	// network (maxflow.Network.Certify), so ExactValue = FlowValue and
	// RelativeError = 0; should the certificate fail they fall back to the
	// reference.  Every other report reads the reference: one Dinic solve
	// of the s-t core per problem, which a dinic report seeds.
	ExactValue    float64 `json:"exact_value"`
	RelativeError float64 `json:"relative_error"`
	// EdgeFlows is the per-edge flow on the original graph's edge indexing,
	// when the backend recovers one (the decomposition reports only a value).
	EdgeFlows []float64 `json:"edge_flows,omitempty"`
	// ConvergenceTime, ProgrammingTime, SubstratePower, Energy and Waves are
	// the analog-substrate metrics of core.Result (analog backends only).
	ConvergenceTime float64 `json:"convergence_time,omitempty"`
	ProgrammingTime float64 `json:"programming_time,omitempty"`
	SubstratePower  float64 `json:"substrate_power,omitempty"`
	Energy          float64 `json:"energy,omitempty"`
	Waves           int     `json:"waves,omitempty"`
	// PrunedVertices / PrunedEdges report the preprocessing reductions that
	// applied to the backend's input.
	PrunedVertices int `json:"pruned_vertices,omitempty"`
	PrunedEdges    int `json:"pruned_edges,omitempty"`
	// Iterations and Converged describe iterative backends (decompose: outer
	// multiplier updates; lp: simplex pivots; circuit: Newton iterations are
	// reported through Waves).
	Iterations int  `json:"iterations,omitempty"`
	Converged  bool `json:"converged,omitempty"`
	// Plan is the partition planner's decision when one was made — by the
	// decompose backend, or by the batch service routing an instance that
	// exceeds the configured substrate budget through the N-region
	// decomposition.  Nil when the solve ran without a planner.
	Plan *Plan `json:"plan,omitempty"`
	// WallTime is the host wall-clock duration of the solver proper —
	// backends stamp it around their core computation, excluding the
	// problem's shared lazy preprocessing and the exact-reference solve
	// that may run on the first request, so cross-backend timings compare
	// like for like.  It is the one non-deterministic field; comparisons of
	// otherwise identical runs must ignore it (Normalized strips it).
	WallTime time.Duration `json:"wall_time_ns"`
}

// Normalized returns a copy of the report with the non-deterministic
// wall-clock field zeroed, for report equality comparisons.
func (r *Report) Normalized() Report {
	cp := *r
	cp.WallTime = 0
	return cp
}

// AppendJSON appends exactly the bytes json.Marshal(r) produces — the fields
// in struct order, omitempty as tagged, wall_time_ns as the integer Duration
// — without reflection; the Plan of a planned solve is small and goes through
// json.Marshal.  A NaN or ±Inf number fails with the
// *json.UnsupportedValueError json.Marshal returns, and b comes back as it
// was.  Report is deliberately not a json.Marshaler: encoding/json re-scans
// every Marshaler's output, which costs about as much as reflection saves.
func (r *Report) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"solver":`...)
	b = jsonenc.AppendString(b, r.Solver)
	var err error
	number := func(key string, f float64) {
		if err == nil {
			b = append(b, key...)
			b, err = jsonenc.AppendFloat(b, f)
		}
	}
	number(`,"flow_value":`, r.FlowValue)
	number(`,"exact_value":`, r.ExactValue)
	number(`,"relative_error":`, r.RelativeError)
	if len(r.EdgeFlows) > 0 && err == nil {
		b = append(b, `,"edge_flows":[`...)
		for i, f := range r.EdgeFlows {
			if i > 0 {
				b = append(b, ',')
			}
			if f == 0 && !math.Signbit(f) { // most flows of a grid report
				b = append(b, '0')
			} else if b, err = jsonenc.AppendFloat(b, f); err != nil {
				break
			}
		}
		b = append(b, ']')
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`,"convergence_time":`, r.ConvergenceTime},
		{`,"programming_time":`, r.ProgrammingTime},
		{`,"substrate_power":`, r.SubstratePower},
		{`,"energy":`, r.Energy},
	} {
		if f.v != 0 { // omitempty; NaN is not empty
			number(f.key, f.v)
		}
	}
	if err != nil {
		return b[:start], err
	}
	for _, n := range [...]struct {
		key string
		v   int
	}{
		{`,"waves":`, r.Waves},
		{`,"pruned_vertices":`, r.PrunedVertices},
		{`,"pruned_edges":`, r.PrunedEdges},
		{`,"iterations":`, r.Iterations},
	} {
		if n.v != 0 {
			b = append(b, n.key...)
			b = strconv.AppendInt(b, int64(n.v), 10)
		}
	}
	if r.Converged {
		b = append(b, `,"converged":true`...)
	}
	if r.Plan != nil {
		plan, _ := json.Marshal(r.Plan) // no floats: a Plan always encodes
		b = append(b, `,"plan":`...)
		b = append(b, plan...)
	}
	b = append(b, `,"wall_time_ns":`...)
	b = strconv.AppendInt(b, int64(r.WallTime), 10)
	return append(b, '}'), nil
}

// flowReport converts a flow on the original graph into the common report
// fields shared by the exact backends.
func flowReport(name string, f *graph.Flow) *Report {
	return &Report{
		Solver:    name,
		FlowValue: f.Value,
		EdgeFlows: append([]float64(nil), f.Edge...),
	}
}

// ErrUnknownSolver is returned when a registry lookup fails; the error
// string names the missing solver.
var ErrUnknownSolver = errors.New("solve: unknown solver")

// Registry is a name-keyed set of solvers.  The zero value is unusable; use
// NewRegistry or DefaultRegistry.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Solver
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]Solver)}
}

// DefaultRegistry returns a fresh registry with the seven built-in backends:
// behavioral, circuit, dinic, edmonds-karp, push-relabel, lp and decompose.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, s := range builtinSolvers() {
		if err := r.Register(s); err != nil {
			panic(err) // built-in names are unique by construction
		}
	}
	return r
}

// Register adds a solver under its name; duplicate names are rejected.
func (r *Registry) Register(s Solver) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("solve: cannot register a nil or unnamed solver")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[s.Name()]; dup {
		return fmt.Errorf("solve: solver %q already registered", s.Name())
	}
	r.m[s.Name()] = s
	return nil
}

// Get returns the solver registered under name.
func (r *Registry) Get(name string) (Solver, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.m[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownSolver, name, r.namesLocked())
	}
	return s, nil
}

// Names returns the registered solver names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Solve looks up the named solver, runs it and stamps the report with the
// solver name and wall time.  It is the convenience path for one-shot
// clients (cmd/maxflow); batch traffic should go through Service, which adds
// instance caching and bounded concurrency.
func (r *Registry) Solve(ctx context.Context, name string, p *Problem) (*Report, error) {
	s, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("solve: nil problem")
	}
	start := time.Now()
	rep, err := s.Solve(ctx, p)
	if err != nil {
		return nil, err
	}
	rep.Solver = s.Name()
	if rep.WallTime == 0 {
		rep.WallTime = time.Since(start)
	}
	return rep, nil
}
