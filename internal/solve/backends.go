package solve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"analogflow/internal/core"
	"analogflow/internal/decompose"
	"analogflow/internal/graph"
	"analogflow/internal/lp"
	"analogflow/internal/maxflow"
)

// builtinSolvers returns the seven built-in backends.
func builtinSolvers() []Solver {
	return []Solver{
		&analogSolver{mode: core.ModeBehavioral, name: "behavioral",
			desc: "analog substrate, behavioral model (quantized + perturbed LP steady state)"},
		&analogSolver{mode: core.ModeCircuit, name: "circuit",
			desc: "analog substrate, full MNA circuit emulation (Newton on the Section 2 circuit)"},
		&cpuSolver{alg: maxflow.Dinic,
			desc: "Dinitz blocking-flow algorithm (exact reference)"},
		&cpuSolver{alg: maxflow.EdmondsKarp,
			desc: "Edmonds-Karp shortest augmenting paths (exact)"},
		&cpuSolver{alg: maxflow.PushRelabel,
			desc: "Goldberg-Tarjan push-relabel: highest-label selection, gap heuristic, periodic global relabelling (exact, the paper's CPU baseline)"},
		&lpSolver{desc: "primal simplex on the Section 2 max-flow LP (exact, dense tableau)"},
		&decomposeSolver{desc: "Section 6.4 dual decomposition into substrate-sized overlapping subproblems"},
	}
}

// --- analog backends (behavioral, circuit) ---------------------------------

// analogSolver adapts core.Solver/core.Session to the unified interface.  It
// is Warmable: a warm instance is a core.Session whose cached MNA engine
// turns repeated circuit solves into numeric-only refactorizations.
type analogSolver struct {
	mode core.Mode
	name string
	desc string
}

func (a *analogSolver) Name() string     { return a.name }
func (a *analogSolver) Describe() string { return a.desc }

func (a *analogSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	inst, err := a.NewInstance(p)
	if err != nil {
		return nil, err
	}
	return inst.Solve(ctx)
}

// stamped sets rep.WallTime to the elapsed solver-proper time.  Backends
// stamp their own reports so the figure measures the algorithm, not the
// shared lazy preprocessing or the exact-reference solve that may piggyback
// on the first call (Registry/Service only fill WallTime when it is unset).
func stamped(rep *Report, start time.Time) *Report {
	rep.WallTime = time.Since(start)
	return rep
}

// NewInstance builds a session around the problem's shared preprocessing
// artifacts, with the backend's mode forced onto the parameters.
func (a *analogSolver) NewInstance(p *Problem) (Instance, error) {
	prep, err := p.Prepared()
	if err != nil {
		return nil, err
	}
	params := p.Params()
	params.Mode = a.mode
	sess, err := core.NewSessionPrepared(params, prep)
	if err != nil {
		return nil, err
	}
	return &analogInstance{name: a.name, sess: sess, bound: p}, nil
}

// NewUpdatableInstance builds an update-absorbing session: private per-edge
// clamp sources (circuit mode) and a warm exact-reference network, so a
// capacity-only update re-stamps values and re-augments instead of
// rebuilding.  Results agree with plain instances to solver tolerance; see
// core.NewUpdatableSessionPrepared for the exact contract.
func (a *analogSolver) NewUpdatableInstance(p *Problem) (UpdatableInstance, error) {
	prep, err := p.Prepared()
	if err != nil {
		return nil, err
	}
	params := p.Params()
	params.Mode = a.mode
	sess, err := core.NewUpdatableSessionPrepared(params, prep)
	if err != nil {
		return nil, err
	}
	return &analogInstance{name: a.name, sess: sess, bound: p}, nil
}

type analogInstance struct {
	name string
	sess *core.Session

	// boundMu guards bound, the problem the session currently answers for.
	// The service compares it against the requested problem after a cached
	// solve, so a Solve racing an Update that claimed and rebound the
	// instance is detected instead of returning the wrong problem's report.
	boundMu sync.Mutex
	bound   *Problem
}

// BoundFingerprint implements the service's post-solve rebind check.
func (i *analogInstance) BoundFingerprint() string {
	i.boundMu.Lock()
	defer i.boundMu.Unlock()
	if i.bound == nil {
		return ""
	}
	return i.bound.Fingerprint()
}

func (i *analogInstance) setBound(p *Problem) {
	i.boundMu.Lock()
	i.bound = p
	i.boundMu.Unlock()
}

// Update rebinds the warm session to the updated problem.  Capacity-only
// mutations and park/unpark cycles are value-level re-stamps; a structural
// extension (appended edges) is absorbed when the session can splice it in
// (behavioral sessions; see Session.RebindStructural) and refused with
// ErrSlackExhausted when the frozen circuit pattern has no position for the
// new edge — the slot pool was exhausted, so the insertion had to append.
func (i *analogInstance) Update(p *Problem) error {
	prep, err := p.Prepared()
	if err != nil {
		return err
	}
	// Publish the new binding before the rebind: a Solve racing this update
	// must see a fingerprint that differs from its own problem on either
	// side of the swap, never a stale match against a re-stamped session.
	i.boundMu.Lock()
	old := i.bound
	i.boundMu.Unlock()
	i.setBound(p)
	if err := i.sess.RebindStructural(prep); err != nil {
		i.setBound(old)
		if errors.Is(err, core.ErrSessionNotUpdatable) || errors.Is(err, core.ErrIncompatibleUpdate) {
			if old != nil && p.Graph().NumEdges() > old.Graph().NumEdges() {
				// The target grew past the warm instance's edge list: the
				// insertion consumed slack that wasn't there.
				return fmt.Errorf("%w: %v", ErrSlackExhausted, err)
			}
			return fmt.Errorf("%w: %v", ErrIncompatibleUpdate, err)
		}
		return err
	}
	return nil
}

func (i *analogInstance) Solve(ctx context.Context) (*Report, error) {
	start := time.Now()
	res, err := i.sess.Solve(ctx)
	if err != nil {
		return nil, err
	}
	return stamped(reportFromCore(i.name, res), start), nil
}

// session exposes the underlying session for engine-level assertions in
// tests and diagnostics.
func (i *analogInstance) session() *core.Session { return i.sess }

// reportFromCore lifts a core.Result into the unified report.
func reportFromCore(name string, res *core.Result) *Report {
	rep := &Report{
		Solver:          name,
		FlowValue:       res.FlowValue,
		ExactValue:      res.ExactValue,
		RelativeError:   res.RelativeError,
		ConvergenceTime: res.ConvergenceTime,
		ProgrammingTime: res.ProgrammingTime,
		SubstratePower:  res.SubstratePower,
		Energy:          res.Energy,
		Waves:           res.Waves,
		PrunedVertices:  res.PrunedVertices,
		PrunedEdges:     res.PrunedEdges,
	}
	if res.Flow != nil {
		rep.EdgeFlows = append([]float64(nil), res.Flow.Edge...)
	}
	return rep
}

// --- exact CPU backends (dinic, edmonds-karp, push-relabel) ----------------

// cpuSolver adapts the combinatorial algorithms.  It solves on the shared
// s-t core and expands the flow back to the original edge indexing; the
// max-flow value is preserved exactly by construction of the prune.
//
// Push-relabel and Edmonds-Karp reports certify their own optimum: the
// residual network they end on holds a minimum cut, and when
// maxflow.Network.Certify accepts it the report carries ExactValue =
// FlowValue and RelativeError 0 without a second max-flow solve.  Only a
// failed certificate falls back to the problem's Dinic reference, so a
// kernel defect still shows as a non-zero relative error.  Dinic is itself
// the reference: its value seeds the problem's exact memo.
//
// It is Warmable: an instance keeps the residual network of its last solve,
// so a capacity-only update drains/extends the residual and re-augments
// instead of re-solving from scratch.  A warm re-solve reaches exactly the
// cold maximum value (the optimum is unique); the per-edge assignment it
// recovers is a — possibly different — optimal flow, because augmentation
// order from a warm residual differs from a cold run (docs/solver.md).
type cpuSolver struct {
	alg  maxflow.Algorithm
	desc string
}

func (c *cpuSolver) Name() string     { return c.alg.String() }
func (c *cpuSolver) Describe() string { return c.desc }

// NewInstance returns a warm residual-network instance.  The one-shot Solve
// below runs a fresh instance too, so cached and uncached solves report
// identically.
func (c *cpuSolver) NewInstance(p *Problem) (Instance, error) {
	return &cpuInstance{alg: c.alg, name: c.Name(), p: p}, nil
}

// NewUpdatableInstance: cpu instances are always update-absorbing.
func (c *cpuSolver) NewUpdatableInstance(p *Problem) (UpdatableInstance, error) {
	return &cpuInstance{alg: c.alg, name: c.Name(), p: p}, nil
}

// cpuInstance is the warm state of one CPU backend on one problem chain: the
// pruned core, the residual network of the last solve, and the solved flow.
type cpuInstance struct {
	alg  maxflow.Algorithm
	name string

	mu     sync.Mutex
	p      *Problem
	net    *maxflow.Network
	solved bool
	flow   *graph.Flow // core-domain flow of the last completed solve
	// certified records that the last solve's residual passed
	// maxflow.Network.Certify, so its value is reported as the exact one.
	certified bool
	elapsed   time.Duration
}

// BoundFingerprint implements the service's post-solve rebind check.
func (i *cpuInstance) BoundFingerprint() string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.p.Fingerprint()
}

func (i *cpuInstance) Solve(ctx context.Context) (*Report, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	coreG, pr := i.p.STCore()
	if i.net == nil {
		net, err := maxflow.NewNetwork(coreG)
		if err != nil {
			return nil, err
		}
		i.net = net
	}
	if !i.solved {
		start := time.Now()
		f, err := i.net.Solve(ctx, i.alg)
		if err != nil {
			// An aborted solve may leave the residual mid-computation —
			// push-relabel in particular is cancelled mid-discharge and
			// leaves a preflow, not a feasible flow.  Drop the warm state
			// so the next request re-solves from scratch instead of
			// silently augmenting a corrupted network.
			i.net, i.flow, i.solved = nil, nil, false
			return nil, err
		}
		i.flow, i.elapsed = f, time.Since(start)
		i.solved = true
		// The flow value and the residual cut's capacity may differ by
		// round-off only.
		tol := 1e-9 * math.Max(1, math.Abs(f.Value))
		i.certified = i.alg != maxflow.Dinic && i.net.Certify(f.Value, tol) == nil
	}
	if i.alg == maxflow.Dinic {
		// A Dinic solve of the core is bit-identical to the reference
		// computation the memo would run, so seed it instead of solving
		// twice.
		i.p.seedExact(i.flow.Value)
	}
	rep := expandedFlowReport(i.p, i.name, i.flow, pr)
	if i.certified {
		// The certificate proves the value optimal.  It seeds no memo: the
		// other exact algorithms may differ from Dinic in the last ulp, and
		// the shared reference must not depend on backend order.
		rep.ExactValue = rep.FlowValue
	} else if err := i.p.fillExact(ctx, rep); err != nil {
		return nil, err
	}
	rep.WallTime = i.elapsed
	return rep, nil
}

// Update absorbs a capacity-only or structural update.  Capacity changes (a
// park/unpark cycle included — the prune keeps parked slots resident) drain
// the overflow of shrunken edges and keep everything else; appended edges are
// spliced into the residual as fresh zero-flow arc pairs (Network.StructureTo)
// when the new core extends the old one edge-for-edge.  Either way the next
// Solve re-augments incrementally.  A prune whose kept-edge prefix broke — a
// park that stranded a branch, an insertion that revived one — is an honest
// structural change the residual cannot absorb.
func (i *cpuInstance) Update(p *Problem) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.net == nil {
		// Nothing warm to absorb the update into (never solved, or the
		// state was dropped after an aborted solve).  Report it as such so
		// the service counts the step as a cold fallback instead of
		// claiming a warm hit for a from-scratch solve.
		return fmt.Errorf("%w: instance holds no warm residual state", ErrIncompatibleUpdate)
	}
	_, oldPr := i.p.STCore()
	newCore, newPr := p.STCore()
	if !graph.PruneExtends(oldPr, newPr) {
		return fmt.Errorf("%w: the s-t core changed", ErrIncompatibleUpdate)
	}
	if err := i.net.StructureTo(newCore); err != nil {
		// The residual may have absorbed part of the pass before failing; it
		// is no longer trustworthy for either problem, so drop the warm
		// state — the instance stays valid for its base problem, just cold.
		i.net, i.flow, i.solved = nil, nil, false
		return fmt.Errorf("%w: %v", ErrIncompatibleUpdate, err)
	}
	i.p = p
	i.solved = false
	return nil
}

// Solve runs a fresh instance: the registry and the service share one
// report path, exact-value handling included.
func (c *cpuSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	return (&cpuInstance{alg: c.alg, name: c.Name(), p: p}).Solve(ctx)
}

// expandedFlowReport maps a core-domain flow back onto the original graph
// (a no-op when the prune kept the problem's graph itself) and fills the
// prune accounting.
func expandedFlowReport(p *Problem, name string, f *graph.Flow, pr *graph.PruneResult) *Report {
	if pr != nil && pr.Graph != p.Graph() {
		f = pr.ExpandFlow(p.Graph(), f)
	}
	rep := flowReport(name, f)
	if pr != nil {
		rep.PrunedVertices = pr.RemovedVertices
		rep.PrunedEdges = pr.RemovedEdges
	}
	return rep
}

// --- LP backend ------------------------------------------------------------

type lpSolver struct{ desc string }

func (l *lpSolver) Name() string     { return "lp" }
func (l *lpSolver) Describe() string { return l.desc }

func (l *lpSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	coreG, pr := p.STCore()
	if coreG.NumEdges() == 0 {
		// The LP formulation rejects edgeless programs; an edgeless core
		// means the max-flow is zero.
		rep := flowReport(l.Name(), graph.NewFlow(p.Graph()))
		if err := p.fillExact(ctx, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	// Formulate and solve directly (rather than via lp.SolveMaxFlowLPContext)
	// so the simplex pivot count reaches the report's Iterations field.
	lpProb, err := lp.MaxFlowProblem(coreG)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := lp.SolveContext(ctx, lpProb)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	f := graph.NewFlow(coreG)
	copy(f.Edge, res.X)
	f.RecomputeValue(coreG)
	rep := expandedFlowReport(p, l.Name(), f, pr)
	if err := p.fillExact(ctx, rep); err != nil {
		return nil, err
	}
	rep.Iterations = res.Iterations
	rep.Converged = true
	rep.WallTime = elapsed
	return rep, nil
}

// --- decomposition backend -------------------------------------------------

type decomposeSolver struct{ desc string }

func (d *decomposeSolver) Name() string     { return "decompose" }
func (d *decomposeSolver) Describe() string { return d.desc }

// Solve runs the N-region dual decomposition.  The region plan comes from
// the problem's substrate budget when one is set (the planner chooses the
// region count so each subproblem fits); otherwise from the decompose
// options' Regions field (default two, the paper's evaluation setup), split
// by the budget's partitioner or the BFS bands.
func (d *decomposeSolver) Solve(ctx context.Context, p *Problem) (*Report, error) {
	return d.solveWithBudget(ctx, p, p.Budget())
}

// solveWithBudget is Solve under an explicit budget — the service routes its
// service-wide default budget here for problems that carry none of their own.
func (d *decomposeSolver) solveWithBudget(ctx context.Context, p *Problem, b Budget) (*Report, error) {
	plan, part, err := planFor(p, b)
	if err != nil {
		return nil, err
	}
	if !plan.Sharded {
		// No budget pressure (or a shallow instance): decompose anyway —
		// that is this backend's job — at the configured region count.
		opts := p.DecomposeOptions()
		part, err = p.PartitionInto(b.Partitioner, opts.NumRegions())
		if err != nil {
			return nil, err
		}
		plan.Sharded = part.NumRegions() > 1
		plan.Regions = part.NumRegions()
		if plan.Partitioner == "" {
			pt, _ := decompose.PartitionerByName(b.Partitioner)
			plan.Partitioner = pt.Name()
		}
	}
	start := time.Now()
	res, err := decompose.SolveContext(ctx, p.Graph(), part, p.DecomposeOptions())
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	plan.Regions = res.Regions
	plan.RegionVertices = res.SubproblemSizes
	rep := &Report{
		Solver:     d.Name(),
		FlowValue:  res.FlowValue,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Plan:       plan,
		WallTime:   elapsed,
	}
	if err := p.fillExact(ctx, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
