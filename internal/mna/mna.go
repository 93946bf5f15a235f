// Package mna is the analog simulation engine of the repository: it assembles
// and solves the modified-nodal-analysis (MNA) equations of a circuit.Netlist,
// replacing the SPICE simulator the paper used.  Two analyses are provided:
//
//   - Operating point (DC): Newton-Raphson on the nonlinear MNA system with
//     capacitors treated as open circuits.
//   - Transient: fixed-step backward-Euler integration with a full Newton
//     solve at every time point, per-step memristor state updates, and a
//     convergence detector that reports when the monitored quantity settles
//     within a tolerance band (the paper's "within 0.1 % of the final value"
//     definition of convergence time).
//
// The sparse path uses the Gilbert-Peierls LU from internal/numeric, so
// crossbar-scale systems (tens of thousands of unknowns) remain tractable.
// Because the netlist topology is fixed for the lifetime of an Engine, the
// engine assembles into one persistent pattern-frozen SparseBuilder and keeps
// one cached LU factorisation whose symbolic analysis (fill-in pattern, pivot
// order) is reused across Newton iterations, line-search probes, homotopy
// levels and transient time points; only the cheap numeric refactorization
// runs per iterate.  docs/solver.md describes the full pipeline.
//
// An Engine is not safe for concurrent use; parallel sweeps must build one
// engine per goroutine (which internal/experiments does).
package mna

import (
	"errors"
	"fmt"
	"math"

	"analogflow/internal/circuit"
	"analogflow/internal/numeric"
)

// Options configures the engine.
type Options struct {
	// MaxNewtonIterations bounds the Newton loop per solve point.
	MaxNewtonIterations int
	// AbsTol and RelTol define Newton convergence on the solution update:
	// |dx_i| <= AbsTol + RelTol*|x_i| for every unknown.
	AbsTol, RelTol float64
	// ResidualTol is an alternative convergence criterion on the nonlinear
	// KCL residual (in amperes): once the residual drops below it the point
	// is accepted even if high-gain internal nodes are still jittering at
	// the solver's accuracy floor.
	ResidualTol float64
	// Damping scales Newton updates (1 = full Newton).  Values below 1 help
	// circuits with many piecewise diodes converge.
	Damping float64
	// DisableReuse forces the reference from-scratch path: a fresh builder
	// and a full symbolic+numeric factorization on every Newton iteration.
	// It exists so tests can pin the incremental path against the reference
	// one; production callers should leave it false.
	DisableReuse bool
	// Trace, when non-nil, receives a line per Newton iteration describing
	// the step length and residual; useful when debugging convergence of
	// large substrate circuits.
	Trace func(format string, args ...any)
}

// DefaultOptions returns robust defaults for the substrate circuits.
func DefaultOptions() Options {
	return Options{
		MaxNewtonIterations: 200,
		AbsTol:              1e-9,
		RelTol:              1e-6,
		ResidualTol:         1e-9,
		Damping:             1.0,
	}
}

// Stats counts the linear-algebra work an engine has performed; the
// regression tests use it to pin that repeated solves run no symbolic
// factorization after the first one.
type Stats struct {
	// Assemblies is the number of full netlist stamp passes.
	Assemblies int
	// Factorizations counts full symbolic+numeric LU factorizations.
	Factorizations int
	// Refactorizations counts numeric-only refactorizations that reused the
	// cached symbolic analysis.
	Refactorizations int
}

// system is one assembled linearisation: the MNA matrix and right-hand side
// at a specific iterate.  The engine keeps two and ping-pongs between them so
// the line search can probe a candidate without destroying the system of the
// current iterate.
type system struct {
	a   numeric.CSC
	rhs []float64
}

// Engine solves a fixed netlist.  The unknown ordering is: node voltages
// (0..NumNodes-1) followed by element branch currents in element order.
type Engine struct {
	netlist   *circuit.Netlist
	opts      Options
	branchOf  []int // branchOf[i] = base branch index of element i
	numNodes  int
	size      int
	nonlinear bool

	// Incremental-solve state (see the package comment).
	builder   *numeric.SparseBuilder
	lu        *numeric.SparseLU
	luVersion int // builder pattern version the cached LU belongs to
	stats     Stats
	sys       [2]*system
	xFull     []float64 // Newton direction target (solution of the linear system)
	cand      []float64 // line-search candidate
	resid     []float64 // scratch for residual norms

	// interrupt, when non-nil, is polled at the top of every Newton
	// iteration; a non-nil return aborts the solve with that error.  It is
	// how context cancellation reaches the inner loops (SetInterrupt).
	interrupt func() error
}

// ErrNoConvergence is returned when Newton iteration fails to converge.
var ErrNoConvergence = errors.New("mna: Newton iteration did not converge")

// NewEngine prepares an engine for the netlist.
func NewEngine(nl *circuit.Netlist, opts Options) (*Engine, error) {
	if nl == nil {
		return nil, errors.New("mna: nil netlist")
	}
	if err := nl.CheckNodes(); err != nil {
		return nil, err
	}
	if opts.MaxNewtonIterations <= 0 {
		opts.MaxNewtonIterations = DefaultOptions().MaxNewtonIterations
	}
	if opts.AbsTol <= 0 {
		opts.AbsTol = DefaultOptions().AbsTol
	}
	if opts.RelTol <= 0 {
		opts.RelTol = DefaultOptions().RelTol
	}
	if opts.ResidualTol <= 0 {
		opts.ResidualTol = DefaultOptions().ResidualTol
	}
	if opts.Damping <= 0 || opts.Damping > 1 {
		opts.Damping = 1
	}
	e := &Engine{
		netlist:  nl,
		opts:     opts,
		numNodes: nl.NumNodes(),
	}
	base := nl.NumNodes()
	for _, el := range nl.Elements() {
		e.branchOf = append(e.branchOf, base)
		base += el.NumBranches()
		if !el.Linear() {
			e.nonlinear = true
		}
	}
	e.size = base
	if e.size == 0 {
		return nil, errors.New("mna: empty netlist")
	}
	e.builder = numeric.NewSparseBuilder(e.size)
	for i := range e.sys {
		e.sys[i] = &system{rhs: make([]float64, e.size)}
	}
	e.xFull = make([]float64, e.size)
	e.cand = make([]float64, e.size)
	e.resid = make([]float64, e.size)
	return e, nil
}

// Size returns the number of MNA unknowns.
func (e *Engine) Size() int { return e.size }

// NumNodes returns the number of node-voltage unknowns.
func (e *Engine) NumNodes() int { return e.numNodes }

// BranchBase returns the branch index base of the i-th element (in netlist
// order); used to read branch currents out of solutions.
func (e *Engine) BranchBase(i int) int { return e.branchOf[i] }

// Stats returns the cumulative linear-algebra work counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetInterrupt installs (or clears, with nil) a cancellation poll that every
// Newton iteration checks before doing any work.  Callers that thread a
// context.Context through a solve install `ctx.Err` here; the engine returns
// the poll's error unwrapped so errors.Is(err, context.Canceled) works.
// SetInterrupt must not be called while a solve is in flight (an Engine is
// not safe for concurrent use anyway).
func (e *Engine) SetInterrupt(poll func() error) { e.interrupt = poll }

// checkInterrupt polls the installed cancellation hook.
func (e *Engine) checkInterrupt() error {
	if e.interrupt == nil {
		return nil
	}
	return e.interrupt()
}

// Solution is a solved operating point or time point.
type Solution struct {
	// Time is the simulation time of the solution (0 for DC).
	Time float64
	// X is the raw unknown vector: node voltages then branch currents.
	X []float64
	// NewtonIterations is how many Newton iterations the point needed.
	NewtonIterations int
}

// Voltage returns the node voltage of n (0 for ground).
func (s *Solution) Voltage(n circuit.NodeID) float64 {
	if n == circuit.Ground {
		return 0
	}
	return s.X[int(n)]
}

// VoltageFunc returns an accessor usable by circuit.Stateful elements.
func (s *Solution) VoltageFunc() func(circuit.NodeID) float64 {
	return func(n circuit.NodeID) float64 { return s.Voltage(n) }
}

// stamp runs one full netlist stamp pass into the given builder and rhs.
func (e *Engine) stamp(builder *numeric.SparseBuilder, rhs, x, xPrev []float64, t, dt, srcScale float64) {
	ctx := &circuit.StampContext{
		NumNodes:    e.numNodes,
		A:           builder,
		B:           rhs,
		X:           x,
		XPrev:       xPrev,
		Dt:          dt,
		Time:        t,
		SourceScale: srcScale,
	}
	for i, el := range e.netlist.Elements() {
		ctx.BranchBase = e.branchOf[i]
		el.Stamp(ctx)
	}
	// Tiny conductance from every node to ground keeps structurally floating
	// nodes (e.g. a capacity-source node whose clamp diode is deep in
	// cut-off) numerically well posed without influencing the solution.
	const gmin = 1e-12
	for n := 0; n < e.numNodes; n++ {
		builder.Add(n, n, gmin)
	}
	e.stats.Assemblies++
}

// assembleInto builds the linearised system for the given iterate into s,
// reusing the engine's persistent builder (and hence its frozen sparsity
// pattern) and s's own buffers.
func (e *Engine) assembleInto(s *system, x, xPrev []float64, t, dt, srcScale float64) {
	e.builder.Reset()
	for i := range s.rhs {
		s.rhs[i] = 0
	}
	e.stamp(e.builder, s.rhs, x, xPrev, t, dt, srcScale)
	e.builder.CompileInto(&s.a)
}

// factorize returns an LU factorisation of a, reusing the cached symbolic
// analysis (fill-in pattern and pivot order) whenever the builder's sparsity
// pattern has not changed since it was computed.  A numerically degraded
// pivot order falls back to a fresh full factorization transparently.
func (e *Engine) factorize(a *numeric.CSC) (*numeric.SparseLU, error) {
	if e.lu != nil && e.luVersion == e.builder.PatternVersion() {
		if err := e.lu.Refactor(a); err == nil {
			e.stats.Refactorizations++
			return e.lu, nil
		}
		// Pivot order no longer viable for these values: fall through and
		// redo the symbolic analysis from scratch.
	}
	lu, err := numeric.FactorizeSparse(a)
	if err != nil {
		return nil, err
	}
	e.stats.Factorizations++
	e.lu = lu
	e.luVersion = e.builder.PatternVersion()
	return lu, nil
}

// residualOf evaluates ||A x - b||_2 for an assembled system.  Because every
// nonlinear element is stamped as a companion model linearised exactly at x,
// this is the true residual of the nonlinear MNA equations at x when the
// system was assembled at x.  The Euclidean norm is used because the Newton
// direction is guaranteed to be a descent direction for it, which the
// backtracking line search relies on.
func (e *Engine) residualOf(s *system, x []float64) float64 {
	s.a.MulVecTo(e.resid, x)
	return numeric.Norm2Sub(e.resid, s.rhs)
}

// solvePoint runs Newton iteration for a single time point.  xGuess is the
// starting iterate (may be nil), xPrev the accepted solution of the previous
// time point (nil for DC).
func (e *Engine) solvePoint(xGuess, xPrev []float64, t, dt float64) (*Solution, error) {
	return e.solvePointScaled(xGuess, xPrev, t, dt, 1)
}

// solvePointScaled is solvePoint with an explicit independent-source scale,
// used by the homotopy solver.  The Newton iteration is globalised by a
// backtracking line search on the nonlinear residual norm, which keeps the
// many sharp clamp diodes of the substrate circuits from making the plain
// iteration oscillate between states.
//
// The system assembled for the accepted line-search candidate is reused as
// the linearisation of the next Newton iteration (the candidate *is* the next
// iterate), so each iteration re-stamps the netlist exactly once per probe
// and never re-evaluates an already-computed residual.
func (e *Engine) solvePointScaled(xGuess, xPrev []float64, t, dt, srcScale float64) (*Solution, error) {
	if e.opts.DisableReuse {
		return e.solvePointScaledNoReuse(xGuess, xPrev, t, dt, srcScale)
	}
	x := make([]float64, e.size)
	if xGuess != nil {
		copy(x, xGuess)
	}
	maxIter := e.opts.MaxNewtonIterations
	if !e.nonlinear {
		// A single linear solve suffices, but run two iterations so the
		// convergence check below still validates the result.
		maxIter = 2
	}
	cur, probe := e.sys[0], e.sys[1]
	haveSystem := false
	currentRes := math.Inf(1)
	if e.nonlinear {
		e.assembleInto(cur, x, xPrev, t, dt, srcScale)
		haveSystem = true
		currentRes = e.residualOf(cur, x)
	}
	for iter := 1; iter <= maxIter; iter++ {
		if err := e.checkInterrupt(); err != nil {
			return nil, err
		}
		if !haveSystem {
			e.assembleInto(cur, x, xPrev, t, dt, srcScale)
		}
		haveSystem = false
		lu, err := e.factorize(&cur.a)
		if err == nil {
			err = lu.SolveRefinedTo(e.xFull, &cur.a, cur.rhs, 2)
		}
		if err != nil {
			return nil, fmt.Errorf("mna: linear solve failed at t=%g iter=%d: %w", t, iter, err)
		}
		xFull := e.xFull
		for i := range xFull {
			if math.IsNaN(xFull[i]) || math.IsInf(xFull[i], 0) {
				return nil, fmt.Errorf("mna: solution diverged at t=%g iter=%d", t, iter)
			}
		}

		// Choose the step length.  Linear circuits always take the full
		// step; nonlinear ones backtrack until the residual improves.
		alpha := e.opts.Damping
		xNew := xFull
		if e.nonlinear {
			tryCandidate := func() float64 {
				for i := range e.cand {
					e.cand[i] = x[i] + alpha*(xFull[i]-x[i])
				}
				e.assembleInto(probe, e.cand, xPrev, t, dt, srcScale)
				return e.residualOf(probe, e.cand)
			}
			accepted := false
			for try := 0; try < 8; try++ {
				res := tryCandidate()
				if res <= currentRes*(1-1e-4) || res <= e.opts.AbsTol {
					currentRes = res
					accepted = true
					break
				}
				alpha /= 2
			}
			if !accepted {
				// No improving step exists along the Newton direction; take
				// the smallest trial step so the iteration can still change
				// the active clamp set, and re-linearise from there.
				currentRes = tryCandidate()
			}
			// The accepted candidate's system is the linearisation at the
			// next iterate: keep it for the next Newton iteration.
			xNew = e.cand
			cur, probe = probe, cur
			haveSystem = true
		}

		converged := true
		maxDx := 0.0
		for i := range xNew {
			if d := math.Abs(xNew[i] - x[i]); d > e.opts.AbsTol+e.opts.RelTol*math.Abs(xNew[i]) {
				converged = false
				if d > maxDx {
					maxDx = d
				}
			}
		}
		if e.opts.Trace != nil {
			e.opts.Trace("mna: t=%g iter=%d alpha=%.4g residual=%.4g maxDx=%.4g", t, iter, alpha, currentRes, maxDx)
		}
		copy(x, xNew)
		if e.nonlinear && iter > 1 && currentRes <= e.opts.ResidualTol {
			return &Solution{Time: t, X: x, NewtonIterations: iter}, nil
		}
		if converged && (iter > 1 || !e.nonlinear) {
			return &Solution{Time: t, X: x, NewtonIterations: iter}, nil
		}
	}
	return nil, fmt.Errorf("%w at t=%g after %d iterations", ErrNoConvergence, t, maxIter)
}

// assembleFresh is the reference assembly path: a new builder and freshly
// allocated system per call, exactly the sparsity pattern stamped at this
// iterate.
func (e *Engine) assembleFresh(x, xPrev []float64, t, dt, srcScale float64) (*numeric.CSC, []float64) {
	builder := numeric.NewSparseBuilder(e.size)
	rhs := make([]float64, e.size)
	e.stamp(builder, rhs, x, xPrev, t, dt, srcScale)
	return builder.Compile(), rhs
}

// solvePointScaledNoReuse is the reference Newton loop used when
// Options.DisableReuse is set: every assembly is from scratch and every
// factorization is a full symbolic+numeric one.
func (e *Engine) solvePointScaledNoReuse(xGuess, xPrev []float64, t, dt, srcScale float64) (*Solution, error) {
	x := make([]float64, e.size)
	if xGuess != nil {
		copy(x, xGuess)
	}
	maxIter := e.opts.MaxNewtonIterations
	if !e.nonlinear {
		maxIter = 2
	}
	residualAt := func(at []float64) float64 {
		a, b := e.assembleFresh(at, xPrev, t, dt, srcScale)
		ax := a.MulVec(at)
		return numeric.Norm2(numeric.Sub(ax, b))
	}
	currentRes := math.Inf(1)
	if e.nonlinear {
		currentRes = residualAt(x)
	}
	for iter := 1; iter <= maxIter; iter++ {
		if err := e.checkInterrupt(); err != nil {
			return nil, err
		}
		a, b := e.assembleFresh(x, xPrev, t, dt, srcScale)
		lu, err := numeric.FactorizeSparse(a)
		if err == nil {
			e.stats.Factorizations++
		}
		var xFull []float64
		if err == nil {
			xFull, err = lu.SolveRefined(a, b, 2)
		}
		if err != nil {
			return nil, fmt.Errorf("mna: linear solve failed at t=%g iter=%d: %w", t, iter, err)
		}
		for i := range xFull {
			if math.IsNaN(xFull[i]) || math.IsInf(xFull[i], 0) {
				return nil, fmt.Errorf("mna: solution diverged at t=%g iter=%d", t, iter)
			}
		}
		alpha := e.opts.Damping
		xNew := xFull
		if e.nonlinear {
			cand := make([]float64, e.size)
			tryCandidate := func() float64 {
				for i := range cand {
					cand[i] = x[i] + alpha*(xFull[i]-x[i])
				}
				return residualAt(cand)
			}
			accepted := false
			for try := 0; try < 8; try++ {
				res := tryCandidate()
				if res <= currentRes*(1-1e-4) || res <= e.opts.AbsTol {
					currentRes = res
					accepted = true
					break
				}
				alpha /= 2
			}
			if !accepted {
				currentRes = tryCandidate()
			}
			xNew = cand
		}
		converged := true
		for i := range xNew {
			if d := math.Abs(xNew[i] - x[i]); d > e.opts.AbsTol+e.opts.RelTol*math.Abs(xNew[i]) {
				converged = false
			}
		}
		x = xNew
		if e.nonlinear && iter > 1 && currentRes <= e.opts.ResidualTol {
			return &Solution{Time: t, X: x, NewtonIterations: iter}, nil
		}
		if converged && (iter > 1 || !e.nonlinear) {
			return &Solution{Time: t, X: x, NewtonIterations: iter}, nil
		}
	}
	return nil, fmt.Errorf("%w at t=%g after %d iterations", ErrNoConvergence, t, maxIter)
}

// OperatingPoint computes the DC solution at time t (sources evaluated at t,
// capacitors open).
func (e *Engine) OperatingPoint(t float64) (*Solution, error) {
	return e.solvePoint(nil, nil, t, 0)
}

// OperatingPointWithGuess computes the DC solution at time t starting Newton
// iteration from the supplied guess (typically a previously solved nearby
// operating point).
func (e *Engine) OperatingPointWithGuess(t float64, guess []float64) (*Solution, error) {
	return e.solvePoint(guess, nil, t, 0)
}

// HomotopyResult is the outcome of a source-stepping operating-point solve.
type HomotopyResult struct {
	// Solution is the operating point at full source strength.
	Solution *Solution
	// Steps is the number of source-stepping levels used.
	Steps int
	// TotalNewtonIterations sums the Newton iterations over all levels; the
	// convergence-time model of internal/core uses it as a proxy for the
	// number of constraint-activation waves the analog circuit works
	// through while settling.
	TotalNewtonIterations int
	// Intermediate holds the operating point at every source level
	// (including the final one); the quasi-static trajectory analysis of
	// Section 6.5 reads the per-level node voltages from here.
	Intermediate []*Solution
	// Scales are the source-scale values of the intermediate solutions.
	Scales []float64
}

// OperatingPointHomotopy computes the DC operating point by source stepping:
// all independent sources are ramped from (1/steps) of their value up to full
// strength, each level warm-started from the previous one.  This mirrors the
// physical compute phase of the substrate, where Vflow ramps up and the
// clamp diodes engage progressively, and it makes the Newton solve robust for
// circuits with hundreds of piecewise clamps.  Every level solves the same
// topology, so all of them share the engine's cached symbolic factorisation.
func (e *Engine) OperatingPointHomotopy(t float64, steps int) (*HomotopyResult, error) {
	if steps < 1 {
		steps = 1
	}
	res := &HomotopyResult{Steps: steps}
	var guess []float64
	var lastErr error
	for k := 1; k <= steps; k++ {
		scale := float64(k) / float64(steps)
		sol, err := e.solvePointScaled(guess, nil, t, 0, scale)
		if err != nil {
			// Retry the level once with heavier damping before giving up.
			saved := e.opts.Damping
			e.opts.Damping = saved * 0.5
			sol, err = e.solvePointScaled(guess, nil, t, 0, scale)
			e.opts.Damping = saved
			if err != nil {
				lastErr = err
				return nil, fmt.Errorf("mna: homotopy failed at scale %.3f: %w", scale, lastErr)
			}
		}
		guess = sol.X
		res.Solution = sol
		res.Intermediate = append(res.Intermediate, sol)
		res.Scales = append(res.Scales, scale)
		res.TotalNewtonIterations += sol.NewtonIterations
	}
	return res, nil
}
