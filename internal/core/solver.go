package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/quantize"
)

// Result is the outcome of one analog max-flow solve.
type Result struct {
	// Flow is the recovered flow on the original graph's edge indexing, in
	// the original capacity units.
	Flow *graph.Flow
	// FlowValue is the net flow out of the source as read from the
	// substrate, in capacity units.
	FlowValue float64
	// ExactValue is the true maximum flow of the instance (computed with
	// Dinic's algorithm for reference), and RelativeError the deviation of
	// the analog reading from it — the right-hand axis of Figure 10.
	ExactValue    float64
	RelativeError float64
	// EdgeVoltages are the steady-state voltages of the edge nodes x_i, in
	// volts (quantized domain).
	EdgeVoltages []float64
	// Quantization is the voltage-level assignment used.
	Quantization *quantize.Result
	// ConvergenceTime is the modelled (behavioural) or measured (circuit
	// transient) settling time of the substrate, in seconds.
	ConvergenceTime float64
	// ProgrammingTime is the crossbar configuration time (Section 3.1).
	ProgrammingTime float64
	// SubstratePower and Energy follow the Section 5.2 analytical model.
	SubstratePower float64
	Energy         float64
	// Waves is the number of settling waves the convergence model assumed
	// (circuit mode reports Newton iterations here).
	Waves int
	// HomotopyRetries counts the finer-homotopy re-attempts the circuit
	// solver made after detecting a poor (spurious-equilibrium) operating
	// point — see PoorConvergenceRetryThreshold.  The reported result is the
	// better of the attempts either way.
	HomotopyRetries int
	// PrunedVertices / PrunedEdges report the preprocessing reductions.
	PrunedVertices, PrunedEdges int
	// Mode records which solver produced the result.
	Mode Mode
	// CircuitDescription summarises the constructed netlist (circuit mode
	// and waveform runs only).
	CircuitDescription string
}

// Solver is a configured analog max-flow substrate.
type Solver struct {
	params Params
	rng    *rand.Rand
}

// NewSolver validates the parameters and returns a solver.
func NewSolver(p Params) (*Solver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Solver{params: p, rng: rand.New(rand.NewSource(p.Seed))}, nil
}

// Params returns the solver's parameters.
func (s *Solver) Params() Params { return s.params }

// Solve runs the configured pipeline on g.
func (s *Solver) Solve(g *graph.Graph) (*Result, error) {
	return s.SolveContext(context.Background(), g)
}

// SolveContext runs the configured pipeline on g with cooperative
// cancellation: the context is threaded into the Newton iteration of the
// circuit engine and into the augmenting-path loops of the exact reference
// solves, so a cancelled or expired context aborts a solve promptly and
// returns the context's error.
func (s *Solver) SolveContext(ctx context.Context, g *graph.Graph) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := s.CheckFits(g); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prep, err := s.prepare(g)
	if err != nil {
		return nil, err
	}
	return s.solvePrepared(ctx, prep)
}

// CheckFits verifies that g fits the configured crossbar array.
func (s *Solver) CheckFits(g *graph.Graph) error {
	if g.NumVertices() > s.params.Crossbar.Rows || g.NumVertices() > s.params.Crossbar.Cols {
		return fmt.Errorf("core: graph with %d vertices exceeds the %dx%d crossbar",
			g.NumVertices(), s.params.Crossbar.Rows, s.params.Crossbar.Cols)
	}
	return nil
}

// solvePrepared dispatches an already-preprocessed instance to the
// mode-specific back half.
func (s *Solver) solvePrepared(ctx context.Context, prep *Prepared) (*Result, error) {
	switch s.params.Mode {
	case ModeCircuit:
		return s.solveCircuitPrepared(ctx, prep)
	default:
		return s.solveBehavioralPrepared(ctx, prep)
	}
}

// Prepared is the common front half of both pipelines, exported so that the
// unified solve layer (internal/solve) can compute it once per problem and
// share it across backends and across repeated solves of a cached instance.
//
// The original graph is first reduced to its s-t core (optional), then
// quantized onto the voltage levels, and finally reduced again because
// capacities below one quantization step map to level 0 and disappear from
// the substrate.  The bookkeeping needed to map flows on the final "work"
// graph back to the original indexing is kept alongside.
type Prepared struct {
	original *graph.Graph
	pr1      *graph.PruneResult // original -> core (nil when pruning disabled)
	core     *graph.Graph       // s-t core of the original
	qres     *quantize.Result   // quantization of core (per core edge)
	pr2      *graph.PruneResult // quantized core -> work
	work     *graph.Graph       // the graph actually mapped onto the substrate
	clamps   []float64          // clamp voltage per work edge

	// exact is the instance's exact-value memo: the owning problem's when
	// the solve layer built the bundle, a private one otherwise.
	exact *ExactMemo
}

// Original returns the graph the instance was prepared from.
func (p *Prepared) Original() *graph.Graph { return p.original }

// Core returns the s-t core of the original graph (the original itself when
// pruning was disabled).
func (p *Prepared) Core() *graph.Graph { return p.core }

// Work returns the graph actually mapped onto the substrate, or nil when the
// instance reduced to nothing.
func (p *Prepared) Work() *graph.Graph { return p.work }

// Quantization returns the voltage-level assignment of the core graph, or
// nil when the instance reduced to nothing before quantization.
func (p *Prepared) Quantization() *quantize.Result { return p.qres }

// Empty reports whether nothing can be mapped onto the substrate (max-flow 0
// after preprocessing).
func (p *Prepared) Empty() bool { return p == nil || p.work == nil || p.work.NumEdges() == 0 }

// ExactValue returns the exact maximum flow of the instance from its memo
// (see ExactMemo), computing it on first use.
func (p *Prepared) ExactValue(ctx context.Context) (float64, error) {
	return p.exact.Value(ctx, p.core)
}

// ExactMemo memoises one instance's exact maximum flow: a Dinic solve of its
// s-t core, run at most once, or a value seeded by a caller that computed it
// anyway.  The zero value is empty and ready to use.  A cancelled
// computation is not memoised, so a later call with a live context retries.
//
// internal/solve keeps one memo per problem and hands it to the Prepared
// bundle it builds, so the CPU backends, the analog finalize step and an
// updatable session's warm reference network all read and fill one value.
type ExactMemo struct {
	mu    sync.Mutex
	done  bool
	value float64
}

// Value returns the memoised exact value, computing it with Dinic on core
// when the memo is empty.  core must be the instance's s-t core (the graph
// itself when pruning is off), which has the same max-flow value as the
// original by construction; every call passes the same graph.
func (m *ExactMemo) Value(ctx context.Context, core *graph.Graph) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return m.value, nil
	}
	v, err := maxflow.OptimalValueContext(ctx, core)
	if err != nil {
		return 0, err
	}
	m.value, m.done = v, true
	return v, nil
}

// Seed records an exact value the caller already holds: a Dinic solve of
// the same core, bit-identical to what Value would compute.  The first value
// recorded wins; later seeds are ignored.
func (m *ExactMemo) Seed(v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done {
		m.value, m.done = v, true
	}
}

// Done reports whether the memo already holds a value.
func (m *ExactMemo) Done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.done
}

// StructurallyCompatible reports whether q describes the same instance
// structure as p — same original graph shape, same prune mappings at both
// stages, same work graph shape — differing at most in capacity-derived
// values (clamp levels, quantization scale).  It is the gate the incremental
// re-solve pipeline checks before absorbing a capacity-only update into warm
// state: when it holds, the circuit topology and the residual-network
// structure built from p remain valid for q.
func (p *Prepared) StructurallyCompatible(q *Prepared) bool {
	if p == nil || q == nil {
		return false
	}
	if !sameGraphShape(p.original, q.original) || !sameGraphShape(p.core, q.core) {
		return false
	}
	if !graph.SamePruneEdges(p.pr1, q.pr1) || !graph.SamePruneEdges(p.pr2, q.pr2) {
		return false
	}
	if (p.work == nil) != (q.work == nil) {
		return false
	}
	if p.work != nil && !sameGraphShape(p.work, q.work) {
		return false
	}
	return len(p.clamps) == len(q.clamps)
}

// StructurallyExtends reports whether q is a structural extension of p: the
// same instance with zero or more edges appended at every stage.  The original,
// core and work graphs of q must each extend (graph.Extends) their counterpart
// in p, and both prune mappings must keep p's kept-edge list as a prefix with
// an identical vertex mapping — appended edges may only append to the pruned
// graphs, never resurrect or reorder previously pruned structure.  When it
// holds, value-level warm state built from p (a residual network, a Newton
// operating point on the shared vertex set) remains meaningful for q after a
// structural splice; when an insertion changes reachability enough to break
// the prefix property, the extension is not absorbable and callers fall back
// to an honest cold rebuild.
func (p *Prepared) StructurallyExtends(q *Prepared) bool {
	if p == nil || q == nil || p.Empty() || q.Empty() {
		return false
	}
	if !graph.Extends(p.original, q.original) || !graph.Extends(p.core, q.core) {
		return false
	}
	if !graph.PruneExtends(p.pr1, q.pr1) || !graph.PruneExtends(p.pr2, q.pr2) {
		return false
	}
	if !graph.Extends(p.work, q.work) {
		return false
	}
	return len(p.clamps) <= len(q.clamps)
}

// sameGraphShape reports whether two graphs have identical topology
// (capacities excluded).
func sameGraphShape(a, b *graph.Graph) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() ||
		a.Source() != b.Source() || a.Sink() != b.Sink() {
		return false
	}
	for i, n := 0, a.NumEdges(); i < n; i++ {
		ea, eb := a.Edge(i), b.Edge(i)
		if ea.From != eb.From || ea.To != eb.To {
			return false
		}
	}
	return true
}

// HeapBytes estimates the heap the bundle holds: each distinct graph once
// (the original, its s-t core and the work graph), and 8 bytes per entry of
// both prune passes' maps, the quantization arrays and the clamp levels.
func (p *Prepared) HeapBytes() int64 {
	b := p.original.HeapBytes()
	if p.core != p.original {
		b += p.core.HeapBytes()
	}
	if p.work != nil && p.work != p.core {
		b += p.work.HeapBytes()
	}
	n := len(p.clamps)
	for _, pr := range []*graph.PruneResult{p.pr1, p.pr2} {
		if pr != nil {
			n += len(pr.EdgeMap) + len(pr.VertexMap)
		}
	}
	if q := p.qres; q != nil {
		n += len(q.EdgeVoltages) + len(q.EdgeLevels) + len(q.UsedLevels)
	}
	return b + 8*int64(n)
}

// removedVertices / removedEdges aggregate both pruning passes.
func (p *Prepared) removedVertices() int {
	n := 0
	if p.pr1 != nil {
		n += p.pr1.RemovedVertices
	}
	if p.pr2 != nil {
		n += p.pr2.RemovedVertices
	}
	return n
}

func (p *Prepared) removedEdges() int {
	n := 0
	if p.pr1 != nil {
		n += p.pr1.RemovedEdges
	}
	if p.pr2 != nil {
		n += p.pr2.RemovedEdges
	}
	return n
}

// clampOf returns the clamp voltage of work edge i.
func (p *Prepared) clampOf(i int) float64 { return p.clamps[i] }

// expandFlow maps a flow on the work graph back to the original indexing.
func (p *Prepared) expandFlow(f *graph.Flow) *graph.Flow {
	onCore := f
	if p.pr2 != nil {
		onCore = p.pr2.ExpandFlow(p.core, f)
	}
	if p.pr1 != nil {
		return p.pr1.ExpandFlow(p.original, onCore)
	}
	out := onCore.Clone()
	out.RecomputeValue(p.original)
	return out
}

// prepare runs pruning and quantization with the solver's parameters.
func (s *Solver) prepare(g *graph.Graph) (*Prepared, error) {
	return prepareWith(g, nil, nil, s.params.PruneGraph, s.params.Quantization)
}

// Prepare runs the preprocessing front half (prune to the s-t core, quantize,
// fused re-prune) under the given parameters without solving.  The result is
// reusable across solver modes and across repeated solves: only PruneGraph
// and Quantization influence it.  It carries a private exact-value memo.
func Prepare(g *graph.Graph, p Params) (*Prepared, error) {
	return PrepareWithCore(g, nil, nil, p)
}

// PrepareWithCore is Prepare with an externally computed s-t-core prune of g
// (from graph.PruneToSTCore) and the instance's exact-value memo.  Passing
// them lets a caller that already reduced the instance — the staged pipeline
// of internal/solve — share both, so the prune and the reference solve each
// run once per instance.  pr1 is ignored when the parameters disable
// pruning, and computed on demand when they enable it and pr1 is nil; a nil
// exact gives the bundle a private memo.  The graph is valid by
// construction (see solve.NewProblem), so only nil and the zero value
// graph.Graph{} are refused, the latter with Validate's own error.
func PrepareWithCore(g *graph.Graph, pr1 *graph.PruneResult, exact *ExactMemo, p Params) (*Prepared, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if g.NumVertices() < 2 {
		return nil, g.Validate()
	}
	if !p.PruneGraph {
		pr1 = nil
	} else if pr1 == nil {
		pr1 = graph.PruneToSTCore(g)
	}
	return prepareWith(g, pr1, exact, p.PruneGraph, p.Quantization)
}

// prepareWith runs pruning (reusing pr1 when supplied) and quantization.
func prepareWith(g *graph.Graph, pr1 *graph.PruneResult, exact *ExactMemo, prune bool, scheme quantize.Scheme) (*Prepared, error) {
	if exact == nil {
		exact = new(ExactMemo)
	}
	p := &Prepared{original: g, exact: exact}
	coreGraph := g
	if prune {
		if pr1 == nil {
			pr1 = graph.PruneToSTCore(g)
		}
		p.pr1 = pr1
		coreGraph = p.pr1.Graph
	}
	p.core = coreGraph
	if coreGraph.NumEdges() == 0 {
		return p, nil
	}
	qres, err := quantize.Quantize(coreGraph, scheme)
	if err != nil {
		return nil, err
	}
	p.qres = qres
	// Drop edges that quantized to level 0 (and whatever becomes dead
	// because of it); the fused prune applies the quantized capacities
	// without materialising the intermediate graph.
	p.pr2, err = graph.PruneToSTCoreWithCapacities(coreGraph, qres.QuantizedCapacities())
	if err != nil {
		return nil, err
	}
	p.work = p.pr2.Graph
	p.clamps = make([]float64, p.work.NumEdges())
	for i := range p.clamps {
		p.clamps[i] = qres.EdgeVoltages[p.pr2.EdgeMap[i]]
	}
	return p, nil
}

// finalize fills the metrics common to both modes and maps the work-domain
// flow back onto the original graph.
func (s *Solver) finalize(ctx context.Context, res *Result, prep *Prepared, workFlow *graph.Flow) error {
	res.PrunedVertices = prep.removedVertices()
	res.PrunedEdges = prep.removedEdges()
	res.Flow = prep.expandFlow(workFlow)
	// The s-t core has the same max-flow value as the original instance by
	// construction (pruning only removes structures that cannot carry s-t
	// flow), so the reference solve runs on the smaller graph — and only
	// once per memo, however many solves and bundles share it.
	exact, err := prep.ExactValue(ctx)
	if err != nil {
		return err
	}
	res.ExactValue = exact
	res.RelativeError = graph.RelativeError(res.FlowValue, exact)
	res.ProgrammingTime = float64(prep.work.NumVertices()) * s.params.Crossbar.CycleTime
	res.SubstratePower = s.params.Power.SubstratePower(prep.work.NumVertices(), prep.work.NumEdges())
	res.Energy = s.params.Power.Energy(prep.work.NumVertices(), prep.work.NumEdges(), res.ConvergenceTime)
	return nil
}

// emptyResult handles instances with no usable s-t structure (max-flow 0).
func (s *Solver) emptyResult(prep *Prepared, mode Mode) *Result {
	res := &Result{
		Flow:      graph.NewFlow(prep.original),
		FlowValue: 0,
		Mode:      mode,
	}
	res.PrunedVertices = prep.removedVertices()
	res.PrunedEdges = prep.removedEdges()
	return res
}

// convergenceTimeModel implements the settling-time model used for the
// Figure 10 reproduction: the substrate converges through a sequence of
// constraint-activation "waves" (roughly, a capacity clamp engaging and the
// conservation widgets re-balancing around it); each wave settles with the
// op-amp-dominated time constant A/(2*pi*GBW), plus the RC settling of the
// parasitic capacitance through the widget resistance.
func (s *Solver) convergenceTimeModel(pruned *graph.Graph, saturatedEdges int) (float64, int) {
	// pruned is the work graph, already an s-t core fixpoint.
	depth := graph.LongestAugmentingDepthPruned(pruned)
	if depth < 1 {
		depth = 1
	}
	waves := depth + int(math.Ceil(math.Log2(float64(saturatedEdges+2))))
	return float64(waves) * s.params.SettleTimePerWave(), waves
}

// vflowVoltage picks the objective drive level: the Table 1 multiplier of the
// supply, automatically raised for deep graphs so that the drive saturates
// the longest chain of conservation widgets (the voltage-divider attenuation
// along a chain of k widgets is roughly 1/(2k+1)).
func (s *Solver) vflowVoltage(pruned *graph.Graph) float64 {
	depth := graph.LongestAugmentingDepthPruned(pruned)
	base := s.params.VflowMultiplier * s.params.Quantization.Vdd
	needed := float64(2*depth+4) * s.params.Quantization.Vdd
	if needed > base {
		return needed
	}
	return base
}
