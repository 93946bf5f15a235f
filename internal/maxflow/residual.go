// Package maxflow implements the classical combinatorial max-flow algorithms
// the paper compares against: Goldberg-Tarjan push-relabel (the paper's CPU
// baseline), Dinic's blocking-flow algorithm, and Edmonds-Karp, together with
// minimum-cut extraction.  All algorithms operate on a shared residual-network
// representation and report results as graph.Flow so that they can be compared
// edge-by-edge with the analog substrate's solutions.
package maxflow

import (
	"context"
	"errors"
	"fmt"
	"math"

	"analogflow/internal/graph"
)

// Algorithm identifies one of the implemented solvers.
type Algorithm int

const (
	// PushRelabel is the Goldberg-Tarjan push-relabel algorithm with
	// highest-label selection, gap and global-relabelling heuristics — the
	// paper's CPU baseline in its large-graph configuration.
	PushRelabel Algorithm = iota
	// Dinic is Dinitz's blocking-flow algorithm.
	Dinic
	// EdmondsKarp is the BFS augmenting-path algorithm.
	EdmondsKarp
)

// String returns the conventional name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case PushRelabel:
		return "push-relabel"
	case Dinic:
		return "dinic"
	case EdmondsKarp:
		return "edmonds-karp"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ErrUnknownAlgorithm is returned by Solve for an unrecognised Algorithm.
var ErrUnknownAlgorithm = errors.New("maxflow: unknown algorithm")

// Solve runs the selected algorithm on g and returns the resulting flow.
func Solve(g *graph.Graph, alg Algorithm) (*graph.Flow, error) {
	return SolveContext(context.Background(), g, alg)
}

// SolveContext runs the selected algorithm with cooperative cancellation; see
// the per-algorithm Context variants for where the context is checked.
func SolveContext(ctx context.Context, g *graph.Graph, alg Algorithm) (*graph.Flow, error) {
	switch alg {
	case PushRelabel:
		return SolvePushRelabelContext(ctx, g)
	case Dinic:
		return SolveDinicContext(ctx, g)
	case EdmondsKarp:
		return SolveEdmondsKarpContext(ctx, g)
	default:
		return nil, ErrUnknownAlgorithm
	}
}

// arc is a directed arc in the residual network.  Original edges and their
// reverse (residual) arcs are stored in pairs: arc 2i is the forward copy of
// graph edge i and arc 2i+1 is its residual reverse.
type arc struct {
	to  int
	cap float64 // remaining residual capacity
}

// residual is a residual network with paired arcs and a flat (CSR-style)
// adjacency: adj[off[v]:off[v+1]] lists the arc indices out of v.  Within a
// vertex the arcs are ordered by descending index, the exact traversal order
// of the head-inserted linked list this layout replaced, so every algorithm
// visits arcs (and therefore routes flow) identically to the original
// representation while scanning contiguous memory.
type residual struct {
	n     int
	s, t  int
	arcs  []arc
	adj   []int32 // flat arc indices grouped by tail vertex
	off   []int   // len n+1; adjacency bounds per vertex
	gdeps *graph.Graph
	// pooled marks residuals drawn from residualPool (see pools.go); only
	// those are returned by release.
	pooled bool
}

// tail returns the tail vertex of arc a (the head of its paired reverse).
func (r *residual) tail(a int) int { return r.arcs[a^1].to }

// newResidual builds the residual network of g with freshly allocated
// arrays.  Network uses this constructor because it retains the residual
// indefinitely; one-shot solves go through newResidualPooled instead.
func newResidual(g *graph.Graph) *residual {
	r := &residual{}
	r.init(g)
	return r
}

// init (re)builds the residual network of g in place, reusing any backing
// arrays the receiver already holds.
func (r *residual) init(g *graph.Graph) {
	ne := g.NumEdges()
	n := g.NumVertices()
	r.n = n
	r.s = g.Source()
	r.t = g.Sink()
	r.gdeps = g
	r.arcs = growSlice(r.arcs, 2*ne)
	r.adj = growSlice(r.adj, 2*ne)
	r.off = growSlice(r.off, n+1)
	deg := getIntScratch(n)
	for v := range deg {
		deg[v] = 0
	}
	for i := 0; i < ne; i++ {
		e := g.Edge(i)
		r.arcs[2*i] = arc{to: e.To, cap: e.Capacity}
		r.arcs[2*i+1] = arc{to: e.From, cap: 0}
		deg[e.From]++
		deg[e.To]++
	}
	r.off[0] = 0
	for v := 0; v < n; v++ {
		r.off[v+1] = r.off[v] + deg[v]
	}
	// Fill each vertex's segment in descending arc order by scanning the arcs
	// from the highest index down.
	pos := deg // reuse the scratch: copy offsets over the spent degree counts
	copy(pos, r.off[:n])
	for a := 2*ne - 1; a >= 0; a-- {
		tail := r.tail(a)
		r.adj[pos[tail]] = int32(a)
		pos[tail]++
	}
	putIntScratch(deg)
}

// flow extracts the per-edge flow from the residual state: the flow on graph
// edge i equals the capacity accumulated on its reverse arc 2i+1.
func (r *residual) flow() *graph.Flow {
	f := graph.NewFlow(r.gdeps)
	for i := 0; i < r.gdeps.NumEdges(); i++ {
		f.Edge[i] = r.arcs[2*i+1].cap
	}
	f.RecomputeValue(r.gdeps)
	return f
}

// push moves delta units of flow along arc a (and back along its pair).
func (r *residual) push(a int, delta float64) {
	r.arcs[a].cap -= delta
	r.arcs[a^1].cap += delta
}

// maxArcCapacity returns the largest residual capacity, used for scaling
// epsilon tolerances on float capacities.
func (r *residual) maxArcCapacity() float64 {
	var m float64
	for _, a := range r.arcs {
		if a.cap > m {
			m = a.cap
		}
	}
	return m
}

// epsilonFor returns a tolerance used to treat tiny residual capacities as
// zero.  Capacities are integers (R-MAT, DIMACS), quantized voltage levels,
// or arbitrary reals (segmentation grids), so the tolerance is relative to
// the largest one: 1e-12 of it sits far below any capacity difference an
// instance means, and above the round-off flow arithmetic leaves on an arc.
func epsilonFor(c float64) float64 {
	if c == 0 {
		return 0
	}
	return c * 1e-12
}

// checkSolvable validates the instance before running any algorithm.
func checkSolvable(g *graph.Graph) error {
	if g == nil {
		return errors.New("maxflow: nil graph")
	}
	if err := g.Validate(); err != nil {
		return err
	}
	return nil
}

// MinCut computes a minimum s-t cut from an optimal flow by finding the set of
// vertices reachable from the source in the residual network.  The returned
// cut's capacity equals the max-flow value (max-flow/min-cut theorem), which
// the test-suite uses as a cross-check on every solver.
func MinCut(g *graph.Graph, f *graph.Flow) (*graph.Cut, error) {
	if err := checkSolvable(g); err != nil {
		return nil, err
	}
	if len(f.Edge) != g.NumEdges() {
		return nil, fmt.Errorf("maxflow: flow has %d edges, graph has %d", len(f.Edge), g.NumEdges())
	}
	eps := epsilonFor(g.MaxCapacity())
	// BFS over residual arcs: forward arcs with spare capacity, backward arcs
	// with positive flow.
	sourceSide := make([]bool, g.NumVertices())
	sourceSide[g.Source()] = true
	queue := []int{g.Source()}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, idx := range g.OutEdges(v) {
			e := g.Edge(idx)
			if !sourceSide[e.To] && e.Capacity-f.Edge[idx] > eps {
				sourceSide[e.To] = true
				queue = append(queue, e.To)
			}
		}
		for _, idx := range g.InEdges(v) {
			e := g.Edge(idx)
			if !sourceSide[e.From] && f.Edge[idx] > eps {
				sourceSide[e.From] = true
				queue = append(queue, e.From)
			}
		}
	}
	if sourceSide[g.Sink()] {
		return nil, errors.New("maxflow: flow is not maximum, sink reachable in residual network")
	}
	return graph.CutFromPartition(g, sourceSide)
}

// OptimalValue is a convenience that solves g with Dinic's algorithm (exact,
// strongly polynomial) and returns only the flow value.  The analog-substrate
// experiments use it as the reference for relative-error measurements.
func OptimalValue(g *graph.Graph) (float64, error) {
	return OptimalValueContext(context.Background(), g)
}

// OptimalValueContext is OptimalValue with cooperative cancellation.
func OptimalValueContext(ctx context.Context, g *graph.Graph) (float64, error) {
	f, err := SolveDinicContext(ctx, g)
	if err != nil {
		return 0, err
	}
	return f.Value, nil
}

// VerifyOptimal checks that f is a feasible flow for g whose value matches the
// capacity of some s-t cut within tol; by weak duality that certifies
// optimality.  It is used by tests and by the decomposition driver.
func VerifyOptimal(g *graph.Graph, f *graph.Flow, tol float64) error {
	rep := f.CheckFeasibility(g)
	if !rep.Feasible(tol) {
		return fmt.Errorf("maxflow: infeasible flow: %v", rep)
	}
	cut, err := MinCut(g, f)
	if err != nil {
		return err
	}
	if math.Abs(cut.Capacity-f.Value) > tol {
		return fmt.Errorf("maxflow: flow value %g does not match min-cut capacity %g", f.Value, cut.Capacity)
	}
	return nil
}
