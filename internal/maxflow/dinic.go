package maxflow

import (
	"context"

	"analogflow/internal/graph"
)

// SolveDinic computes a maximum flow with Dinitz's blocking-flow algorithm
// (O(V²E) in general, O(E√V) on unit-capacity networks).  It is the exact
// reference solver used to compute the "optimal solution" against which the
// paper's Figure 10 relative errors are measured.
func SolveDinic(g *graph.Graph) (*graph.Flow, error) {
	return SolveDinicContext(context.Background(), g)
}

// SolveDinicContext is SolveDinic with cooperative cancellation: the context
// is checked once per blocking-flow phase (there are at most O(V) phases), so
// a cancelled or expired context aborts the solve between phases and returns
// the context's error.
func SolveDinicContext(ctx context.Context, g *graph.Graph) (*graph.Flow, error) {
	if err := checkSolvable(g); err != nil {
		return nil, err
	}
	r := newResidual(g)
	defer r.release()
	if err := runDinic(ctx, r); err != nil {
		return nil, err
	}
	return r.flow(), nil
}

// runDinic augments the residual network to a maximum flow with Dinitz's
// algorithm.  It works from any feasible starting state, so it serves both
// the cold entry points above and the warm-start path of Network.  All
// per-phase scratch (level graph, current-arc cursors, BFS queue, DFS path)
// is pooled, so repeated solves allocate nothing once the pool is warm.
func runDinic(ctx context.Context, r *residual) error {
	eps := epsilonFor(r.maxArcCapacity())
	sc := getDinicScratch(r.n)
	defer putDinicScratch(sc)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !dinicBFS(r, sc, eps) {
			break
		}
		// Rewind the current-arc cursors: the level graph changed, so arcs
		// exhausted in the previous phase may be admissible again.  Within a
		// phase the cursors persist across augmentations, so each arc is
		// scanned at most once per phase.
		for v := 0; v < r.n; v++ {
			sc.iter[v] = int32(r.off[v])
		}
		dinicBlockingFlow(r, sc, eps)
	}
	return nil
}

const inf = 1e300

// dinicBFS builds the level graph; it returns false when the sink is no
// longer reachable, which terminates the algorithm.  The queue buffer lives
// in the pooled scratch so that the per-phase BFS allocates nothing.
func dinicBFS(r *residual, sc *dinicScratch, eps float64) bool {
	level := sc.level
	for i := range level {
		level[i] = -1
	}
	level[r.s] = 0
	queue := append(sc.queue[:0], int32(r.s))
	for qh := 0; qh < len(queue); qh++ {
		v := int(queue[qh])
		for p := r.off[v]; p < r.off[v+1]; p++ {
			a := r.adj[p]
			to := r.arcs[a].to
			if r.arcs[a].cap > eps && level[to] < 0 {
				level[to] = level[v] + 1
				queue = append(queue, int32(to))
			}
		}
	}
	sc.queue = queue[:0] // keep any grown capacity for the next phase
	return level[r.t] >= 0
}

// dinicBlockingFlow sends a blocking flow through the current level graph
// with an explicit-stack DFS: sc.path holds the arcs of the active s→v path
// and sc.iter the current-arc cursor of every vertex.  The recursive
// formulation this replaces needed one stack frame per path vertex and blew
// goroutine stacks once augmenting paths reached ~10^5 vertices; the
// iterative form is stack-safe at 10^6 and follows the exact same
// current-arc order, so it routes flow identically.
func dinicBlockingFlow(r *residual, sc *dinicScratch, eps float64) {
	path := sc.path[:0]
	v := r.s
	for {
		if v == r.t {
			// Augment: push the bottleneck along the path, then retreat to
			// the tail of the shallowest saturated arc and keep searching.
			bottleneck := inf
			for _, a := range path {
				if r.arcs[a].cap < bottleneck {
					bottleneck = r.arcs[a].cap
				}
			}
			trunc := len(path)
			for i, a := range path {
				r.push(int(a), bottleneck)
				if r.arcs[a].cap <= eps && i < trunc {
					trunc = i
				}
			}
			path = path[:trunc]
			if trunc == 0 {
				v = r.s
			} else {
				v = r.arcs[path[trunc-1]].to
			}
			continue
		}
		advanced := false
		end := int32(r.off[v+1])
		for p := sc.iter[v]; p < end; p++ {
			a := r.adj[p]
			to := r.arcs[a].to
			if r.arcs[a].cap > eps && sc.level[to] == sc.level[v]+1 {
				sc.iter[v] = p
				path = append(path, a)
				v = to
				advanced = true
				break
			}
		}
		if !advanced {
			// Dead end: prune v from the level graph so no later descent
			// re-enters it, and retreat one arc.
			sc.iter[v] = end
			sc.level[v] = -1
			if v == r.s {
				break
			}
			a := path[len(path)-1]
			path = path[:len(path)-1]
			v = r.tail(int(a))
		}
	}
	sc.path = path[:0]
}

// SolveEdmondsKarp computes a maximum flow by repeatedly augmenting along
// shortest (fewest-edge) residual paths.  It is the simplest exact solver in
// the package and serves as an independent cross-check of the other two in
// the property-based tests.
func SolveEdmondsKarp(g *graph.Graph) (*graph.Flow, error) {
	return SolveEdmondsKarpContext(context.Background(), g)
}

// SolveEdmondsKarpContext is SolveEdmondsKarp with cooperative cancellation,
// checked once per augmenting-path iteration.
func SolveEdmondsKarpContext(ctx context.Context, g *graph.Graph) (*graph.Flow, error) {
	if err := checkSolvable(g); err != nil {
		return nil, err
	}
	r := newResidual(g)
	defer r.release()
	if err := runEdmondsKarp(ctx, r); err != nil {
		return nil, err
	}
	return r.flow(), nil
}

// runEdmondsKarp augments the residual network to a maximum flow along
// shortest residual paths, from any feasible starting state.  The BFS
// parent/queue scratch is pooled and reused across iterations.
func runEdmondsKarp(ctx context.Context, r *residual) error {
	eps := epsilonFor(r.maxArcCapacity())
	sc := getEKScratch(r.n)
	defer putEKScratch(sc)
	parentArc := sc.parentArc

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// BFS for an augmenting path.
		for i := range parentArc {
			parentArc[i] = -1
		}
		parentArc[r.s] = -2
		queue := append(sc.queue[:0], int32(r.s))
		found := false
		for qh := 0; qh < len(queue) && !found; qh++ {
			v := int(queue[qh])
			for p := r.off[v]; p < r.off[v+1]; p++ {
				a := int(r.adj[p])
				to := r.arcs[a].to
				if r.arcs[a].cap > eps && parentArc[to] == -1 {
					parentArc[to] = int32(a)
					if to == r.t {
						found = true
						break
					}
					queue = append(queue, int32(to))
				}
			}
		}
		sc.queue = queue[:0]
		if !found {
			break
		}
		// Bottleneck along the path.
		bottleneck := inf
		for v := r.t; v != r.s; {
			a := int(parentArc[v])
			if r.arcs[a].cap < bottleneck {
				bottleneck = r.arcs[a].cap
			}
			v = r.arcs[a^1].to
		}
		// Augment.
		for v := r.t; v != r.s; {
			a := int(parentArc[v])
			r.push(a, bottleneck)
			v = r.arcs[a^1].to
		}
	}
	return nil
}
