package maxflow

import (
	"context"
	"errors"
	"fmt"
	"math"

	"analogflow/internal/graph"
)

// Network is a warm-startable residual network: it keeps the residual state
// of the last solve so that a capacity-only update can be absorbed
// incrementally instead of re-solving from scratch.
//
//   - Capacity increases simply widen the forward residual arc; the old flow
//     stays feasible and the next Solve only re-augments.
//   - Capacity decreases below the current flow drain the overflow along
//     reverse (flow-carrying) paths first — cancelling existing s-t flow or
//     cycle flow through the edge — and then the next Solve re-augments to
//     recover whatever the rest of the network can still carry.
//
// Both moves preserve the residual invariants (forward + reverse arc capacity
// equals the edge capacity; the encoded flow is feasible), so any of the three
// algorithms can pick the state up.
//
// A Network is not safe for concurrent use; callers serialise access.
type Network struct {
	g *graph.Graph
	r *residual
}

// ErrCannotDrain is returned when an overflow cannot be drained, which only
// happens when the residual state and the graph disagree structurally.
var ErrCannotDrain = errors.New("maxflow: cannot drain capacity overflow")

// NewNetwork builds a zero-flow residual network for g.
func NewNetwork(g *graph.Graph) (*Network, error) {
	if err := checkSolvable(g); err != nil {
		return nil, err
	}
	return &Network{g: g, r: newResidual(g)}, nil
}

// Graph returns the graph whose capacities the network currently reflects.
func (n *Network) Graph() *graph.Graph { return n.g }

// Flow returns the flow currently encoded in the residual state (feasible by
// construction; maximum after a completed Solve).
func (n *Network) Flow() *graph.Flow { return n.r.flow() }

// Solve augments the current state to a maximum flow with the selected
// algorithm and returns the resulting flow.  Starting from a fresh network
// this is exactly the cold solve of SolveContext; starting from a previously
// solved state after UpdateTo it performs only the incremental work.
//
// On error the network must be discarded: a cancelled Dinic or Edmonds-Karp
// run stops between augmentations (the state is still a feasible flow), but
// a cancelled push-relabel run stops mid-discharge and leaves a preflow with
// unreturned excess — not a flow — so callers uniformly treat a failed Solve
// as poisoning the warm state.
func (n *Network) Solve(ctx context.Context, alg Algorithm) (*graph.Flow, error) {
	var err error
	switch alg {
	case PushRelabel:
		err = runPushRelabel(ctx, n.r)
	case Dinic:
		err = runDinic(ctx, n.r)
	case EdmondsKarp:
		err = runEdmondsKarp(ctx, n.r)
	default:
		err = ErrUnknownAlgorithm
	}
	if err != nil {
		return nil, err
	}
	return n.r.flow(), nil
}

// ErrNotCertified is returned by Certify when the residual state does not
// prove the claimed value optimal; the wrapped message names the failed
// check.
var ErrNotCertified = errors.New("maxflow: flow not certified optimal")

// Certify checks, in O(V+E) and without a second max-flow solve, that the
// network's residual state proves value to be the maximum flow within tol.
// value is the value of the flow the state encodes (the Value of the flow
// the last Solve returned).  Three checks must pass:
//
//   - every arc's residual capacity is non-negative, so each edge's flow
//     lies within [0, capacity];
//   - every vertex other than the terminals conserves flow within tol;
//   - a BFS from the source over arcs with residual capacity above the
//     kernels' epsilon does not reach the sink, and the capacity of the
//     edges leaving the reached set equals value within tol.
//
// The first two make the encoded flow feasible, so value is at most the
// maximum; by weak duality the cut's capacity is at least the maximum.  A
// passing certificate therefore pins the maximum to value, up to these
// tolerances.  A failure wraps ErrNotCertified.
func (n *Network) Certify(value, tol float64) error {
	r := n.r
	sc := getCertScratch(r.n)
	defer putCertScratch(sc)
	balance := sc.balance
	for v := range balance {
		balance[v] = 0
	}
	for i := 0; i < len(r.arcs)/2; i++ {
		fwd, rev := r.arcs[2*i].cap, r.arcs[2*i+1].cap
		if fwd < 0 || rev < 0 {
			return fmt.Errorf("%w: edge %d has negative residual capacity (%g forward, %g reverse)", ErrNotCertified, i, fwd, rev)
		}
		balance[r.arcs[2*i].to] += rev
		balance[r.arcs[2*i+1].to] -= rev
	}
	for v, b := range balance {
		if v != r.s && v != r.t && math.Abs(b) > tol {
			return fmt.Errorf("%w: vertex %d violates conservation by %g", ErrNotCertified, v, b)
		}
	}
	eps := epsilonFor(r.maxArcCapacity())
	seen := sc.seen
	for v := range seen {
		seen[v] = false
	}
	seen[r.s] = true
	queue := append(sc.queue[:0], int32(r.s))
	for qh := 0; qh < len(queue); qh++ {
		v := int(queue[qh])
		for p := r.off[v]; p < r.off[v+1]; p++ {
			a := r.adj[p]
			if to := r.arcs[a].to; !seen[to] && r.arcs[a].cap > eps {
				seen[to] = true
				queue = append(queue, int32(to))
			}
		}
	}
	sc.queue = queue[:0]
	if seen[r.t] {
		return fmt.Errorf("%w: the sink is reachable in the residual network", ErrNotCertified)
	}
	var cut float64
	for i := 0; i < n.g.NumEdges(); i++ {
		if e := n.g.Edge(i); seen[e.From] && !seen[e.To] {
			cut += e.Capacity
		}
	}
	if math.Abs(cut-value) > tol {
		return fmt.Errorf("%w: value %g does not match the residual cut capacity %g", ErrNotCertified, value, cut)
	}
	return nil
}

// UpdateTo adjusts the residual state so that it reflects g2's capacities.
// g2 must be structurally identical to the network's graph (same vertices,
// terminals and edge list); only capacities may differ.  After UpdateTo the
// encoded flow is feasible for g2 but not necessarily maximum — call Solve to
// re-augment.
func (n *Network) UpdateTo(g2 *graph.Graph) error {
	r := n.r
	if g2 == nil {
		return fmt.Errorf("maxflow: UpdateTo(nil)")
	}
	if g2.NumVertices() != r.n || g2.NumEdges() != len(r.arcs)/2 ||
		g2.Source() != r.s || g2.Sink() != r.t {
		return fmt.Errorf("maxflow: updated graph %v is structurally different from the network's %v", g2, n.g)
	}
	ne := g2.NumEdges()
	for i := 0; i < ne; i++ {
		e := g2.Edge(i)
		if r.arcs[2*i].to != e.To || r.arcs[2*i+1].to != e.From {
			return fmt.Errorf("maxflow: updated graph edge %d (%d->%d) does not match the network's edge list", i, e.From, e.To)
		}
	}
	eps := epsilonFor(r.maxArcCapacity())
	// Pass 1: apply every capacity change that keeps the current flow
	// feasible; collect the edges whose flow now overflows the new capacity.
	var overflow []int
	for i := 0; i < ne; i++ {
		oldCap := r.arcs[2*i].cap + r.arcs[2*i+1].cap
		newCap := g2.Edge(i).Capacity
		if oldCap == newCap {
			continue
		}
		forward := r.arcs[2*i].cap + (newCap - oldCap)
		if forward >= 0 {
			r.arcs[2*i].cap = forward
		} else {
			overflow = append(overflow, i)
		}
	}
	// Pass 2: drain the overflowing edges.
	for _, i := range overflow {
		if err := n.drain(i, g2.Edge(i).Capacity, eps); err != nil {
			return err
		}
	}
	n.g = g2
	return nil
}

// StructureTo adjusts the residual state to reflect g2, which must be a
// structural extension of the network's graph (graph.Extends: same vertices
// and terminals, existing edge list as an endpoint-identical prefix).  The
// pre-existing edges keep their flow — capacity deltas widen or drain exactly
// like UpdateTo, including parked edges draining to capacity 0 — and every
// appended edge gets a fresh zero-flow arc pair spliced into a rebuilt
// adjacency.  The encoded flow stays feasible for g2 (new edges carry no
// flow), so a following Solve performs only the incremental augmentation.
// This is how the CPU backends absorb StructuralUpdate insertions within
// their slack budget instead of rebuilding the residual network.  On error
// the network must be discarded, like a failed UpdateTo.
func (n *Network) StructureTo(g2 *graph.Graph) error {
	if g2 == nil {
		return fmt.Errorf("maxflow: StructureTo(nil)")
	}
	if !graph.Extends(n.g, g2) {
		return fmt.Errorf("maxflow: graph %v is not a structural extension of the network's %v", g2, n.g)
	}
	if g2.NumEdges() == n.g.NumEdges() {
		return n.UpdateTo(g2)
	}
	r := n.r
	oldNE := len(r.arcs) / 2
	ne := g2.NumEdges()
	for i := oldNE; i < ne; i++ {
		e := g2.Edge(i)
		r.arcs = append(r.arcs, arc{to: e.To, cap: e.Capacity}, arc{to: e.From, cap: 0})
	}
	// Rebuild the CSR adjacency with the same descending-arc-order fill as
	// newResidual, so traversal order — and hence flow routing — matches a
	// residual network built fresh for g2.
	deg := make([]int, r.n)
	for i := 0; i < ne; i++ {
		e := g2.Edge(i)
		deg[e.From]++
		deg[e.To]++
	}
	r.adj = make([]int32, 2*ne)
	for v := 0; v < r.n; v++ {
		r.off[v+1] = r.off[v] + deg[v]
	}
	pos := make([]int, r.n)
	copy(pos, r.off)
	for a := 2*ne - 1; a >= 0; a-- {
		tail := r.tail(a)
		r.adj[pos[tail]] = int32(a)
		pos[tail]++
	}
	r.gdeps = g2
	n.g = g2
	// Capacity deltas on the pre-existing edges follow the UpdateTo
	// discipline: widen in place first, then drain the overflowing edges.
	eps := epsilonFor(r.maxArcCapacity())
	var overflow []int
	for i := 0; i < oldNE; i++ {
		oldCap := r.arcs[2*i].cap + r.arcs[2*i+1].cap
		newCap := g2.Edge(i).Capacity
		if oldCap == newCap {
			continue
		}
		forward := r.arcs[2*i].cap + (newCap - oldCap)
		if forward >= 0 {
			r.arcs[2*i].cap = forward
		} else {
			overflow = append(overflow, i)
		}
	}
	for _, i := range overflow {
		if err := n.drain(i, g2.Edge(i).Capacity, eps); err != nil {
			return err
		}
	}
	return nil
}

// drain reduces the flow on edge i to newCap by cancelling the excess along
// reverse (flow-carrying) paths.  With e = (u, v) carrying flow f > newCap,
// the d = f - newCap excess units must stop traversing e; every unit of them
// belongs, by flow decomposition, either to an s-t path through e or to a
// cycle through e.  Cancelling a path unit means walking flow-carrying arcs
// backwards from u to s and from v's downstream side back from t — which is a
// single u ⇝ v walk over reverse arcs once the implicit t→s return arc of the
// circulation formulation is added.  Cancelling a cycle unit is a direct
// u ⇝ v walk over reverse arcs.  drain therefore repeatedly finds a u ⇝ v
// path over reverse arcs, where reaching s additionally offers a free
// teleport to t (the implicit return arc), and pushes the bottleneck along
// it, until the whole excess is gone.
func (n *Network) drain(i int, newCap, eps float64) error {
	r := n.r
	// Earlier drains may already have reduced this edge's flow.
	f := r.arcs[2*i+1].cap
	if f <= newCap {
		r.arcs[2*i].cap = newCap - f
		return nil
	}
	d := f - newCap
	r.arcs[2*i].cap = 0
	r.arcs[2*i+1].cap = newCap
	u := r.tail(2 * i)
	v := r.arcs[2*i].to

	parent := make([]int, r.n) // arc used to reach the vertex, -1 unseen, -2 root, -3 teleport
	queue := make([]int, 0, r.n)
	for d > eps {
		for j := range parent {
			parent[j] = -1
		}
		parent[u] = -2
		queue = append(queue[:0], u)
		found := false
		// label marks a newly reached vertex; reaching the source additionally
		// unlocks the implicit t→s return arc of the circulation formulation,
		// so the cancellation can continue from the sink.
		var label func(x, via int)
		label = func(x, via int) {
			parent[x] = via
			if x == v {
				found = true
				return
			}
			queue = append(queue, x)
			if x == r.s && parent[r.t] == -1 {
				label(r.t, -3)
			}
		}
		if u == r.s && parent[r.t] == -1 {
			label(r.t, -3)
		}
		for qh := 0; qh < len(queue) && !found; qh++ {
			x := queue[qh]
			for p := r.off[x]; p < r.off[x+1]; p++ {
				a := int(r.adj[p])
				if a&1 == 0 {
					continue // reverse (flow-carrying) arcs only
				}
				to := r.arcs[a].to
				if r.arcs[a].cap <= eps || parent[to] != -1 {
					continue
				}
				label(to, a)
				if found {
					break
				}
			}
		}
		if !found {
			return fmt.Errorf("%w: edge %d still carries %g above its new capacity", ErrCannotDrain, i, d)
		}
		// Bottleneck over the real arcs of the path (the teleport is free).
		bottleneck := d
		for x := v; x != u; {
			a := parent[x]
			if a == -3 {
				x = r.s
				continue
			}
			if r.arcs[a].cap < bottleneck {
				bottleneck = r.arcs[a].cap
			}
			x = r.tail(a)
		}
		if bottleneck <= eps {
			return fmt.Errorf("%w: edge %d drain stalled with %g left", ErrCannotDrain, i, d)
		}
		for x := v; x != u; {
			a := parent[x]
			if a == -3 {
				x = r.s
				continue
			}
			r.push(a, bottleneck)
			x = r.tail(a)
		}
		d -= bottleneck
	}
	return nil
}
