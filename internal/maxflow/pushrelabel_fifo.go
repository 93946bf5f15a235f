package maxflow

import (
	"context"

	"analogflow/internal/graph"
)

// SolvePushRelabelFIFO is the retained pre-heuristic push-relabel kernel:
// FIFO active-vertex selection, a gap heuristic that scans all n vertices on
// every gap event, and global relabelling on a fixed every-n-relabels
// schedule.  Production dispatch (Algorithm PushRelabel, Network.Solve) uses
// the highest-label kernel in pushrelabel.go; this one is kept verbatim as
// the baseline that BenchmarkLargeGridSolve measures the heuristics against
// and as an independent differential oracle in the tests.  It is frozen:
// performance work goes into the highest-label kernel only.
func SolvePushRelabelFIFO(g *graph.Graph) (*graph.Flow, error) {
	return SolvePushRelabelFIFOContext(context.Background(), g)
}

// SolvePushRelabelFIFOContext is SolvePushRelabelFIFO with cooperative
// cancellation, checked every few thousand discharge operations.
func SolvePushRelabelFIFOContext(ctx context.Context, g *graph.Graph) (*graph.Flow, error) {
	if err := checkSolvable(g); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := newResidual(g)
	defer r.release()
	if err := runPushRelabelFIFO(ctx, r); err != nil {
		return nil, err
	}
	return r.flow(), nil
}

// runPushRelabelFIFO augments the residual network to a maximum flow with the
// FIFO push-relabel baseline.  Like the other run helpers it accepts any
// feasible starting state.
func runPushRelabelFIFO(ctx context.Context, r *residual) error {
	return newFIFOPushRelabelState(r).run(ctx)
}

type fifoPushRelabelState struct {
	r      *residual
	excess []float64
	height []int
	// countHeight[h] is the number of vertices at height h, used by the gap
	// heuristic.
	countHeight []int
	// active is a FIFO of active vertices: enqueue appends, the run loop pops
	// from qhead.  The slice is compacted whenever the dead prefix dominates.
	active  []int
	qhead   int
	inQueue []bool
	eps     float64
	// relabelBudget triggers a global relabelling once enough relabel
	// operations have occurred.
	relabelSinceGlobal int
	relabelThreshold   int
	// dist and bfsQueue are globalRelabel scratch buffers.
	dist     []int
	bfsQueue []int
}

func newFIFOPushRelabelState(r *residual) *fifoPushRelabelState {
	n := r.n
	st := &fifoPushRelabelState{
		r:           r,
		excess:      make([]float64, n),
		height:      make([]int, n),
		countHeight: make([]int, 2*n+1),
		active:      make([]int, 0, n),
		inQueue:     make([]bool, n),
		eps:         epsilonFor(r.maxArcCapacity()),
		dist:        make([]int, n),
		bfsQueue:    make([]int, 0, n),
	}
	st.relabelThreshold = n
	if st.relabelThreshold < 16 {
		st.relabelThreshold = 16
	}
	return st
}

func (st *fifoPushRelabelState) run(ctx context.Context) error {
	r := st.r
	n := r.n
	// Initialise: source at height n, saturate all source-adjacent arcs.
	st.height[r.s] = n
	for v := 0; v < n; v++ {
		if v != r.s {
			st.countHeight[0]++
		}
	}
	st.countHeight[n]++
	for p := r.off[r.s]; p < r.off[r.s+1]; p++ {
		a := int(r.adj[p])
		if r.arcs[a].cap > st.eps {
			delta := r.arcs[a].cap
			to := r.arcs[a].to
			r.push(a, delta)
			st.excess[to] += delta
			st.excess[r.s] -= delta
			st.enqueue(to)
		}
	}
	st.globalRelabel()

	discharges := 0
	for st.qhead < len(st.active) {
		discharges++
		if discharges&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := st.active[st.qhead]
		st.qhead++
		if st.qhead > 1024 && st.qhead*2 > len(st.active) {
			st.active = append(st.active[:0], st.active[st.qhead:]...)
			st.qhead = 0
		}
		st.inQueue[v] = false
		st.discharge(v)
		if st.relabelSinceGlobal >= st.relabelThreshold {
			st.globalRelabel()
			st.relabelSinceGlobal = 0
		}
	}
	return nil
}

// enqueue marks v active if it carries excess and is neither terminal.
func (st *fifoPushRelabelState) enqueue(v int) {
	if v == st.r.s || v == st.r.t || st.inQueue[v] {
		return
	}
	if st.excess[v] > st.eps {
		st.inQueue[v] = true
		st.active = append(st.active, v)
	}
}

// discharge pushes the excess at v until it is exhausted or v is relabelled.
func (st *fifoPushRelabelState) discharge(v int) {
	r := st.r
	for st.excess[v] > st.eps {
		pushed := false
		for p := r.off[v]; p < r.off[v+1]; p++ {
			a := int(r.adj[p])
			arc := &r.arcs[a]
			if arc.cap <= st.eps || st.height[v] != st.height[arc.to]+1 {
				continue
			}
			delta := st.excess[v]
			if arc.cap < delta {
				delta = arc.cap
			}
			r.push(a, delta)
			st.excess[v] -= delta
			st.excess[arc.to] += delta
			st.enqueue(arc.to)
			pushed = true
			if st.excess[v] <= st.eps {
				break
			}
		}
		if st.excess[v] <= st.eps {
			return
		}
		if !pushed {
			if !st.relabel(v) {
				return
			}
		}
	}
}

// relabel raises v to one more than its lowest admissible neighbour.  It
// returns false when v became unreachable (height >= 2n), in which case its
// excess can never reach the sink and is abandoned (it flows back to the
// source implicitly via the height function).
func (st *fifoPushRelabelState) relabel(v int) bool {
	r := st.r
	oldHeight := st.height[v]
	minH := 2 * r.n
	for p := r.off[v]; p < r.off[v+1]; p++ {
		a := r.adj[p]
		if r.arcs[a].cap > st.eps && st.height[r.arcs[a].to] < minH {
			minH = st.height[r.arcs[a].to]
		}
	}
	newHeight := minH + 1
	if newHeight >= 2*r.n {
		newHeight = 2 * r.n
	}
	st.countHeight[oldHeight]--
	st.height[v] = newHeight
	st.countHeight[newHeight]++
	st.relabelSinceGlobal++

	// Gap heuristic: if no vertex remains at oldHeight and oldHeight < n,
	// every vertex above the gap can never route flow to the sink; lift them
	// all above n at once.
	if oldHeight < r.n && st.countHeight[oldHeight] == 0 {
		for u := 0; u < r.n; u++ {
			if u != r.s && st.height[u] > oldHeight && st.height[u] < r.n {
				st.countHeight[st.height[u]]--
				st.height[u] = r.n + 1
				st.countHeight[r.n+1]++
			}
		}
	}
	return st.height[v] < 2*r.n
}

// globalRelabel recomputes exact heights as BFS distances to the sink in the
// residual network (and to the source for disconnected vertices).
func (st *fifoPushRelabelState) globalRelabel() {
	r := st.r
	n := r.n
	const unreached = -1
	dist := st.dist
	for i := range dist {
		dist[i] = unreached
	}
	// Backward BFS from the sink over arcs with residual capacity in the
	// forward direction (i.e. arcs a with cap(a)>0 ending at the frontier).
	queue := append(st.bfsQueue[:0], r.t)
	dist[r.t] = 0
	for qh := 0; qh < len(queue); qh++ {
		v := queue[qh]
		for p := r.off[v]; p < r.off[v+1]; p++ {
			a := int(r.adj[p])
			// The arc a goes v->to; flow could move to->v if the paired arc
			// a^1 has residual capacity.
			to := r.arcs[a].to
			if dist[to] == unreached && r.arcs[a^1].cap > st.eps {
				dist[to] = dist[v] + 1
				queue = append(queue, to)
			}
		}
	}
	st.bfsQueue = queue // keep any grown capacity for the next pass
	for i := range st.countHeight {
		st.countHeight[i] = 0
	}
	for v := 0; v < n; v++ {
		switch {
		case v == r.s:
			st.height[v] = n
		case dist[v] != unreached:
			st.height[v] = dist[v]
		default:
			st.height[v] = n + 1
		}
		st.countHeight[st.height[v]]++
	}
	// Re-seed the active queue: heights changed, so admissibility changed.
	st.active = st.active[:0]
	st.qhead = 0
	for v := 0; v < n; v++ {
		st.inQueue[v] = false
	}
	for v := 0; v < n; v++ {
		st.enqueue(v)
	}
}
