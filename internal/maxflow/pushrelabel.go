package maxflow

import (
	"context"

	"analogflow/internal/graph"
)

// SolvePushRelabel computes a maximum flow with the Goldberg-Tarjan
// push-relabel algorithm in its large-graph configuration, the two-stage
// scheme of Cherkassky and Goldberg's hi_pr ("On implementing push-relabel
// method for the maximum flow problem", Algorithmica 1997).  Stage one builds
// a maximum preflow: highest-label active-vertex selection through a
// height-indexed bucket structure, a gap heuristic that relocates exactly the
// vertices above a gap (per-height vertex lists instead of a full scan), and
// periodic global relabelling via reverse BFS from the sink on a work-based
// schedule.  Stage two converts the preflow into a flow in one linear pass.
// This is the configuration the reference implementations use once instances
// reach the 10^5–10^6 vertex range of the paper's vision-style grid
// workloads.
func SolvePushRelabel(g *graph.Graph) (*graph.Flow, error) {
	return SolvePushRelabelContext(context.Background(), g)
}

// SolvePushRelabelContext is SolvePushRelabel with cooperative cancellation,
// checked on entry and then every few thousand discharge operations (and
// periodically in stage two), so the per-operation cost stays negligible
// while cancellation still lands promptly.
func SolvePushRelabelContext(ctx context.Context, g *graph.Graph) (*graph.Flow, error) {
	if err := checkSolvable(g); err != nil {
		return nil, err
	}
	r := newResidualPooled(g)
	defer r.release()
	if err := runPushRelabel(ctx, r); err != nil {
		return nil, err
	}
	return r.flow(), nil
}

// runPushRelabel augments the residual network to a maximum flow with the
// two-stage push-relabel kernel.  Like the other run helpers it accepts any
// feasible starting state: the algorithm computes a maximum flow of the
// residual network, and the arc bookkeeping composes it with whatever flow
// the residual already encodes, which is what the warm path of Network.Solve
// relies on.  All per-solve state lives in a pooled scratch structure, so
// repeated solves allocate nothing once the pool is warm.
func runPushRelabel(ctx context.Context, r *residual) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	st := getPRState(r)
	err := st.stageOne(ctx)
	if err == nil {
		err = st.stageTwo(ctx)
	}
	putPRState(st)
	return err
}

// pushRelabelState is the pooled scratch of the two-stage kernel.  Widths are
// int32 throughout: heights and list links never exceed n, and halving the
// footprint keeps the working set cache-resident far longer on the
// 10^5–10^6 vertex instances this kernel is tuned for.
//
// Stage two needs a colour, a parent and a cursor per vertex and a list of
// vertices; it reuses dist, actNext, cur and bfsQueue for them, which stage
// one no longer reads by then.
type pushRelabelState struct {
	r      *residual
	excess []float64
	// height[v] is a valid distance label below n, or n once v provably
	// cannot reach the sink (the source sits at n throughout).  Stage one
	// never touches a vertex at n again.
	height []int32
	// countHeight[h] is the number of vertices at height h < n (the sink
	// included); a bucket dropping to zero is the gap signal.
	countHeight []int32
	// cur[v] is the current-arc cursor into adj[off[v]:off[v+1]].  It
	// persists across discharges and is rewound only when v is relabelled
	// (or by a global relabelling), so each arc is scanned at most once per
	// height of its tail.
	cur []int32
	// Per-height doubly-linked lists threading every non-terminal vertex
	// below n through the bucket of its height.  A gap event walks exactly
	// the populated buckets above the gap instead of scanning all n
	// vertices.
	levHead, levNext, levPrev []int32
	// levMax is an upper bound on the highest non-empty height bucket; it
	// bounds the gap walk.
	levMax int32
	// Per-height singly-linked lists of active vertices implement
	// highest-label selection, and highest bounds the greatest active
	// height.  inAct[v] reports whether v has a live entry in the bucket of
	// its current height; entries orphaned when a gap lifts a vertex to n
	// are detected lazily by the height check on pop.
	actHead, actNext []int32
	inAct            []bool
	highest          int
	eps              float64
	// work accumulates relabel arc scans; once it passes workThreshold
	// (~alpha*(n+m)) a global relabelling recomputes exact heights.  This
	// work-based schedule replaces the fixed every-n-relabels trigger, which
	// fired far too rarely on sparse grids and far too often on dense cores.
	work          int
	workThreshold int
	// dist and bfsQueue are globalRelabel scratch buffers.
	dist     []int32
	bfsQueue []int32
}

// attach sizes the scratch for r and clears what the stages do not rebuild.
func (st *pushRelabelState) attach(r *residual) {
	n := r.n
	st.r = r
	st.eps = epsilonFor(r.maxArcCapacity())
	st.excess = growSlice(st.excess, n)
	for i := range st.excess {
		st.excess[i] = 0
	}
	st.height = growSlice(st.height, n)
	st.cur = growSlice(st.cur, n)
	st.levNext = growSlice(st.levNext, n)
	st.levPrev = growSlice(st.levPrev, n)
	st.actNext = growSlice(st.actNext, n)
	st.inAct = growSlice(st.inAct, n)
	st.countHeight = growSlice(st.countHeight, n)
	st.levHead = growSlice(st.levHead, n)
	st.actHead = growSlice(st.actHead, n)
	st.dist = growSlice(st.dist, n)
	if cap(st.bfsQueue) < n {
		st.bfsQueue = make([]int32, 0, n)
	}
	st.workThreshold = 4*n + len(r.adj)
	st.work = 0
}

// stageOne builds a maximum preflow.  It saturates every residual arc out of
// the source and then discharges active vertices highest label first, below
// height n only.  A vertex lifted to n — by a relabel, the gap heuristic or a
// global relabelling — has no residual path to the sink, so its excess stays
// where it is.  When no active vertex is left below n, no excess can reach
// the sink any more: the preflow is maximum and the sink's inflow is the
// maximum flow value.
func (st *pushRelabelState) stageOne(ctx context.Context) error {
	r := st.r
	// Saturate every residual arc out of the source; the first global
	// relabelling then builds every bucket structure from exact BFS heights,
	// including the conventional height[s] = n.
	for p := r.off[r.s]; p < r.off[r.s+1]; p++ {
		a := int(r.adj[p])
		if r.arcs[a].cap > st.eps {
			delta := r.arcs[a].cap
			to := r.arcs[a].to
			r.push(a, delta)
			st.excess[to] += delta
			st.excess[r.s] -= delta
		}
	}
	st.globalRelabel()

	discharges := 0
	for st.highest >= 0 {
		v := st.actHead[st.highest]
		if v < 0 {
			st.highest--
			continue
		}
		st.actHead[st.highest] = st.actNext[v]
		if int(st.height[v]) != st.highest {
			continue // orphaned by a gap; v sits at n now
		}
		st.inAct[v] = false
		if st.excess[v] <= st.eps {
			continue
		}
		discharges++
		if discharges&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		st.discharge(int(v))
		if st.work >= st.workThreshold {
			st.globalRelabel()
		}
	}
	return nil
}

// discharge pushes the excess at v until it is exhausted or v is lifted to
// n.  v has just been popped from the active buckets; neighbours activated
// by pushes are registered, and v itself simply keeps discharging after a
// relabel — it remains the highest active vertex.
func (st *pushRelabelState) discharge(v int) {
	r := st.r
	h := st.height[v]
	for {
		p := st.cur[v]
		end := int32(r.off[v+1])
		for ; p < end; p++ {
			a := int(r.adj[p])
			arc := &r.arcs[a]
			to := arc.to
			if arc.cap <= st.eps || st.height[to]+1 != h {
				continue
			}
			delta := st.excess[v]
			if arc.cap < delta {
				delta = arc.cap
			}
			r.push(a, delta)
			st.excess[v] -= delta
			st.excess[to] += delta
			if to != r.t && !st.inAct[to] {
				st.actPush(int32(to), st.height[to])
			}
			if st.excess[v] <= st.eps {
				st.cur[v] = p
				return
			}
		}
		st.cur[v] = int32(r.off[v])
		if !st.relabel(v) {
			return
		}
		h = st.height[v]
	}
}

// actPush registers a live active-list entry for v in the bucket of height
// h < n, raising the highest pointer.
func (st *pushRelabelState) actPush(v, h int32) {
	st.actNext[v] = st.actHead[h]
	st.actHead[h] = v
	st.inAct[v] = true
	if int(h) > st.highest {
		st.highest = int(h)
	}
}

// levAdd inserts v at the head of the height-h vertex list (h < n).
func (st *pushRelabelState) levAdd(v, h int32) {
	head := st.levHead[h]
	st.levNext[v] = head
	st.levPrev[v] = -1
	if head >= 0 {
		st.levPrev[head] = v
	}
	st.levHead[h] = v
	if h > st.levMax {
		st.levMax = h
	}
}

// levDel unlinks v from the height-h vertex list.
func (st *pushRelabelState) levDel(v, h int32) {
	next, prev := st.levNext[v], st.levPrev[v]
	if prev >= 0 {
		st.levNext[prev] = next
	} else {
		st.levHead[h] = next
	}
	if next >= 0 {
		st.levPrev[next] = prev
	}
}

// relabel raises v to one more than its lowest residual neighbour, capped at
// n, and fires the gap heuristic when v's old bucket emptied.  It returns
// false when v reached n: it can no longer reach the sink and stage one is
// done with it.
func (st *pushRelabelState) relabel(v int) bool {
	r := st.r
	n := int32(r.n)
	oldH := st.height[v]
	minH := n
	st.work += r.off[v+1] - r.off[v]
	for p := r.off[v]; p < r.off[v+1]; p++ {
		a := r.adj[p]
		if r.arcs[a].cap > st.eps && st.height[r.arcs[a].to] < minH {
			minH = st.height[r.arcs[a].to]
		}
	}
	newH := minH + 1
	st.countHeight[oldH]--
	st.levDel(int32(v), oldH)
	if newH >= n {
		newH = n
	} else {
		st.countHeight[newH]++
		st.levAdd(int32(v), newH)
	}
	st.height[v] = newH
	// Gap heuristic: if no vertex remains at oldH, every vertex strictly
	// above the gap can never route flow to the sink again; lift them all to
	// n at once.  That may include v itself.
	if st.countHeight[oldH] == 0 {
		st.gap(oldH)
	}
	return st.height[v] < n
}

// gap lifts every vertex with h < height < n to n, walking only the
// populated height buckets in (h, levMax].  Their active entries are
// orphaned and skipped lazily on pop.
func (st *pushRelabelState) gap(h int32) {
	n := int32(st.r.n)
	for hh := h + 1; hh <= st.levMax; hh++ {
		for v := st.levHead[hh]; v >= 0; v = st.levNext[v] {
			st.height[v] = n
		}
		st.levHead[hh] = -1
		st.countHeight[hh] = 0
	}
	st.levMax = h - 1
}

// globalRelabel recomputes exact heights from a reverse BFS from the sink
// over the residual network.  Vertices that can still reach the sink get
// their exact distance to it; every other vertex — the source included —
// gets n and is out of stage one for good.  The labelling is valid: a
// residual arc from a sink-unreachable to a sink-reachable vertex would
// contradict the unreachability.
func (st *pushRelabelState) globalRelabel() {
	r := st.r
	n := r.n
	const unreached = int32(-1)
	dist := st.dist
	for i := range dist {
		dist[i] = unreached
	}
	// Backward BFS from the sink: the arc a goes v->to, so flow could move
	// to->v if the paired arc a^1 has residual capacity.
	queue := append(st.bfsQueue[:0], int32(r.t))
	dist[r.t] = 0
	for qh := 0; qh < len(queue); qh++ {
		v := int(queue[qh])
		for p := r.off[v]; p < r.off[v+1]; p++ {
			a := int(r.adj[p])
			to := r.arcs[a].to
			if dist[to] == unreached && r.arcs[a^1].cap > st.eps {
				dist[to] = dist[v] + 1
				queue = append(queue, int32(to))
			}
		}
	}
	st.bfsQueue = queue[:0] // keep any grown capacity for the next pass

	for i := 0; i < n; i++ {
		st.countHeight[i] = 0
		st.levHead[i] = -1
		st.actHead[i] = -1
	}
	st.levMax = -1
	st.highest = -1
	for v := 0; v < n; v++ {
		st.cur[v] = int32(r.off[v])
		st.inAct[v] = false
		h := dist[v]
		if h == unreached || v == r.s {
			st.height[v] = int32(n)
			continue
		}
		st.height[v] = h
		st.countHeight[h]++
		if v != r.t {
			st.levAdd(int32(v), h)
			if st.excess[v] > st.eps {
				st.actPush(int32(v), h)
			}
		}
	}
	st.work = 0
}

// DFS colours of stage two.
const (
	white int32 = iota
	grey
	black
)

// stageTwo turns the maximum preflow of stage one into a maximum flow by
// returning every vertex's excess to the source, in one linear pass:
//
//  1. An iterative depth-first search over the flow-carrying reverse arcs
//     (odd arcs with residual capacity above eps, each pointing from an
//     edge's head back to its tail) starts at every vertex holding excess.
//     A reverse arc into a grey vertex closes a flow cycle, which is
//     cancelled on the spot, so the flow that remains is acyclic.
//  2. Vertices then return their excess along those arcs in reverse DFS
//     finishing order.  In an acyclic flow every vertex finishes before any
//     vertex it can receive returned excess from, so each vertex is handled
//     exactly once, after everything that can push into it, and its inflow
//     always covers its excess.
//
// The terminals are never entered: the source absorbs returned excess, and
// no vertex with excess can reach the sink once stage one is done.  The pass
// works from any feasible warm state — flow cycles left by an earlier Dinic
// solve, flow on edges into the source — and uses only the pooled scratch.
func (st *pushRelabelState) stageTwo(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r := st.r
	colour, parent := st.dist, st.actNext
	for v := 0; v < r.n; v++ {
		colour[v] = white
		st.cur[v] = int32(r.off[v])
	}
	colour[r.s], colour[r.t] = black, black
	order := st.bfsQueue[:0]
	for root := 0; root < r.n; root++ {
		if colour[root] != white || st.excess[root] <= st.eps {
			continue
		}
		colour[root] = grey
		v := root
		for {
			moved := false
			for end := int32(r.off[v+1]); st.cur[v] < end; st.cur[v]++ {
				a := int(r.adj[st.cur[v]])
				if a&1 == 0 || r.arcs[a].cap <= st.eps {
					continue
				}
				w := r.arcs[a].to
				if colour[w] == white {
					colour[w] = grey
					parent[w] = int32(v)
					v, moved = w, true
					break
				}
				if colour[w] == grey {
					if restart := st.cancelCycle(v, w, a); restart != v {
						st.cur[restart]++ // skip its saturated arc
						v, moved = restart, true
						break
					}
				}
			}
			if moved {
				continue
			}
			colour[v] = black
			order = append(order, int32(v))
			if len(order)&0xfff == 0 {
				if err := ctx.Err(); err != nil {
					st.bfsQueue = order[:0]
					return err
				}
			}
			if v == root {
				break
			}
			v = int(parent[v])
			st.cur[v]++
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		v := int(order[k])
		for p := r.off[v]; p < r.off[v+1] && st.excess[v] > 0; p++ {
			a := int(r.adj[p])
			to := r.arcs[a].to
			if a&1 == 0 || r.arcs[a].cap <= st.eps || to == r.t {
				continue
			}
			delta := st.excess[v]
			if r.arcs[a].cap < delta {
				delta = r.arcs[a].cap
			}
			r.push(a, delta)
			st.excess[v] -= delta
			st.excess[to] += delta
		}
	}
	st.bfsQueue = order[:0]
	return nil
}

// cancelCycle cancels the flow cycle that the reverse arc a from v closes
// into its grey ancestor w: the DFS tree path from w down to v (each vertex's
// current arc) plus a.  It pushes the cycle's bottleneck around it and backs
// the search up to the tail of the first tree arc that saturated: the
// vertices below that arc turn white again, to be re-explored from a later
// arc.  It returns the vertex the search resumes from: v itself when a was
// the only arc to saturate.
func (st *pushRelabelState) cancelCycle(v, w, a int) int {
	r := st.r
	colour := st.dist
	delta := r.arcs[a].cap
	for k := w; k != v; {
		b := int(r.adj[st.cur[k]])
		if r.arcs[b].cap < delta {
			delta = r.arcs[b].cap
		}
		k = r.arcs[b].to
	}
	r.push(a, delta)
	for k := w; k != v; {
		b := int(r.adj[st.cur[k]])
		r.push(b, delta)
		k = r.arcs[b].to
	}
	restart := v
	for k := w; k != v; {
		b := int(r.adj[st.cur[k]])
		next := r.arcs[b].to
		if colour[k] == white || r.arcs[b].cap <= st.eps {
			if colour[k] != white {
				restart = k
			}
			colour[next] = white
		}
		k = next
	}
	return restart
}
