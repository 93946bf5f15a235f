package graph

import "fmt"

// PruneResult is the outcome of PruneToSTCore: the reduced graph plus the
// mappings needed to translate solutions back to the original instance.
// PruneToSTCoreFrom shares a seed's maps with its result, so every field is
// read-only.
type PruneResult struct {
	// Graph is the pruned graph.  When PruneToSTCore removes nothing it is
	// the input graph itself (with identity maps), so callers must treat it
	// as read-only.
	Graph *Graph
	// EdgeMap[i] is the original edge index of pruned edge i.
	EdgeMap []int
	// VertexMap[v] is the original vertex index of pruned vertex v.
	VertexMap []int
	// RemovedEdges counts edges dropped by the pruning.
	RemovedEdges int
	// RemovedVertices counts vertices dropped by the pruning.
	RemovedVertices int
}

// PruneToSTCore removes the parts of the graph that cannot carry any s-t
// flow: vertices that are unreachable from the source or cannot reach the
// sink, edges incident to such vertices, edges directed into the source and
// edges directed out of the sink.  None of these can carry positive flow in
// at least one maximum flow, so the max-flow value is preserved exactly.
//
// The analog substrate benefits twice from the pass: the pruned instance
// needs fewer crossbar cells (Section 3), and the removed structures are
// precisely the ones whose conservation widgets add no information while
// still loading the circuit.
//
// When nothing can be removed — every vertex lies on an s-t path and every
// edge is kept — the result's Graph is g itself with identity maps instead
// of a copy.  Segmentation grids are the common case.
func PruneToSTCore(g *Graph) *PruneResult {
	return pruneToSTCore(g, nil, nil)
}

// PruneToSTCoreFrom returns what PruneToSTCore(g) returns, given seed, the
// prune of a graph g derives from by value-level steps: the same vertex
// count, terminals and edge list up to capacities and parked flags.  Both
// reachability passes run, and when g keeps exactly seed's vertices and
// edges the result shares seed's maps and its core is seed's core cloned
// (sharing its frozen adjacency) with g's capacities and parked flags,
// instead of a core rebuilt through FromEdges.  With keepsSeed the caller
// asserts that g keeps seed's vertices and edges — no capacity crossed zero
// and no flag changed since seed — and the passes are skipped.  A nil seed
// is PruneToSTCore.
func PruneToSTCoreFrom(g *Graph, seed *PruneResult, keepsSeed bool) *PruneResult {
	if seed != nil && keepsSeed {
		return seed.rebase(g)
	}
	return pruneToSTCore(g, nil, seed)
}

// PruneToSTCoreWithCapacities prunes g as if edge i had capacity caps[i],
// and the pruned graph carries those capacities.  It is equivalent to
// g.WithCapacities(caps) followed by PruneToSTCore, without materialising
// the intermediate graph — the quantization pipeline of internal/core runs
// it once per solve.
func PruneToSTCoreWithCapacities(g *Graph, caps []float64) (*PruneResult, error) {
	if len(caps) != g.NumEdges() {
		return nil, fmt.Errorf("graph: capacity slice has %d entries, graph has %d edges", len(caps), g.NumEdges())
	}
	for _, c := range caps {
		if c < 0 {
			return nil, ErrNegativeCapacity
		}
	}
	return pruneToSTCore(g, caps, nil), nil
}

// pruneToSTCore prunes g under caps (nil: g's own capacities), reusing seed
// (see PruneToSTCoreFrom) when the kept vertices and edges match its maps.
func pruneToSTCore(g *Graph, caps []float64, seed *PruneResult) *PruneResult {
	n := g.NumVertices()
	capOf := func(i int) float64 {
		if caps == nil {
			return g.Edge(i).Capacity
		}
		return caps[i]
	}
	// usable reports whether an edge may carry s-t flow structurally: it must
	// have positive capacity and must not re-enter the source or leave the
	// sink.  Reachability is computed over usable edges only so that the
	// result is a fixpoint (pruning a pruned graph changes nothing).
	//
	// Parked edges do NOT extend reachability: they carry no flow until
	// reclaimed, and a vertex alive only through a parked edge would be a
	// dead branch the substrate cannot settle (its widgets see zero drive
	// against ideal negative resistances).  A parked edge survives the prune
	// only when both endpoints stay alive through positive-capacity paths —
	// see keepEdge below — which is exactly the case where park/unpark is a
	// value-level update with an identical edge map before and after.
	usable := func(i int, e Edge) bool {
		return capOf(i) > 0 && e.To != g.Source() && e.From != g.Sink()
	}
	sc := pruneScratchPool.Get().(*pruneScratch)
	defer pruneScratchPool.Put(sc)
	reachFromS := growBoolsCleared(sc.reachFromS, n)
	sc.reachFromS = reachFromS
	reachFromS[g.Source()] = true
	stack := append(sc.stack[:0], g.Source())
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, idx := range g.OutEdges(v) {
			e := g.Edge(idx)
			if usable(idx, e) && !reachFromS[e.To] {
				reachFromS[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	// Reverse reachability to the sink.
	reachToT := growBoolsCleared(sc.reachToT, n)
	sc.reachToT = reachToT
	reachToT[g.Sink()] = true
	stack = append(stack[:0], g.Sink())
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, idx := range g.InEdges(v) {
			e := g.Edge(idx)
			if usable(idx, e) && !reachToT[e.From] {
				reachToT[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}

	sc.stack = stack[:0] // keep any grown capacity for the next pass
	keepVertex := growBoolsCleared(sc.keepVertex, n)
	sc.keepVertex = keepVertex
	for v := 0; v < n; v++ {
		keepVertex[v] = reachFromS[v] && reachToT[v]
	}
	// The terminals always survive so the pruned instance remains a valid
	// flow network even when no s-t path exists.
	keepVertex[g.Source()] = true
	keepVertex[g.Sink()] = true

	// A parked edge whose endpoints are both alive survives as a structural
	// slot (capacity 0, parked flag carried into the pruned graph), so a
	// later unpark re-stamps values without changing the edge map.
	keepEdge := func(i int, e Edge) bool {
		return keepVertex[e.From] && keepVertex[e.To] &&
			e.To != g.Source() && e.From != g.Sink() && (capOf(i) > 0 || g.ParkedEdge(i))
	}
	if seed != nil && seed.keeps(g, keepEdge) {
		return seed.rebase(g)
	}

	res := &PruneResult{VertexMap: make([]int, 0, n)}
	newIndex := growInts(sc.newIndex, n) // fully overwritten by the next loop
	sc.newIndex = newIndex
	for v := 0; v < n; v++ {
		newIndex[v] = -1
	}
	for v := 0; v < n; v++ {
		if keepVertex[v] {
			newIndex[v] = len(res.VertexMap)
			res.VertexMap = append(res.VertexMap, v)
		} else {
			res.RemovedVertices++
		}
	}
	// Prepass: count surviving edges so the rebuilt graph's edges are staged
	// in one exactly sized slice.
	kept := 0
	for i, ne := 0, g.NumEdges(); i < ne; i++ {
		if keepEdge(i, g.Edge(i)) {
			kept++
		}
	}
	if caps == nil && res.RemovedVertices == 0 && kept == g.NumEdges() {
		// g is its own s-t core; VertexMap is already the identity.
		res.Graph = g
		res.EdgeMap = make([]int, kept)
		for i := range res.EdgeMap {
			res.EdgeMap[i] = i
		}
		return res
	}
	edges := make([]Edge, 0, kept)
	res.EdgeMap = make([]int, 0, kept)
	for i, ne := 0, g.NumEdges(); i < ne; i++ {
		e := g.Edge(i)
		if !keepEdge(i, e) {
			res.RemovedEdges++
			continue
		}
		edges = append(edges, Edge{From: newIndex[e.From], To: newIndex[e.To], Capacity: capOf(i)})
		res.EdgeMap = append(res.EdgeMap, i)
	}
	pruned, err := FromEdges(len(res.VertexMap), newIndex[g.Source()], newIndex[g.Sink()], edges)
	if err != nil {
		panic(err)
	}
	for j, i := range res.EdgeMap {
		if g.ParkedEdge(i) {
			pruned.setParked(j, true)
		}
	}
	res.Graph = pruned
	return res
}

// keeps reports whether r's edge map lists exactly the edges of g that
// keepEdge keeps.  The kept vertices follow: they are the terminals and the
// endpoints of kept edges, since a kept non-terminal vertex lies on an s-t
// path of kept edges.
func (r *PruneResult) keeps(g *Graph, keepEdge func(int, Edge) bool) bool {
	j := 0
	for i, e := range g.edges {
		if keepEdge(i, e) {
			if j == len(r.EdgeMap) || r.EdgeMap[j] != i {
				return false
			}
			j++
		}
	}
	return j == len(r.EdgeMap)
}

// rebase returns r for g, a graph that keeps r's vertices and edges: the
// maps and counts are r's, and the core is g itself when r kept everything
// (as PruneToSTCore returns it), or else r's core cloned with g's
// capacities and parked flags.
func (r *PruneResult) rebase(g *Graph) *PruneResult {
	out := *r
	if len(r.VertexMap) == g.n && len(r.EdgeMap) == len(g.edges) {
		out.Graph = g
		return &out
	}
	core := r.Graph.Clone()
	core.parked, core.nParked = nil, 0
	for j, i := range r.EdgeMap {
		core.edges[j].Capacity = g.edges[i].Capacity
		if g.ParkedEdge(i) {
			core.setParked(j, true)
		}
	}
	out.Graph = core
	return &out
}

// SamePruneEdges reports whether two prune results keep exactly the same
// original edges (nil matches nil, i.e. pruning disabled on both sides).  It
// is the structural-compatibility gate of the incremental-update pipeline:
// when it holds, solver state built on one prune's graph — residual
// networks, circuits, engine factorisations — remains index-compatible with
// the other's.
func SamePruneEdges(a, b *PruneResult) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.EdgeMap) != len(b.EdgeMap) {
		return false
	}
	for i := range a.EdgeMap {
		if a.EdgeMap[i] != b.EdgeMap[i] {
			return false
		}
	}
	return true
}

// PruneExtends reports whether prune result b is a structural extension of a:
// the same surviving vertex set, a's kept edges as an identical prefix of b's,
// and any extra edges b keeps appended at the end (nil matches nil, i.e.
// pruning disabled on both sides).  It is the structural-extension gate of the
// incremental-update pipeline: warm state built on a's graph — residual
// networks, prepared instances — stays index-compatible as a prefix of b's, so
// appended edges can be spliced in without invalidating existing indices.
func PruneExtends(a, b *PruneResult) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.EdgeMap) > len(b.EdgeMap) || len(a.VertexMap) != len(b.VertexMap) {
		return false
	}
	for i := range a.EdgeMap {
		if a.EdgeMap[i] != b.EdgeMap[i] {
			return false
		}
	}
	for i := range a.VertexMap {
		if a.VertexMap[i] != b.VertexMap[i] {
			return false
		}
	}
	return true
}

// ExpandFlow maps a flow on the pruned graph back onto the original graph's
// edge indexing (pruned-away edges carry zero flow).
func (r *PruneResult) ExpandFlow(original *Graph, pruned *Flow) *Flow {
	f := NewFlow(original)
	for i, orig := range r.EdgeMap {
		f.Edge[orig] = pruned.Edge[i]
	}
	f.RecomputeValue(original)
	return f
}

// STDepth returns the breadth-first distance (in edges) from the source to
// the sink, or -1 when the sink is unreachable.  The convergence-time model
// of the analog substrate uses it as the number of widget "hops" a settling
// wave must traverse.
func STDepth(g *Graph) int {
	sc := bfsScratchPool.Get().(*bfsScratch)
	defer bfsScratchPool.Put(sc)
	dist := growInts(sc.dist, g.NumVertices())
	sc.dist = dist
	for i := range dist {
		dist[i] = -1
	}
	dist[g.Source()] = 0
	queue := append(sc.queue[:0], g.Source())
	for qh := 0; qh < len(queue); qh++ {
		v := queue[qh]
		if v == g.Sink() {
			sc.queue = queue[:0]
			return dist[v]
		}
		for _, idx := range g.OutEdges(v) {
			e := g.Edge(idx)
			if e.Capacity > 0 && dist[e.To] < 0 {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	sc.queue = queue[:0]
	return dist[g.Sink()]
}

// LongestAugmentingDepth returns an upper estimate of the longest simple s-t
// path length obtained from a DAG relaxation over BFS levels; the Vflow
// auto-scaling of the analog solver uses it to pick a drive voltage large
// enough to saturate the deepest chain of conservation widgets.
func LongestAugmentingDepth(g *Graph) int {
	// Longest path is NP-hard in general; a cheap, adequate proxy is the
	// number of BFS levels that contain at least one vertex on an s-t path.
	pr := PruneToSTCore(g)
	return LongestAugmentingDepthPruned(pr.Graph)
}

// LongestAugmentingDepthPruned is LongestAugmentingDepth for a graph that is
// already an s-t core (a fixpoint of PruneToSTCore, which preserves vertex
// and edge order, so the BFS levels are identical); it skips the redundant
// re-pruning pass, which matters in the per-instance hot path of the sweeps.
func LongestAugmentingDepthPruned(p *Graph) int {
	sc := bfsScratchPool.Get().(*bfsScratch)
	defer bfsScratchPool.Put(sc)
	dist := growInts(sc.dist, p.NumVertices())
	sc.dist = dist
	for i := range dist {
		dist[i] = -1
	}
	dist[p.Source()] = 0
	queue := append(sc.queue[:0], p.Source())
	maxLevel := 0
	for qh := 0; qh < len(queue); qh++ {
		v := queue[qh]
		for _, idx := range p.OutEdges(v) {
			e := p.Edge(idx)
			if dist[e.To] < 0 {
				dist[e.To] = dist[v] + 1
				if dist[e.To] > maxLevel {
					maxLevel = dist[e.To]
				}
				queue = append(queue, e.To)
			}
		}
	}
	sc.queue = queue[:0]
	if maxLevel == 0 {
		return 1
	}
	return maxLevel
}
