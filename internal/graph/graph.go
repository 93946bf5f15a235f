// Package graph provides the directed flow-network representation used by
// every other subsystem in analogflow: the classical max-flow algorithms in
// internal/maxflow, the analog-circuit construction in internal/builder, and
// the crossbar mapping in internal/crossbar.
//
// A Graph is a directed multigraph with non-negative integral edge capacities,
// a designated source and sink, and stable edge indices.  Edge indices matter
// because the analog substrate identifies each edge with a circuit node (the
// paper's x_i), so the mapping between graph edges and circuit nodes must be
// deterministic and stable across the whole pipeline.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is a single directed, capacitated edge.  Edges are identified by their
// index in Graph.Edges; that index is used everywhere downstream (flows,
// circuit nodes, crossbar intersections).
type Edge struct {
	// From and To are vertex identifiers in [0, NumVertices).
	From, To int
	// Capacity is the non-negative edge capacity c_e.  The paper assumes
	// nonzero integral capacities; we store float64 so that quantized and
	// de-quantized capacities flow through the same type, but constructors
	// validate that it is finite and non-negative.
	Capacity float64
}

// Graph is a directed flow network.  The zero value is an empty graph with no
// vertices; use New to create a graph with a fixed vertex count.
//
// Adjacency laid out by FromEdges or Clone is frozen: out and in are the two
// halves of one header array (so out has spare capacity, which is how
// frozen tells), and every list is clipped to its length.  A frozen graph
// may share both header arrays and every list with its clones, so nothing
// writes them in place: appendEdge first gives the graph private header
// arrays, and an append to a clipped list reallocates it.
type Graph struct {
	n      int
	edges  []Edge
	out    [][]int // out[v] = indices of edges leaving v
	in     [][]int // in[v]  = indices of edges entering v
	source int
	sink   int
	// parked marks edges that are structurally resident but logically removed
	// (or pre-declared insertion slots): a parked edge keeps its index, its
	// adjacency entries, and — downstream — its circuit widgets and residual
	// arcs, but carries capacity 0 so it can never carry flow.  The s-t-core
	// prune retains parked edges regardless of capacity, which is what lets a
	// later unpark (StructuralUpdate.AddEdges reclaiming the slot) stay a pure
	// value-level update through every layer.  nil when no edge is parked.
	parked []bool
	// nParked counts the true flags of parked.
	nParked int
}

// Common errors returned by graph constructors and validators.
var (
	ErrVertexRange      = errors.New("graph: vertex out of range")
	ErrNegativeCapacity = errors.New("graph: negative edge capacity")
	ErrSelfLoop         = errors.New("graph: self loop not allowed")
	ErrSameSourceSink   = errors.New("graph: source and sink must differ")
	// ErrNonFiniteCapacity rejects NaN and ±Inf capacities: every max-flow
	// kernel would return a silently wrong value on them.
	ErrNonFiniteCapacity = errors.New("graph: non-finite edge capacity")
)

// New returns an empty graph with n vertices, source s and sink t.
func New(n, s, t int) (*Graph, error) {
	if err := checkShape(n, s, t); err != nil {
		return nil, err
	}
	return &Graph{
		n:      n,
		out:    make([][]int, n),
		in:     make([][]int, n),
		source: s,
		sink:   t,
	}, nil
}

// checkShape is New's validation of the vertex count and the terminals.
func checkShape(n, s, t int) error {
	if n < 2 {
		return fmt.Errorf("graph: need at least 2 vertices, got %d", n)
	}
	if s < 0 || s >= n || t < 0 || t >= n {
		return ErrVertexRange
	}
	if s == t {
		return ErrSameSourceSink
	}
	return nil
}

// frozenHeaders allocates the out and in header arrays of a frozen layout
// for n vertices, as the two halves of one array.
func frozenHeaders(n int) (out, in [][]int) {
	h := make([][]int, 2*n)
	return h[:n], h[n:]
}

// frozen reports whether g's adjacency is frozen (see Graph).
func (g *Graph) frozen() bool { return cap(g.out) > len(g.out) }

// MustNew is New but panics on error.  Intended for tests and examples where
// the arguments are literals.
func MustNew(n, s, t int) *Graph {
	g, err := New(n, s, t)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns the number of vertices |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// HeapBytes estimates the heap the graph's arrays occupy: 24 bytes per edge
// for the edge list and 16 for its out- and in-list entries, 48 per vertex
// for the two list headers, and the parked flags.  A clone shares its
// base's frozen adjacency, so this overstates what a clone adds.
func (g *Graph) HeapBytes() int64 {
	return 40*int64(len(g.edges)) + 48*int64(g.n) + int64(len(g.parked))
}

// Source returns the source vertex s.
func (g *Graph) Source() int { return g.source }

// Sink returns the sink vertex t.
func (g *Graph) Sink() int { return g.sink }

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list.  The copy keeps callers from
// accidentally invalidating the adjacency indices.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// AddEdge appends a directed edge from u to v with the given capacity and
// returns its index.  Self loops and negative or non-finite capacities are
// rejected.  Parallel edges are allowed (they are common in reductions, e.g.
// undirected graphs converted to directed ones).
func (g *Graph) AddEdge(u, v int, capacity float64) (int, error) {
	if err := g.checkEdge(u, v, capacity); err != nil {
		return -1, err
	}
	return g.appendEdge(Edge{From: u, To: v, Capacity: capacity}), nil
}

// checkEdge is AddEdge's validation, in the order AddEdge reports it.
func (g *Graph) checkEdge(u, v int, capacity float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return ErrVertexRange
	}
	if u == v {
		return ErrSelfLoop
	}
	return checkCapacity(capacity)
}

// checkCapacity reports whether c is a legal edge capacity: finite
// (ErrNonFiniteCapacity) and non-negative (ErrNegativeCapacity).
func checkCapacity(c float64) error {
	switch {
	case c >= 0 && c <= math.MaxFloat64: // false for NaN
		return nil
	case finite(c):
		return ErrNegativeCapacity
	}
	return ErrNonFiniteCapacity
}

// finite reports whether c is neither NaN nor ±Inf.
func finite(c float64) bool { return c >= -math.MaxFloat64 && c <= math.MaxFloat64 }

// appendEdge appends a validated edge and its adjacency entries.  On a
// frozen graph it first copies both header arrays, with every list clipped
// to its length, so no write reaches a clone that shares them.
func (g *Graph) appendEdge(e Edge) int {
	if g.frozen() {
		g.thaw()
	}
	idx := len(g.edges)
	g.edges = append(g.edges, e)
	g.out[e.From] = append(g.out[e.From], idx)
	g.in[e.To] = append(g.in[e.To], idx)
	return idx
}

// thaw gives g private copies of both header arrays, with every list
// clipped to its length, so the next append to any list reallocates it.
func (g *Graph) thaw() {
	out, in := make([][]int, g.n), make([][]int, g.n)
	for v := range out {
		o, i := g.out[v], g.in[v]
		out[v], in[v] = o[:len(o):len(o)], i[:len(i):len(i)]
	}
	g.out, g.in = out, in
}

// EdgeError reports the edge FromEdges rejected: its index in the input and
// the error AddEdge would have returned for it.
type EdgeError struct {
	Index int
	Err   error
}

func (e *EdgeError) Error() string { return fmt.Sprintf("graph: edge %d: %v", e.Index, e.Err) }

// Unwrap exposes the AddEdge error to errors.Is / errors.As.
func (e *EdgeError) Unwrap() error { return e.Err }

// FromEdges builds the graph with n vertices, source s, sink t and the given
// edges in order, with exact-capacity adjacency lists allocated once (one
// shared backing array each): the frozen layout, which Clone shares instead
// of copying.  ReadDIMACS, rmat.Generate, Grid, LongPath and the s-t-core
// prune build through it.  It validates every edge exactly as AddEdge does
// and reports the first rejected one as an *EdgeError; the terminals are
// checked first, as New checks them.  On success the graph owns the backing
// array of edges, so the caller must not modify it afterwards.
func FromEdges(n, s, t int, edges []Edge) (*Graph, error) {
	if err := checkShape(n, s, t); err != nil {
		return nil, err
	}
	g := &Graph{n: n, source: s, sink: t}
	g.out, g.in = frozenHeaders(n)
	// next[v] and next[n+v] first count v's out- and in-edges, then hold
	// where v's next out- and in-entry goes in the flat adjacency arrays.
	next := make([]int, 2*n)
	for i, e := range edges {
		if err := g.checkEdge(e.From, e.To, e.Capacity); err != nil {
			return nil, &EdgeError{Index: i, Err: err}
		}
		next[e.From]++
		next[n+e.To]++
	}
	m := len(edges)
	outFlat, inFlat := make([]int, m), make([]int, m)
	for v, out, in := 0, 0, 0; v < n; v++ {
		out, next[v] = out+next[v], out
		in, next[n+v] = in+next[n+v], in
	}
	for i, e := range edges {
		outFlat[next[e.From]] = i
		next[e.From]++
		inFlat[next[n+e.To]] = i
		next[n+e.To]++
	}
	// next[v] now ends v's lists, where v+1's begin.
	for v, out, in := 0, 0, 0; v < n; v++ {
		g.out[v] = outFlat[out:next[v]:next[v]]
		g.in[v] = inFlat[in:next[n+v]:next[n+v]]
		out, in = next[v], next[n+v]
	}
	g.edges = edges[:m:m]
	return g, nil
}

// AddParkedEdge appends a parked edge from u to v: a capacity-0 edge that the
// s-t-core prune keeps resident, reserving the index (and, downstream, the
// circuit widgets and residual arcs) as a warm insertion slot for a later
// StructuralUpdate.  It returns the new edge's index.
func (g *Graph) AddParkedEdge(u, v int) (int, error) {
	idx, err := g.AddEdge(u, v, 0)
	if err != nil {
		return -1, err
	}
	g.setParked(idx, true)
	return idx, nil
}

// ParkedEdge reports whether edge i is parked.
func (g *Graph) ParkedEdge(i int) bool {
	return g.parked != nil && i >= 0 && i < len(g.parked) && g.parked[i]
}

// NumParked returns the number of parked edges.
func (g *Graph) NumParked() int { return g.nParked }

// ParkedEdges returns the indices of all parked edges in ascending order.
func (g *Graph) ParkedEdges() []int {
	if g.nParked == 0 {
		return nil
	}
	out := make([]int, 0, g.nParked)
	for i, p := range g.parked {
		if p {
			out = append(out, i)
		}
	}
	return out
}

// setParked sets the parked flag of edge i, materialising the flag slice on
// first use and releasing it when the last flag clears.
func (g *Graph) setParked(i int, parked bool) {
	if g.ParkedEdge(i) == parked {
		return
	}
	if !parked {
		g.parked[i] = false
		if g.nParked--; g.nParked == 0 {
			g.parked = nil
		}
		return
	}
	if len(g.parked) < len(g.edges) {
		grown := make([]bool, len(g.edges))
		copy(grown, g.parked)
		g.parked = grown
	}
	g.parked[i] = true
	g.nParked++
}

// MustAddEdge is AddEdge but panics on error.
func (g *Graph) MustAddEdge(u, v int, capacity float64) int {
	idx, err := g.AddEdge(u, v, capacity)
	if err != nil {
		panic(err)
	}
	return idx
}

// ReserveEdges preallocates capacity for n additional edges in the edge
// list, avoiding repeated growth when the final edge count is known up front
// (generators and reductions).  Adjacency lists still grow on demand.
func (g *Graph) ReserveEdges(n int) {
	if cap(g.edges)-len(g.edges) < n {
		grown := make([]Edge, len(g.edges), len(g.edges)+n)
		copy(grown, g.edges)
		g.edges = grown
	}
}

// OutEdges returns the indices of edges leaving v.
func (g *Graph) OutEdges(v int) []int { return g.out[v] }

// InEdges returns the indices of edges entering v.
func (g *Graph) InEdges(v int) []int { return g.in[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v int) int { return len(g.in[v]) }

// Degree returns in-degree plus out-degree of v (the paper's N = j + k used to
// size the conservation widget's negative resistor).
func (g *Graph) Degree(v int) int { return len(g.in[v]) + len(g.out[v]) }

// MaxCapacity returns the largest edge capacity C, used by the quantizer.
// It returns 0 for a graph with no edges.
func (g *Graph) MaxCapacity() float64 {
	var c float64
	for _, e := range g.edges {
		if e.Capacity > c {
			c = e.Capacity
		}
	}
	return c
}

// TotalCapacity returns the sum of all edge capacities.
func (g *Graph) TotalCapacity() float64 {
	var c float64
	for _, e := range g.edges {
		c += e.Capacity
	}
	return c
}

// SourceCapacity returns the total capacity out of the source, an upper bound
// on the max-flow value.
func (g *Graph) SourceCapacity() float64 {
	var c float64
	for _, i := range g.out[g.source] {
		c += g.edges[i].Capacity
	}
	return c
}

// Clone returns a copy of the graph that shares no mutable state with it:
// adding edges, retargeting capacities or parking edges on either graph
// leaves the other unchanged, and Clone writes nothing to its receiver.
// The edge list and the parked flags are copied.  Frozen adjacency (see
// Graph) is shared, since neither graph writes it in place, so cloning a
// graph built by FromEdges, Clone or the s-t-core prune costs O(|E|) and
// copies no topology; that is what keeps the derived problems of an update
// chain and WithCapacities cheap.  A graph still being built with New and
// AddEdge has its lists copied into the frozen layout, two backing arrays
// in all.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:       g.n,
		edges:   slices.Clone(g.edges), // no zeroing pass, unlike make+copy
		source:  g.source,
		sink:    g.sink,
		parked:  slices.Clone(g.parked),
		nParked: g.nParked,
	}
	if g.frozen() {
		c.out, c.in = g.out, g.in
		return c
	}
	c.out, c.in = frozenHeaders(g.n)
	backing := make([]int, 2*len(g.edges))
	outFlat, inFlat := backing[:len(g.edges)], backing[len(g.edges):]
	pos := 0
	for v := 0; v < g.n; v++ {
		next := pos + len(g.out[v])
		c.out[v] = outFlat[pos:next:next]
		copy(c.out[v], g.out[v])
		pos = next
	}
	pos = 0
	for v := 0; v < g.n; v++ {
		next := pos + len(g.in[v])
		c.in[v] = inFlat[pos:next:next]
		copy(c.in[v], g.in[v])
		pos = next
	}
	return c
}

// WithCapacities returns a copy of the graph whose edge capacities are
// replaced by caps (indexed by edge index); the parked flags carry over.
// It is a Clone, so on frozen adjacency it copies only the edge list and
// the flags.  The quantizer uses it to rewrite capacities onto discrete
// voltage levels.
func (g *Graph) WithCapacities(caps []float64) (*Graph, error) {
	if len(caps) != len(g.edges) {
		return nil, fmt.Errorf("graph: capacity slice has %d entries, graph has %d edges", len(caps), len(g.edges))
	}
	for _, c := range caps {
		if err := checkCapacity(c); err != nil {
			return nil, err
		}
	}
	c := g.Clone()
	for i := range c.edges {
		c.edges[i].Capacity = caps[i]
	}
	return c, nil
}

// Validate performs structural sanity checks: adjacency lists consistent with
// the edge list, all endpoints in range, no negative or non-finite
// capacities.
func (g *Graph) Validate() error {
	if g.n < 2 {
		return fmt.Errorf("graph: %d vertices", g.n)
	}
	if g.source < 0 || g.source >= g.n || g.sink < 0 || g.sink >= g.n {
		return ErrVertexRange
	}
	if g.source == g.sink {
		return ErrSameSourceSink
	}
	for i, e := range g.edges {
		if e.From < 0 || e.From >= g.n || e.To < 0 || e.To >= g.n {
			return fmt.Errorf("graph: edge %d endpoint out of range", i)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: edge %d is a self loop", i)
		}
		if err := checkCapacity(e.Capacity); err != nil {
			return fmt.Errorf("graph: edge %d: %w", i, err)
		}
	}
	seenOut := 0
	for v := 0; v < g.n; v++ {
		for _, idx := range g.out[v] {
			if idx < 0 || idx >= len(g.edges) || g.edges[idx].From != v {
				return fmt.Errorf("graph: out adjacency of vertex %d inconsistent", v)
			}
			seenOut++
		}
		for _, idx := range g.in[v] {
			if idx < 0 || idx >= len(g.edges) || g.edges[idx].To != v {
				return fmt.Errorf("graph: in adjacency of vertex %d inconsistent", v)
			}
		}
	}
	if seenOut != len(g.edges) {
		return fmt.Errorf("graph: adjacency covers %d edges, graph has %d", seenOut, len(g.edges))
	}
	return nil
}

// String renders a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{|V|=%d |E|=%d s=%d t=%d}", g.n, len(g.edges), g.source, g.sink)
}

// Extends reports whether ext is a structural extension of base: the same
// vertex count and terminals, with base's edge list as an endpoint-identical
// prefix of ext's.  Capacities and parked flags are not compared.  The warm
// structural-update paths (maxflow.Network.StructureTo, the solve layer's
// slack accounting) use this to decide whether appended edges can be absorbed
// in place.
func Extends(base, ext *Graph) bool {
	if base == nil || ext == nil {
		return false
	}
	if base.n != ext.n || base.source != ext.source || base.sink != ext.sink {
		return false
	}
	if len(ext.edges) < len(base.edges) {
		return false
	}
	for i, e := range base.edges {
		if o := ext.edges[i]; e.From != o.From || e.To != o.To {
			return false
		}
	}
	return true
}

// HasEdge reports whether at least one edge u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	for _, idx := range g.out[u] {
		if g.edges[idx].To == v {
			return true
		}
	}
	return false
}

// AdjacencyMatrix returns the n x n capacity adjacency matrix.  Parallel edges
// are summed.  The crossbar configuration in internal/crossbar is essentially
// a physical realisation of this matrix (Section 3 of the paper).
func (g *Graph) AdjacencyMatrix() [][]float64 {
	m := make([][]float64, g.n)
	for i := range m {
		m[i] = make([]float64, g.n)
	}
	for _, e := range g.edges {
		m[e.From][e.To] += e.Capacity
	}
	return m
}

// ReachableFromSource returns the set of vertices reachable from the source
// through edges of positive capacity, as a boolean slice.
func (g *Graph) ReachableFromSource() []bool {
	seen := make([]bool, g.n)
	stack := []int{g.source}
	seen[g.source] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, idx := range g.out[v] {
			e := g.edges[idx]
			if e.Capacity > 0 && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// SinkReachable reports whether the sink is reachable from the source, i.e.
// whether a nonzero flow can exist at all.
func (g *Graph) SinkReachable() bool {
	return g.ReachableFromSource()[g.sink]
}

// FromUndirected builds a directed graph from an undirected edge list by
// allocating two opposite directed edges with the same capacity, which is the
// standard reduction the paper mentions in its footnote 1.
func FromUndirected(n, s, t int, undirected []Edge) (*Graph, error) {
	g, err := New(n, s, t)
	if err != nil {
		return nil, err
	}
	for _, e := range undirected {
		if _, err := g.AddEdge(e.From, e.To, e.Capacity); err != nil {
			return nil, err
		}
		if _, err := g.AddEdge(e.To, e.From, e.Capacity); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// SortedEdgeIndicesByCapacity returns edge indices sorted by descending
// capacity, tie-broken by index.  Used by heuristics in internal/cluster.
func (g *Graph) SortedEdgeIndicesByCapacity() []int {
	idx := make([]int, len(g.edges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := g.edges[idx[a]].Capacity, g.edges[idx[b]].Capacity
		if ca != cb {
			return ca > cb
		}
		return idx[a] < idx[b]
	})
	return idx
}
