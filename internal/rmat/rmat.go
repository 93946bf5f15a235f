// Package rmat implements the R-MAT (Recursive MATrix) synthetic graph
// generator of Chakrabarti, Zhan and Faloutsos, the workload generator the
// paper uses for its Figure 10 convergence-time sweep.  Both the dense
// (|E| ∝ |V|²) and sparse (|E| ∝ |V|) presets used in the paper are provided.
//
// The generator places each edge by recursively descending the adjacency
// matrix: at every level one of the four quadrants is chosen with
// probabilities (A, B, C, D), producing the skewed, scale-free degree
// distributions typical of real graphs.  Determinism is guaranteed by an
// explicit seed, so every experiment in this repository is reproducible.
package rmat

import (
	"fmt"
	"math"
	"math/rand"

	"analogflow/internal/graph"
)

// Params configures an R-MAT generation run.
type Params struct {
	// Vertices is the number of vertices |V| (at least 2).  The source is
	// vertex 0 and the sink is vertex |V|-1.
	Vertices int
	// Edges is the number of directed edges to generate.
	Edges int
	// A, B, C, D are the quadrant probabilities.  They must be positive and
	// sum to 1 (within a small tolerance).  The classic R-MAT parameters are
	// (0.57, 0.19, 0.19, 0.05); symmetric Erdos-Renyi-like behaviour is
	// (0.25, 0.25, 0.25, 0.25).
	A, B, C, D float64
	// MinCapacity and MaxCapacity bound the edge capacities, which are drawn
	// uniformly from {MinCapacity, ..., MaxCapacity}.  The paper uses
	// nonzero integral capacities; a MinCapacity of zero is treated as 1.
	// The Figure 10 workloads use a narrowed range (half to full scale) so
	// that the 20-level quantizer of Table 1 resolves every capacity, which
	// keeps the quantization error inside the error band the paper reports.
	MinCapacity int
	MaxCapacity int
	// Seed makes the generation deterministic.
	Seed int64
	// AllowParallel keeps duplicate (u, v) placements as parallel edges.
	// When false (the default for paper workloads), duplicates are re-drawn,
	// which matches the usual R-MAT "fix-up" procedure.
	AllowParallel bool
	// EnsurePath guarantees that the sink is reachable from the source by
	// adding a random s-t path if the raw instance has max-flow zero.  All
	// paper workloads enable this so that speedup numbers are not measured
	// on trivially infeasible instances.
	EnsurePath bool
}

// DefaultParams returns the classic R-MAT probabilities with the given sizes.
func DefaultParams(vertices, edges int, seed int64) Params {
	return Params{
		Vertices:    vertices,
		Edges:       edges,
		A:           0.57,
		B:           0.19,
		C:           0.19,
		D:           0.05,
		MaxCapacity: 100,
		Seed:        seed,
		EnsurePath:  true,
	}
}

// DenseParams returns the paper's dense-graph preset (|E| ∝ |V|²), clamped to
// the paper's maximum of 8000 edges.  Capacities span the upper half of the
// scale so that every capacity is resolvable by the Table 1 quantizer.
func DenseParams(vertices int, seed int64) Params {
	edges := vertices * vertices / 128
	if edges > 8000 {
		edges = 8000
	}
	if edges < vertices {
		edges = vertices
	}
	p := DefaultParams(vertices, edges, seed)
	p.MinCapacity = p.MaxCapacity / 2
	return p
}

// SparseParams returns the paper's sparse-graph preset (|E| ∝ |V|), roughly
// four edges per vertex as in the 500-8000 edge range of the evaluation.
func SparseParams(vertices int, seed int64) Params {
	edges := 4 * vertices
	if edges > 8000 {
		edges = 8000
	}
	p := DefaultParams(vertices, edges, seed)
	p.MinCapacity = p.MaxCapacity / 2
	return p
}

// Validate checks the parameters for consistency.
func (p Params) Validate() error {
	if p.Vertices < 2 {
		return fmt.Errorf("rmat: need at least 2 vertices, got %d", p.Vertices)
	}
	if p.Edges < 0 {
		return fmt.Errorf("rmat: negative edge count %d", p.Edges)
	}
	if p.MaxCapacity < 1 {
		return fmt.Errorf("rmat: MaxCapacity must be >= 1, got %d", p.MaxCapacity)
	}
	if p.MinCapacity < 0 || (p.MinCapacity > 0 && p.MinCapacity > p.MaxCapacity) {
		return fmt.Errorf("rmat: MinCapacity %d outside [0, MaxCapacity=%d]", p.MinCapacity, p.MaxCapacity)
	}
	sum := p.A + p.B + p.C + p.D
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("rmat: quadrant probabilities sum to %g, want 1", sum)
	}
	if p.A <= 0 || p.B <= 0 || p.C <= 0 || p.D <= 0 {
		return fmt.Errorf("rmat: quadrant probabilities must be positive")
	}
	if !p.AllowParallel {
		// Without parallel edges the number of distinct off-diagonal slots
		// bounds the edge count.
		max := p.Vertices * (p.Vertices - 1)
		if p.Edges > max {
			return fmt.Errorf("rmat: %d edges requested but only %d distinct slots exist", p.Edges, max)
		}
	}
	return nil
}

// Generate builds a graph according to the parameters.
//
// Every edge is placed by a branch-free quadrant descent and its capacity is
// drawn right after it; the edges are staged in one slice and the graph is
// built from it with exact-capacity adjacency (graph.FromEdges).  The RNG is
// consumed in a fixed order, so a seed always yields the same graph.
func Generate(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	minCap := p.MinCapacity
	if minCap < 1 {
		minCap = 1
	}
	capRange := p.MaxCapacity - minCap + 1

	levels := levelsFor(p.Vertices)
	// Cumulative quadrant thresholds, hoisted out of the placement loop.
	tAB, tABC := p.A+p.B, p.A+p.B+p.C
	var seen pairSet
	if !p.AllowParallel {
		seen = newPairSet(p.Edges)
	}
	edges := make([]graph.Edge, 0, p.Edges)
	attempts := 0
	maxAttempts := 50*p.Edges + 1000
	for len(edges) < p.Edges && attempts < maxAttempts {
		attempts++
		u, v := placeEdge(rng, levels, p.A, tAB, tABC)
		if u >= p.Vertices || v >= p.Vertices {
			// Vertex counts that are not powers of two can overflow the
			// recursive grid; re-draw.
			continue
		}
		if u == v {
			continue
		}
		if !p.AllowParallel && !seen.insert(uint64(u)*uint64(p.Vertices)+uint64(v)) {
			continue
		}
		edges = append(edges, graph.Edge{From: u, To: v, Capacity: float64(minCap + rng.Intn(capRange))})
	}
	if len(edges) < p.Edges {
		return nil, fmt.Errorf("rmat: placed only %d of %d edges after %d attempts", len(edges), p.Edges, attempts)
	}
	g, err := graph.FromEdges(p.Vertices, 0, p.Vertices-1, edges)
	if err != nil {
		return nil, err
	}
	if p.EnsurePath && !g.SinkReachable() {
		addRandomPath(g, rng, p)
	}
	return g, nil
}

// MustGenerate is Generate but panics on error; intended for benchmarks and
// examples with literal parameters.
func MustGenerate(p Params) *graph.Graph {
	g, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return g
}

// levelsFor returns the number of quadrant-recursion levels needed to address
// n vertices (ceil(log2 n)).
func levelsFor(n int) int {
	levels := 0
	for (1 << levels) < n {
		levels++
	}
	return levels
}

// placeEdge draws a single (u, v) position by recursive quadrant descent, one
// rng.Float64 per level; tA, tAB and tABC are the cumulative quadrant
// thresholds A, A+B and A+B+C.  Each level shifts one bit into both indices:
// u's bit is set in the lower quadrants (r ≥ A+B) and v's in the right ones
// (A ≤ r < A+B or r ≥ A+B+C), computed without branches because the
// quadrant choice is unpredictable.
func placeEdge(rng *rand.Rand, levels int, tA, tAB, tABC float64) (int, int) {
	u, v := 0, 0
	for l := 0; l < levels; l++ {
		r := rng.Float64()
		ge1, ge2, ge3 := bit(r >= tA), bit(r >= tAB), bit(r >= tABC)
		u = u<<1 | ge2
		v = v<<1 | (ge1 ^ ge2 ^ ge3)
	}
	return u, v
}

// bit converts a comparison to 0 or 1; the compiler lowers it to a flag set.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pairSet is an open-addressed set of (u, v) keys u·|V|+v, which the
// generator fills only with off-diagonal pairs, so the key 0 (the pair
// (0, 0)) marks an empty slot.
type pairSet struct {
	slots []uint64
	mask  uint64
}

// newPairSet sizes the table to a power of two of at least twice n slots,
// which keeps linear probes short at the generator's fill of at most n keys.
func newPairSet(n int) pairSet {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return pairSet{slots: make([]uint64, size), mask: uint64(size - 1)}
}

// insert adds key and reports whether it was absent.
func (s *pairSet) insert(key uint64) bool {
	for i := (key * 0x9E3779B97F4A7C15) >> 32 & s.mask; ; i = (i + 1) & s.mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			return true
		}
	}
}

// MaxPathEdges bounds the edges Generate adds beyond Params.Edges when it
// ensures a source-to-sink path (Params.EnsurePath): at most
// MaxPathEdges-1 hops through existing vertices plus the link into the sink.
const MaxPathEdges = 5

// addRandomPath threads a random source-to-sink path through existing
// vertices so that the instance has a nonzero max-flow.
func addRandomPath(g *graph.Graph, rng *rand.Rand, p Params) {
	n := g.NumVertices()
	minCap := p.MinCapacity
	if minCap < 1 {
		minCap = 1
	}
	draw := func() float64 { return float64(minCap + rng.Intn(p.MaxCapacity-minCap+1)) }
	hops := 2 + rng.Intn(MaxPathEdges-2) // 2 to MaxPathEdges-1 hops
	if hops > n-2 {
		hops = n - 2
	}
	prev := g.Source()
	used := map[int]bool{g.Source(): true, g.Sink(): true}
	for i := 0; i < hops; i++ {
		next := 1 + rng.Intn(n-2)
		if used[next] {
			continue
		}
		used[next] = true
		g.MustAddEdge(prev, next, draw())
		prev = next
	}
	g.MustAddEdge(prev, g.Sink(), draw())
}

// DegreeStats summarises the degree distribution of a generated graph; used by
// tests and by the clustered-architecture experiments to verify that the
// generator produces the skew R-MAT is known for.
type DegreeStats struct {
	MaxOut, MaxIn   int
	MeanOut, MeanIn float64
}

// Stats computes degree statistics for g.
func Stats(g *graph.Graph) DegreeStats {
	var s DegreeStats
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		od, id := g.OutDegree(v), g.InDegree(v)
		if od > s.MaxOut {
			s.MaxOut = od
		}
		if id > s.MaxIn {
			s.MaxIn = id
		}
		s.MeanOut += float64(od)
		s.MeanIn += float64(id)
	}
	s.MeanOut /= float64(n)
	s.MeanIn /= float64(n)
	return s
}
