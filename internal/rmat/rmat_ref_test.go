package rmat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"analogflow/internal/graph"
)

// referenceGenerate is the generator Generate replaced — a quadrant switch,
// a map of placed pairs and adjacency grown edge by edge — kept as the
// reference Generate must match bit for bit.
func referenceGenerate(p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g, err := graph.New(p.Vertices, 0, p.Vertices-1)
	if err != nil {
		return nil, err
	}
	g.ReserveEdges(p.Edges)
	minCap := p.MinCapacity
	if minCap < 1 {
		minCap = 1
	}
	drawCapacity := func() float64 {
		return float64(minCap + rng.Intn(p.MaxCapacity-minCap+1))
	}

	levels := levelsFor(p.Vertices)
	tAB, tABC := p.A+p.B, p.A+p.B+p.C
	seen := make(map[int64]bool, p.Edges)
	placed := 0
	attempts := 0
	maxAttempts := 50*p.Edges + 1000
	for placed < p.Edges && attempts < maxAttempts {
		attempts++
		u, v := referencePlaceEdge(rng, levels, p.A, tAB, tABC)
		if u >= p.Vertices || v >= p.Vertices {
			continue
		}
		if u == v {
			continue
		}
		key := int64(u)*int64(p.Vertices) + int64(v)
		if !p.AllowParallel && seen[key] {
			continue
		}
		seen[key] = true
		if _, err := g.AddEdge(u, v, drawCapacity()); err != nil {
			return nil, err
		}
		placed++
	}
	if placed < p.Edges {
		return nil, fmt.Errorf("rmat: placed only %d of %d edges after %d attempts", placed, p.Edges, attempts)
	}
	if p.EnsurePath && !g.SinkReachable() {
		addRandomPath(g, rng, p)
	}
	return g, nil
}

// referencePlaceEdge is the quadrant switch placeEdge replaced.
func referencePlaceEdge(rng *rand.Rand, levels int, tA, tAB, tABC float64) (int, int) {
	u, v := 0, 0
	for l := 0; l < levels; l++ {
		r := rng.Float64()
		switch {
		case r < tA:
		case r < tAB:
			v |= 1 << (levels - 1 - l)
		case r < tABC:
			u |= 1 << (levels - 1 - l)
		default:
			u |= 1 << (levels - 1 - l)
			v |= 1 << (levels - 1 - l)
		}
	}
	return u, v
}

// sameGraph reports the first difference between two graphs: terminals, the
// edge list with capacity bits, and the order of every adjacency list.
func sameGraph(a, b *graph.Graph) error {
	if a.NumVertices() != b.NumVertices() || a.Source() != b.Source() || a.Sink() != b.Sink() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("shape %v vs %v", a, b)
	}
	for i := 0; i < a.NumEdges(); i++ {
		ea, eb := a.Edge(i), b.Edge(i)
		if ea.From != eb.From || ea.To != eb.To || math.Float64bits(ea.Capacity) != math.Float64bits(eb.Capacity) {
			return fmt.Errorf("edge %d: %+v vs %+v", i, ea, eb)
		}
	}
	for v := 0; v < a.NumVertices(); v++ {
		if !slices.Equal(a.OutEdges(v), b.OutEdges(v)) || !slices.Equal(a.InEdges(v), b.InEdges(v)) {
			return fmt.Errorf("vertex %d adjacency differs", v)
		}
	}
	return nil
}

// TestGenerateMatchesReference pins Generate to the reference generator over
// 2,080 parameter sets: 13 vertex counts from 2 to 2048 (powers of two and
// not), both presets, parallel edges allowed and not, and 40 seeds.  Every
// set must give the same graph or the same error text.
func TestGenerateMatchesReference(t *testing.T) {
	sizes := []int{2, 3, 5, 8, 13, 31, 64, 100, 255, 256, 511, 960, 2048}
	seeds := 40
	if testing.Short() {
		seeds = 4
	}
	sets := 0
	for _, n := range sizes {
		for _, preset := range []func(int, int64) Params{DenseParams, SparseParams} {
			for _, parallel := range []bool{false, true} {
				for seed := int64(1); seed <= int64(seeds); seed++ {
					p := preset(n, seed)
					p.AllowParallel = parallel
					want, wantErr := referenceGenerate(p)
					got, gotErr := Generate(p)
					sets++
					switch {
					case (wantErr == nil) != (gotErr == nil):
						t.Fatalf("%+v: error %v, reference %v", p, gotErr, wantErr)
					case wantErr != nil:
						if gotErr.Error() != wantErr.Error() {
							t.Fatalf("%+v: error %q, reference %q", p, gotErr, wantErr)
						}
					default:
						if err := sameGraph(got, want); err != nil {
							t.Fatalf("%+v: %v", p, err)
						}
					}
				}
			}
		}
	}
	t.Logf("%d parameter sets match", sets)
}

// BenchmarkGenerate generates the dense preset at 960 vertices (7,200 edges),
// the largest R-MAT spec the rmat-oneshot workload sends.
func BenchmarkGenerate(b *testing.B) {
	p := DenseParams(960, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}
