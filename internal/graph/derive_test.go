package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// snapshot is an independent copy of everything a graph exposes: shape,
// edges with capacity bits, adjacency order and parked slots.
type snapshot struct {
	n, s, t int
	edges   []graph.Edge
	out, in [][]int
	parked  []int
}

func snap(g *graph.Graph) snapshot {
	sn := snapshot{n: g.NumVertices(), s: g.Source(), t: g.Sink(), edges: g.Edges(), parked: g.ParkedEdges()}
	for v := 0; v < g.NumVertices(); v++ {
		sn.out = append(sn.out, slices.Clone(g.OutEdges(v)))
		sn.in = append(sn.in, slices.Clone(g.InEdges(v)))
	}
	return sn
}

// diff reports the first difference between two snapshots.
func (a snapshot) diff(b snapshot) error {
	if a.n != b.n || a.s != b.s || a.t != b.t || len(a.edges) != len(b.edges) {
		return fmt.Errorf("shape |V|=%d s=%d t=%d |E|=%d vs |V|=%d s=%d t=%d |E|=%d",
			a.n, a.s, a.t, len(a.edges), b.n, b.s, b.t, len(b.edges))
	}
	for i, e := range a.edges {
		o := b.edges[i]
		if e.From != o.From || e.To != o.To || math.Float64bits(e.Capacity) != math.Float64bits(o.Capacity) {
			return fmt.Errorf("edge %d: %+v vs %+v", i, e, o)
		}
	}
	for v := 0; v < a.n; v++ {
		if !slices.Equal(a.out[v], b.out[v]) || !slices.Equal(a.in[v], b.in[v]) {
			return fmt.Errorf("vertex %d: out %v in %v vs out %v in %v", v, a.out[v], a.in[v], b.out[v], b.in[v])
		}
	}
	if !slices.Equal(a.parked, b.parked) {
		return fmt.Errorf("parked %v vs %v", a.parked, b.parked)
	}
	return nil
}

// diffPrune reports the first field in which the seeded prune of g differs
// from the fresh one.
func diffPrune(g *graph.Graph, seeded, fresh *graph.PruneResult) error {
	if (seeded.Graph == g) != (fresh.Graph == g) {
		return fmt.Errorf("core is g itself: seeded %v, fresh %v", seeded.Graph == g, fresh.Graph == g)
	}
	if err := snap(seeded.Graph).diff(snap(fresh.Graph)); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	if seeded.Graph.NumParked() != fresh.Graph.NumParked() {
		return fmt.Errorf("core parks %d edges, fresh %d", seeded.Graph.NumParked(), fresh.Graph.NumParked())
	}
	if !slices.Equal(seeded.EdgeMap, fresh.EdgeMap) || !slices.Equal(seeded.VertexMap, fresh.VertexMap) {
		return fmt.Errorf("maps %v %v vs %v %v", seeded.EdgeMap, seeded.VertexMap, fresh.EdgeMap, fresh.VertexMap)
	}
	if seeded.RemovedEdges != fresh.RemovedEdges || seeded.RemovedVertices != fresh.RemovedVertices {
		return fmt.Errorf("removed %d edges %d vertices vs %d and %d",
			seeded.RemovedEdges, seeded.RemovedVertices, fresh.RemovedEdges, fresh.RemovedVertices)
	}
	return seeded.Graph.Validate()
}

// reused reports whether a prune result shares its seed's maps.
func reused(res, seed *graph.PruneResult) bool { return &res.VertexMap[0] == &seed.VertexMap[0] }

// deriveStep applies one random value-level step to a clone of g and
// reports whether the step keeps g's s-t core (no capacity crossed zero).
func deriveStep(t *testing.T, g *graph.Graph, rng *rand.Rand) (*graph.Graph, bool) {
	t.Helper()
	g2 := g.Clone()
	m := g2.NumEdges()
	var err error
	keeps := false
	switch op := rng.Intn(5); op {
	case 0, 1, 2: // capacity retarget: keep positivity, drop to zero, raise from zero
		var u graph.CapacityUpdate
		for k := 0; k < 4; k++ {
			e := rng.Intn(m)
			if slices.Contains(u.Edges, e) || g2.ParkedEdge(e) {
				continue
			}
			c := g2.Edge(e).Capacity
			switch {
			case op == 1:
				c = 0
			case op == 2 && c == 0:
				c = float64(1 + rng.Intn(9))
			case c > 0:
				c *= 1 + float64(rng.Intn(3))
			}
			u.Edges, u.Capacities = append(u.Edges, e), append(u.Capacities, c)
		}
		if len(u.Edges) == 0 {
			return g2, true
		}
		var rec *graph.UpdateRecord
		rec, err = g2.ApplyCapacityUpdate(u)
		keeps = err == nil && !rec.PositivityChanged
	case 3: // park
		if e := rng.Intn(m); !g2.ParkedEdge(e) {
			_, err = g2.ApplyStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{e}})
		}
	case 4: // reclaim
		if parked := g2.ParkedEdges(); len(parked) > 0 {
			e := g2.Edge(parked[rng.Intn(len(parked))])
			e.Capacity = float64(1 + rng.Intn(9))
			_, err = g2.ApplyStructuralUpdate(graph.StructuralUpdate{AddEdges: []graph.Edge{e}})
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return g2, keeps
}

// TestSeededPruneMatchesFresh runs chains of value-level derivatives —
// capacity steps to, from and away from zero, parks and reclaims — over
// R-MAT, grid, emptied and parked-slot instances.  Every step's seeded
// prune must equal a fresh PruneToSTCore field for field, along the
// reachability passes and (when no capacity crossed zero) without them,
// and every instance must take the reuse path on some step.
func TestSeededPruneMatchesFresh(t *testing.T) {
	parked := rmat.MustGenerate(rmat.SparseParams(300, 6)).Clone()
	for i := 0; i < parked.NumEdges(); i += 7 {
		if _, err := parked.ApplyStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	for v := 2; v < 40; v += 3 {
		if _, err := parked.AddParkedEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	// No s-t path: the prune keeps the terminals and no edge.
	emptied, err := graph.FromEdges(6, 0, 5, []graph.Edge{{0, 1, 2}, {1, 2, 3}, {3, 4, 1}, {4, 5, 2}, {2, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"rmat-dense":  rmat.MustGenerate(rmat.DenseParams(300, 3)),
		"rmat-sparse": rmat.MustGenerate(rmat.SparseParams(300, 4)),
		"grid-64":     graph.MustSegmentationGrid(64, 64, false, 2),
		"emptied":     emptied,
		"parked":      parked,
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			seed := graph.PruneToSTCore(g)
			reuses := 0
			for step := 0; step < 60; step++ {
				g2, keeps := deriveStep(t, g, rng)
				fresh := graph.PruneToSTCore(g2)
				seeded := graph.PruneToSTCoreFrom(g2, seed, false)
				if err := diffPrune(g2, seeded, fresh); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if reused(seeded, seed) {
					reuses++
				}
				if keeps {
					if !reused(seeded, seed) {
						t.Fatalf("step %d kept the core but rebuilt it", step)
					}
					if err := diffPrune(g2, graph.PruneToSTCoreFrom(g2, seed, true), fresh); err != nil {
						t.Fatalf("step %d without the passes: %v", step, err)
					}
				}
				g, seed = g2, seeded
			}
			if reuses == 0 {
				t.Fatal("no step reused its seed")
			}
		})
	}
}

// TestSeededPruneSeesSwappedBranch closes one s-t branch and opens another
// in one capacity step, so the kept edges change while their count does not.
func TestSeededPruneSeesSwappedBranch(t *testing.T) {
	g, err := graph.FromEdges(4, 0, 3, []graph.Edge{{0, 1, 2}, {1, 3, 2}, {0, 2, 0}, {2, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	seed := graph.PruneToSTCore(g)
	g2 := g.Clone()
	if _, err := g2.ApplyCapacityUpdate(graph.CapacityUpdate{Edges: []int{0, 2}, Capacities: []float64{0, 3}}); err != nil {
		t.Fatal(err)
	}
	seeded := graph.PruneToSTCoreFrom(g2, seed, false)
	if err := diffPrune(g2, seeded, graph.PruneToSTCore(g2)); err != nil {
		t.Fatal(err)
	}
	if reused(seeded, seed) || !slices.Equal(seeded.EdgeMap, []int{2, 3}) {
		t.Fatalf("the swapped branch kept edges %v", seeded.EdgeMap)
	}
}

// FuzzDeriveChain drives random chains of derivations through cloned
// graphs — capacity steps (to and from zero included), parks, reclaims and
// appends, each from the latest graph or an earlier one — starting from a
// frozen (FromEdges) or a still-building (New+AddEdge) base.  After every
// step every graph of the chain must validate and still equal its own
// snapshot, and a value-level step's seeded prune must equal a fresh one.
func FuzzDeriveChain(f *testing.F) {
	f.Add([]byte("\x05\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		capOf := func(b int) float64 { return []float64{0, 1, 2.5, 7}[b%4] }
		head := next()
		n := 2 + head%10
		var edges []graph.Edge
		for k := next() % 24; k > 0; k-- {
			if u, v := next()%n, next()%n; u != v {
				edges = append(edges, graph.Edge{From: u, To: v, Capacity: capOf(next())})
			}
		}
		var base *graph.Graph
		if head&0x80 != 0 {
			base = graph.MustNew(n, 0, n-1)
			for _, e := range edges {
				base.MustAddEdge(e.From, e.To, e.Capacity)
			}
		} else {
			var err error
			if base, err = graph.FromEdges(n, 0, n-1, edges); err != nil {
				t.Fatal(err)
			}
		}
		chain := []*graph.Graph{base}
		snaps := []snapshot{snap(base)}
		prunes := []*graph.PruneResult{graph.PruneToSTCore(base)}
		for step := 0; len(data) > 0 && step < 48; step++ {
			op := next()
			parent := len(chain) - 1
			if op&0x80 != 0 {
				parent = next() % len(chain)
			}
			g := chain[parent].Clone()
			m := g.NumEdges()
			valueLevel, keeps := true, false
			var err error
			switch op % 4 {
			case 0: // capacity step on one edge, or two
				if m == 0 {
					continue
				}
				u := graph.CapacityUpdate{Edges: []int{next() % m}, Capacities: []float64{capOf(next())}}
				if e := next() % m; op&0x40 != 0 && e != u.Edges[0] {
					u.Edges, u.Capacities = append(u.Edges, e), append(u.Capacities, capOf(next()))
				}
				var rec *graph.UpdateRecord
				if rec, err = g.ApplyCapacityUpdate(u); err == nil {
					keeps = !rec.PositivityChanged
				}
			case 1: // park
				if m == 0 {
					continue
				}
				_, err = g.ApplyStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{next() % m}})
			case 2: // reclaim, or append when no slot matches
				u, v := next()%n, next()%n
				if parked := g.ParkedEdges(); len(parked) > 0 && next()%2 == 0 {
					e := g.Edge(parked[next()%len(parked)])
					u, v = e.From, e.To
				}
				var rec *graph.StructuralRecord
				rec, err = g.ApplyStructuralUpdate(graph.StructuralUpdate{AddEdges: []graph.Edge{{From: u, To: v, Capacity: 1 + capOf(next())}}})
				valueLevel = err == nil && len(rec.Appended) == 0
			case 3: // plain append
				u, v := next()%n, next()%n
				_, err = g.AddEdge(u, v, capOf(next()))
				valueLevel = false
			}
			if err != nil {
				continue // the step was refused; g is an unchanged clone
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("step %d: derived graph: %v", step, err)
			}
			for i, c := range chain {
				if err := c.Validate(); err != nil {
					t.Fatalf("step %d: graph %d: %v", step, i, err)
				}
				if err := snap(c).diff(snaps[i]); err != nil {
					t.Fatalf("step %d: graph %d changed: %v", step, i, err)
				}
			}
			res := graph.PruneToSTCore(g)
			if valueLevel {
				seeded := graph.PruneToSTCoreFrom(g, prunes[parent], false)
				if err := diffPrune(g, seeded, res); err != nil {
					t.Fatalf("step %d: seeded prune: %v", step, err)
				}
				if keeps {
					if err := diffPrune(g, graph.PruneToSTCoreFrom(g, prunes[parent], true), res); err != nil {
						t.Fatalf("step %d: seeded prune without the passes: %v", step, err)
					}
				}
				res = seeded // later steps seed from it, as derived problems do
			}
			chain, snaps, prunes = append(chain, g), append(snaps, snap(g)), append(prunes, res)
		}
	})
}
