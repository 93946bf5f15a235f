package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPruneKeepsFigure5Intact(t *testing.T) {
	g := PaperFigure5()
	pr := PruneToSTCore(g)
	if pr.RemovedEdges != 0 || pr.RemovedVertices != 0 {
		t.Errorf("Figure 5 graph should not be pruned: %+v", pr)
	}
	if pr.Graph.NumEdges() != g.NumEdges() || pr.Graph.NumVertices() != g.NumVertices() {
		t.Errorf("pruned sizes changed")
	}
}

func TestPruneRemovesDeadStructure(t *testing.T) {
	g := MustNew(7, 0, 6)
	g.MustAddEdge(0, 1, 2) // on the s-t path
	g.MustAddEdge(1, 6, 2)
	g.MustAddEdge(1, 2, 1) // vertex 2 is a dead end
	g.MustAddEdge(3, 1, 1) // vertex 3 cannot be reached from s
	g.MustAddEdge(1, 0, 1) // edge back into the source
	g.MustAddEdge(6, 1, 1) // edge out of the sink
	g.MustAddEdge(4, 5, 1) // disconnected component
	pr := PruneToSTCore(g)
	if pr.Graph.NumEdges() != 2 {
		t.Fatalf("pruned graph has %d edges, want 2", pr.Graph.NumEdges())
	}
	if pr.Graph.NumVertices() != 3 { // s, vertex 1, t
		t.Fatalf("pruned graph has %d vertices, want 3", pr.Graph.NumVertices())
	}
	if pr.RemovedEdges != 5 || pr.RemovedVertices != 4 {
		t.Errorf("removed counts wrong: %+v", pr)
	}
	// Edge map points back at the surviving original edges.
	for _, orig := range pr.EdgeMap {
		if orig != 0 && orig != 1 {
			t.Errorf("unexpected surviving edge %d", orig)
		}
	}
}

func TestPruneHandlesDisconnectedTerminals(t *testing.T) {
	g := MustNew(4, 0, 3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	pr := PruneToSTCore(g)
	if pr.Graph.NumVertices() < 2 {
		t.Fatalf("terminals must survive pruning")
	}
	if pr.Graph.NumEdges() != 0 {
		t.Errorf("no edge can carry s-t flow, got %d", pr.Graph.NumEdges())
	}
}

func TestExpandFlow(t *testing.T) {
	g := MustNew(4, 0, 3)
	e0 := g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 5) // vertex 2 is a dead end
	e2 := g.MustAddEdge(1, 3, 2)
	pr := PruneToSTCore(g)
	pf := NewFlow(pr.Graph)
	for i := range pf.Edge {
		pf.Edge[i] = 2
	}
	pf.RecomputeValue(pr.Graph)
	full := pr.ExpandFlow(g, pf)
	if full.Edge[e0] != 2 || full.Edge[e2] != 2 || full.Edge[1] != 0 {
		t.Errorf("expanded flow wrong: %v", full.Edge)
	}
	if full.Value != 2 {
		t.Errorf("expanded value %g, want 2", full.Value)
	}
}

func TestSTDepth(t *testing.T) {
	g := PaperFigure5()
	if d := STDepth(g); d != 3 {
		t.Errorf("Figure 5 depth %d, want 3", d)
	}
	iso := MustNew(3, 0, 2)
	iso.MustAddEdge(0, 1, 1)
	if d := STDepth(iso); d != -1 {
		t.Errorf("unreachable sink should give -1, got %d", d)
	}
	direct := MustNew(2, 0, 1)
	direct.MustAddEdge(0, 1, 1)
	if d := STDepth(direct); d != 1 {
		t.Errorf("single edge depth %d, want 1", d)
	}
}

func TestLongestAugmentingDepth(t *testing.T) {
	g := PaperFigure5()
	if d := LongestAugmentingDepth(g); d != 3 {
		t.Errorf("Figure 5 longest depth %d, want 3", d)
	}
	// A graph with no path still reports at least 1 so callers can divide by it.
	iso := MustNew(3, 0, 2)
	iso.MustAddEdge(0, 1, 1)
	if d := LongestAugmentingDepth(iso); d < 1 {
		t.Errorf("depth should be at least 1, got %d", d)
	}
}

// Property: pruning never changes the max-flow upper bound structure — the
// pruned graph's source capacity is at most the original's, the pruned graph
// validates, and pruning is idempotent.
func TestPruneInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := MustNew(n, 0, n-1)
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.MustAddEdge(u, v, float64(1+rng.Intn(9)))
		}
		pr := PruneToSTCore(g)
		if pr.Graph.Validate() != nil {
			return false
		}
		if pr.Graph.SourceCapacity() > g.SourceCapacity()+1e-9 {
			return false
		}
		if len(pr.EdgeMap) != pr.Graph.NumEdges() {
			return false
		}
		// Idempotence.
		pr2 := PruneToSTCore(pr.Graph)
		return pr2.RemovedEdges == 0 && pr2.RemovedVertices == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPruneReturnsInputWhenNothingToRemove pins the copy-free prune: when
// every vertex and edge survives — a parked slot with live endpoints
// included — the result is the input graph itself with identity maps, and
// anything removable still produces a copy.
func TestPruneReturnsInputWhenNothingToRemove(t *testing.T) {
	parked := diamond(t)
	parked.MustAddEdge(1, 2, 4) // keeps vertex 2 alive once 0->2 parks
	if _, err := parked.ApplyStructuralUpdate(StructuralUpdate{RemoveEdges: []int{1}}); err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"diamond":     diamond(t),
		"grid":        MustSegmentationGrid(16, 12, true, 3),
		"parked slot": parked,
	} {
		pr := PruneToSTCore(g)
		if pr.Graph != g || pr.RemovedVertices != 0 || pr.RemovedEdges != 0 {
			t.Errorf("%s: want the input graph back unpruned, got %v (%+v)", name, pr.Graph, pr)
			continue
		}
		for i, orig := range pr.EdgeMap {
			if orig != i {
				t.Fatalf("%s: EdgeMap[%d] = %d, want the identity", name, i, orig)
			}
		}
		for v, orig := range pr.VertexMap {
			if orig != v {
				t.Fatalf("%s: VertexMap[%d] = %d, want the identity", name, v, orig)
			}
		}
		if len(pr.EdgeMap) != g.NumEdges() || len(pr.VertexMap) != g.NumVertices() {
			t.Fatalf("%s: maps have %d edges and %d vertices", name, len(pr.EdgeMap), len(pr.VertexMap))
		}
	}

	deadEnd := MustNew(5, 0, 3)
	for _, e := range diamond(t).Edges() {
		deadEnd.MustAddEdge(e.From, e.To, e.Capacity)
	}
	deadEnd.MustAddEdge(1, 4, 2)
	intoSource := diamond(t)
	intoSource.MustAddEdge(1, 0, 2)
	zeroCap := diamond(t)
	zeroCap.MustAddEdge(1, 2, 0)
	for name, g := range map[string]*Graph{
		"dead-end vertex":    deadEnd,
		"edge into source":   intoSource,
		"zero-capacity edge": zeroCap,
	} {
		pr := PruneToSTCore(g)
		if pr.Graph == g {
			t.Errorf("%s: the prune must copy when it removes something", name)
		}
		if pr.RemovedVertices+pr.RemovedEdges == 0 {
			t.Errorf("%s: nothing was removed: %+v", name, pr)
		}
	}
}
