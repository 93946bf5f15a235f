package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestParkedCountMatchesFlags drives random park, reclaim, append and clone
// sequences: NumParked must equal a recount of the flags after every step,
// and the flag slice must be released whenever the count reaches zero.
func TestParkedCountMatchesFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := MustSegmentationGrid(6, 6, false, 3)
	check := func(step int) {
		t.Helper()
		n := 0
		for i := 0; i < g.NumEdges(); i++ {
			if g.ParkedEdge(i) {
				n++
			}
		}
		if g.NumParked() != n || len(g.ParkedEdges()) != n {
			t.Fatalf("step %d: NumParked %d, ParkedEdges %d, recount %d", step, g.NumParked(), len(g.ParkedEdges()), n)
		}
		if n == 0 && g.parked != nil {
			t.Fatalf("step %d: no edge parked but the flag slice is kept", step)
		}
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // park an unparked edge
			if e := rng.Intn(g.NumEdges()); !g.ParkedEdge(e) {
				if _, err := g.ApplyStructuralUpdate(StructuralUpdate{RemoveEdges: []int{e}}); err != nil {
					t.Fatal(err)
				}
			}
		case op < 8: // reclaim a parked slot
			if parked := g.ParkedEdges(); len(parked) > 0 {
				e := g.Edge(parked[rng.Intn(len(parked))])
				rec, err := g.ApplyStructuralUpdate(StructuralUpdate{AddEdges: []Edge{{From: e.From, To: e.To, Capacity: 1}}})
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Reclaimed) != 1 {
					t.Fatalf("step %d: a parked slot was not reclaimed: %+v", step, rec)
				}
			}
		case op < 9: // clear a flag that is already clear, then set one twice
			e := rng.Intn(g.NumEdges())
			if !g.ParkedEdge(e) {
				g.setParked(e, false)
				g.edges[e].Capacity = 0
				g.setParked(e, true)
				g.setParked(e, true)
			}
		default: // grow the graph past the flag slice, then clone
			if _, err := g.AddParkedEdge(rng.Intn(g.NumVertices()-2)+2, 1); err != nil {
				t.Fatal(err)
			}
			g.MustAddEdge(0, rng.Intn(g.NumVertices()-2)+2, 2)
			g = g.Clone()
		}
		check(step)
	}
}

// TestCloneSharesFrozenAdjacency pins copy-on-write topology: a clone of a
// FromEdges graph shares its adjacency, and AddEdge on either side leaves
// the other a valid graph that sees only its own edges.
func TestCloneSharesFrozenAdjacency(t *testing.T) {
	base := MustSegmentationGrid(5, 4, false, 1)
	m := base.NumEdges()
	c := base.Clone()
	if &c.out[0] != &base.out[0] || &c.in[0] != &base.in[0] {
		t.Fatal("a clone of a FromEdges graph copied its adjacency headers")
	}
	bi := base.MustAddEdge(2, 3, 5)
	ci := c.MustAddEdge(4, 2, 6)
	ci2 := c.MustAddEdge(2, 5, 7)
	for name, g := range map[string]*Graph{"base": base, "clone": c} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if base.NumEdges() != m+1 || c.NumEdges() != m+2 || bi != m || ci != m || ci2 != m+1 {
		t.Fatalf("edge counts base %d clone %d, want %d and %d", base.NumEdges(), c.NumEdges(), m+1, m+2)
	}
	if got := base.Edge(m); got != (Edge{From: 2, To: 3, Capacity: 5}) {
		t.Fatalf("base edge %d is %+v", m, got)
	}
	if got := c.Edge(m); got != (Edge{From: 4, To: 2, Capacity: 6}) {
		t.Fatalf("clone edge %d is %+v", m, got)
	}
	if slices.Contains(base.OutEdges(2), m+1) || slices.Contains(base.InEdges(2), m) || !slices.Contains(base.OutEdges(2), m) {
		t.Fatalf("base adjacency of vertex 2: out %v in %v", base.OutEdges(2), base.InEdges(2))
	}
	if !slices.Contains(c.OutEdges(2), m+1) || !slices.Contains(c.InEdges(2), m) || slices.Contains(c.InEdges(3), m) {
		t.Fatalf("clone adjacency: out(2) %v in(2) %v in(3) %v", c.OutEdges(2), c.InEdges(2), c.InEdges(3))
	}
	// Appending thawed both graphs: their clones deep-copy again.
	if base.frozen() || c.frozen() || !base.Clone().frozen() {
		t.Fatal("appending must thaw a graph, and its clone must be frozen")
	}
}

// TestCloneOfBuiltGraphSharesNoList pins that a graph still being built with
// New and AddEdge is copied, list by list, into a frozen clone.
func TestCloneOfBuiltGraphSharesNoList(t *testing.T) {
	g := diamond(t)
	g.MustAddEdge(1, 2, 3)
	if g.frozen() {
		t.Fatal("a New+AddEdge graph reads as frozen")
	}
	c := g.Clone()
	if !c.frozen() {
		t.Fatal("a clone must be frozen")
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, l := range [][2][]int{{g.out[v], c.out[v]}, {g.in[v], c.in[v]}} {
			if !slices.Equal(l[0], l[1]) {
				t.Fatalf("vertex %d: clone lists %v, graph %v", v, l[1], l[0])
			}
			if len(l[0]) > 0 && &l[0][0] == &l[1][0] {
				t.Fatalf("vertex %d: clone shares a list with the graph", v)
			}
		}
	}
	g.MustAddEdge(2, 1, 1)
	if c.NumEdges() != 5 || len(c.OutEdges(2)) != 1 || c.Validate() != nil {
		t.Fatalf("appending to the graph changed its clone: %v", c)
	}
}

// TestCloneRace clones one frozen base from several goroutines, appending
// to every clone and to clones of clones, while others traverse the base.
// Run under -race: no write may reach memory the base shares.
func TestCloneRace(t *testing.T) {
	base := MustSegmentationGrid(12, 12, false, 5)
	m := base.NumEdges()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				c := base.Clone()
				c.MustAddEdge(2+w, 7+k%5, 1)
				cc := c.Clone()
				cc.MustAddEdge(0, 2+k, 2)
				c.MustAddEdge(3+w, 1, 1)
				if c.NumEdges() != m+2 || cc.NumEdges() != m+2 || c.Validate() != nil || cc.Validate() != nil {
					errs <- "a clone lost or gained an edge"
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				seen := 0
				for v := 0; v < base.NumVertices(); v++ {
					seen += len(base.OutEdges(v))
				}
				if seen != m || base.Validate() != nil {
					errs <- "the base changed under its clones"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
