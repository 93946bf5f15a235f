package graph

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// nonFinite are the capacities every constructor and validator must refuse
// with ErrNonFiniteCapacity.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// TestNonFiniteCapacityRejected walks every place a capacity enters a graph:
// AddEdge, FromEdges, Validate, WithCapacities, both update validators, the
// grid generator's terminal links and the DIMACS reader.
func TestNonFiniteCapacityRejected(t *testing.T) {
	for _, c := range nonFinite {
		g := PaperFigure5()
		if _, err := g.AddEdge(0, 1, c); !errors.Is(err, ErrNonFiniteCapacity) {
			t.Errorf("AddEdge(%g): %v", c, err)
		}
		edges := append(PaperFigure5().Edges(), Edge{From: 1, To: 2, Capacity: c})
		var ee *EdgeError
		if _, err := FromEdges(5, 0, 4, edges); !errors.As(err, &ee) || ee.Index != 5 || !errors.Is(err, ErrNonFiniteCapacity) {
			t.Errorf("FromEdges(%g): %v", c, err)
		}
		bad := PaperFigure5()
		bad.edges[2].Capacity = c
		if err := bad.Validate(); !errors.Is(err, ErrNonFiniteCapacity) {
			t.Errorf("Validate(%g): %v", c, err)
		}
		caps := []float64{1, 1, c, 1, 1}
		if _, err := g.WithCapacities(caps); !errors.Is(err, ErrNonFiniteCapacity) {
			t.Errorf("WithCapacities(%g): %v", c, err)
		}
		if err := (CapacityUpdate{Edges: []int{1}, Capacities: []float64{c}}).Validate(g); !errors.Is(err, ErrNonFiniteCapacity) {
			t.Errorf("CapacityUpdate(%g): %v", c, err)
		}
		if err := (StructuralUpdate{AddEdges: []Edge{{From: 1, To: 2, Capacity: c}}}).Validate(g); !errors.Is(err, ErrNonFiniteCapacity) {
			t.Errorf("StructuralUpdate(%g): %v", c, err)
		}
		if _, err := Grid(GridSpec{Width: 2, Height: 2, Terminal: func(x, y int) (float64, float64) { return c, 1 }}); c > 0 && !errors.Is(err, ErrNonFiniteCapacity) {
			t.Errorf("Grid terminal %g: %v", c, err)
		}
	}
	// The instance from the issue that motivated the check: its maximum flow
	// is 5, but every kernel answered something else.
	text := "p max 4 4\nn 1 s\nn 4 t\na 1 2 inf\na 2 4 3\na 1 3 2\na 3 4 inf\n"
	if _, err := ReadDIMACS(strings.NewReader(text)); !errors.Is(err, ErrNonFiniteCapacity) ||
		!strings.Contains(err.Error(), "dimacs: arc [0 1 +Inf]") {
		t.Errorf("ReadDIMACS with an inf arc: %v", err)
	}
}

// TestFromEdgesMatchesAddEdge requires FromEdges to build exactly the graph a
// sequence of AddEdge calls builds, with every adjacency list at exact
// capacity, and to report its errors in AddEdge's order.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	want := MustNew(6, 0, 5)
	var edges []Edge
	for _, e := range []Edge{{0, 1, 3}, {0, 2, 1}, {1, 2, 2}, {2, 1, 2}, {1, 5, 4}, {0, 1, 1}, {2, 5, 0}, {3, 4, 1}} {
		want.MustAddEdge(e.From, e.To, e.Capacity)
		edges = append(edges, e)
	}
	got, err := FromEdges(6, 0, 5, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Edges(), want.Edges()) || got.Source() != 0 || got.Sink() != 5 {
		t.Fatalf("edges %v, want %v", got.Edges(), want.Edges())
	}
	for v := 0; v < 6; v++ {
		if !slices.Equal(got.OutEdges(v), want.OutEdges(v)) || !slices.Equal(got.InEdges(v), want.InEdges(v)) {
			t.Errorf("vertex %d adjacency out %v in %v, want %v %v", v, got.OutEdges(v), got.InEdges(v), want.OutEdges(v), want.InEdges(v))
		}
		if cap(got.OutEdges(v)) != len(got.OutEdges(v)) || cap(got.InEdges(v)) != len(got.InEdges(v)) {
			t.Errorf("vertex %d adjacency not at exact capacity", v)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// A later append reallocates the grown list instead of clobbering a
	// neighbour's entries in the shared backing array.
	got.MustAddEdge(1, 3, 1)
	if !slices.Equal(got.OutEdges(2), want.OutEdges(2)) || got.Validate() != nil {
		t.Errorf("appending after FromEdges corrupted the layout")
	}

	for _, tc := range []struct {
		name    string
		n, s, t int
		edges   []Edge
		want    error
		index   int
	}{
		{"terminals first", 3, 1, 1, []Edge{{0, 0, 1}}, ErrSameSourceSink, -1},
		{"range", 3, 0, 2, []Edge{{0, 1, 1}, {0, 3, -1}}, ErrVertexRange, 1},
		{"self loop before capacity", 3, 0, 2, []Edge{{1, 1, -1}}, ErrSelfLoop, 0},
		{"negative", 3, 0, 2, []Edge{{0, 1, 1}, {1, 2, 1}, {1, 2, -2}}, ErrNegativeCapacity, 2},
	} {
		_, err := FromEdges(tc.n, tc.s, tc.t, tc.edges)
		var ee *EdgeError
		if !errors.Is(err, tc.want) || (tc.index >= 0) != errors.As(err, &ee) || (ee != nil && ee.Index != tc.index) {
			t.Errorf("%s: got %v, want %v at edge %d", tc.name, err, tc.want, tc.index)
		}
	}
}
