package graph

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// referenceGrid is the two-pass grid generator Grid replaced, kept as the
// reference the staged generator must match: the same graph (edge order,
// capacity bits, adjacency order) or the same error value on every spec.
func referenceGrid(spec GridSpec) (*Graph, error) {
	w, h := spec.Width, spec.Height
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("graph: grid dimensions %dx%d must be positive", w, h)
	}
	capFn := spec.Capacity
	if capFn == nil {
		capFn = func(int, int, int, int) float64 { return 1 }
	}
	termFn := spec.Terminal
	if termFn == nil {
		termFn = spec.defaultTerminal
	}
	g, err := New(spec.Vertices(), 0, 1)
	if err != nil {
		return nil, err
	}

	// Sizing pass: exact edge count and degree profile.
	outDeg := make([]int, g.n)
	inDeg := make([]int, g.n)
	edges := 0
	countLink := func(u, v int) {
		outDeg[u]++
		inDeg[v]++
		edges++
	}
	forEachNeighbour(spec, func(x1, y1, x2, y2 int) {
		u, v := spec.PixelVertex(x1, y1), spec.PixelVertex(x2, y2)
		countLink(u, v)
		countLink(v, u)
	})
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src, sink := termFn(x, y)
			if src > 0 {
				countLink(0, spec.PixelVertex(x, y))
			}
			if sink > 0 {
				countLink(spec.PixelVertex(x, y), 1)
			}
		}
	}
	referenceReserve(g, make([]Edge, 0, edges), outDeg, inDeg)

	// Filling pass, in the documented order.
	var addErr error
	forEachNeighbour(spec, func(x1, y1, x2, y2 int) {
		c := capFn(x1, y1, x2, y2)
		u, v := spec.PixelVertex(x1, y1), spec.PixelVertex(x2, y2)
		if _, err := g.AddEdge(u, v, c); err != nil && addErr == nil {
			addErr = err
		}
		if _, err := g.AddEdge(v, u, c); err != nil && addErr == nil {
			addErr = err
		}
	})
	if addErr != nil {
		return nil, addErr
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src, sink := termFn(x, y)
			if src > 0 {
				if _, err := g.AddEdge(0, spec.PixelVertex(x, y), src); err != nil {
					return nil, err
				}
			}
			if sink > 0 {
				if _, err := g.AddEdge(spec.PixelVertex(x, y), 1, sink); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// referenceReserve is the layout helper referenceGrid sized its graph with
// before FromEdges became the one builder: it installs edges (empty, with
// capacity for every edge) as the edge list and carves exact-capacity
// adjacency lists out of one shared backing array each, which AddEdge then
// fills.
func referenceReserve(g *Graph, edges []Edge, outDeg, inDeg []int) {
	g.edges = edges
	m := cap(edges)
	outFlat := make([]int, m)
	inFlat := make([]int, m)
	pos := 0
	for v := 0; v < g.n; v++ {
		g.out[v] = outFlat[pos : pos : pos+outDeg[v]]
		pos += outDeg[v]
	}
	pos = 0
	for v := 0; v < g.n; v++ {
		g.in[v] = inFlat[pos : pos : pos+inDeg[v]]
		pos += inDeg[v]
	}
}

// forEachNeighbour visits every unordered neighbour pair of the grid once,
// in row-major order: right, down, and under Eight the down-right and
// down-left diagonals.
func forEachNeighbour(spec GridSpec, visit func(x1, y1, x2, y2 int)) {
	w, h := spec.Width, spec.Height
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				visit(x, y, x+1, y)
			}
			if y+1 < h {
				visit(x, y, x, y+1)
			}
			if spec.Eight && y+1 < h {
				if x+1 < w {
					visit(x, y, x+1, y+1)
				}
				if x > 0 {
					visit(x, y, x-1, y+1)
				}
			}
		}
	}
}

// checkGridAgainstReference requires Grid and referenceGrid to agree on spec:
// a deeply equal graph, or the same error (the same value, or for the
// formatted dimension errors the same text).
func checkGridAgainstReference(t *testing.T, name string, spec GridSpec) {
	t.Helper()
	got, gotErr := Grid(spec)
	want, wantErr := referenceGrid(spec)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr != wantErr && (gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
		}
		if got != nil {
			t.Fatalf("%s: graph returned with error %v", name, gotErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: graph differs from the reference (%d vs %d edges)", name, got.NumEdges(), want.NumEdges())
	}
}

// TestGridMatchesReference sweeps grid shapes from 1×1 to 64×64, both
// neighbourhoods, and nil, custom and ill-valued Capacity/Terminal functions:
// NaN, ±Inf and negative values at one pixel (for terminals, a value that is
// not positive omits the link, so only +Inf fails).
func TestGridMatchesReference(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -2}
	type capMaker func(w, h int) func(x1, y1, x2, y2 int) float64
	type termMaker func(w, h int) func(x, y int) (float64, float64)
	caps := map[string]capMaker{
		"nil": func(int, int) func(int, int, int, int) float64 { return nil },
		"custom": func(int, int) func(int, int, int, int) float64 {
			return func(x1, y1, x2, y2 int) float64 { return 0.5 + float64((3*x1+5*y1+7*x2+y2)%11)/3 }
		},
	}
	for _, v := range special {
		caps[fmt.Sprintf("cap=%g", v)] = func(w, h int) func(int, int, int, int) float64 {
			return func(x1, y1, x2, y2 int) float64 {
				if x1 == w/2 && y1 == (h-1)/2 {
					return v
				}
				return 2
			}
		}
	}
	terms := map[string]termMaker{
		"nil": func(int, int) func(int, int) (float64, float64) { return nil },
		"custom": func(w, h int) func(int, int) (float64, float64) {
			return func(x, y int) (float64, float64) {
				switch (x + 2*y) % 4 {
				case 0:
					return float64(x + 1), 0
				case 1:
					return 0, float64(y + 1)
				case 2:
					return 1.5, 2.5
				}
				return 0, 0
			}
		},
	}
	for _, v := range special {
		for _, sinkSide := range []bool{false, true} {
			terms[fmt.Sprintf("term=%g,sink=%v", v, sinkSide)] = func(w, h int) func(int, int) (float64, float64) {
				return func(x, y int) (float64, float64) {
					src, sink := 3.0, 0.0
					if x == w-1 {
						src, sink = 0, 4
					}
					if x == (w-1)/2 && y == h/2 {
						if sinkSide {
							sink = v
						} else {
							src = v
						}
					}
					return src, sink
				}
			}
		}
	}
	sizes := []int{1, 2, 3, 5, 8, 13, 31, 64}
	for _, w := range sizes {
		for _, h := range sizes {
			for _, eight := range []bool{false, true} {
				for cn, cm := range caps {
					for tn, tm := range terms {
						spec := GridSpec{Width: w, Height: h, Eight: eight, Capacity: cm(w, h), Terminal: tm(w, h)}
						checkGridAgainstReference(t, fmt.Sprintf("%dx%d eight=%v %s %s", w, h, eight, cn, tn), spec)
					}
				}
			}
		}
	}
	// Bad dimensions, and a pixel count whose vertex count overflows.
	for _, spec := range []GridSpec{{Width: 0, Height: 4}, {Width: 4, Height: 0}, {Width: -1, Height: -1},
		{Width: 1, Height: math.MaxInt}} {
		checkGridAgainstReference(t, fmt.Sprintf("%dx%d", spec.Width, spec.Height), spec)
	}
}

// TestSegmentationGridMatchesReference checks the production instance, a
// 128² segmentation grid, for a few seeds and both neighbourhoods.
func TestSegmentationGridMatchesReference(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 1009} {
		for _, eight := range []bool{false, true} {
			spec, err := segmentationSpec(128, 128, eight, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkGridAgainstReference(t, fmt.Sprintf("seed %d eight=%v", seed, eight), spec)
		}
	}
}

// BenchmarkSegmentationGrid builds the grid-oneshot instance, a 128²
// 4-connected segmentation grid, with Grid and with the reference generator.
func BenchmarkSegmentationGrid(b *testing.B) {
	for _, bc := range []struct {
		name string
		grid func(GridSpec) (*Graph, error)
	}{{"staged", Grid}, {"reference", referenceGrid}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				spec, err := segmentationSpec(128, 128, false, 3)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bc.grid(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
