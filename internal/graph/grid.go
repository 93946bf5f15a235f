package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// GridSpec describes a Width×Height pixel-grid flow network, the vision-style
// workload shape (Boykov–Kolmogorov image segmentation) the paper motivates
// its substrate with.  Vertex 0 is the virtual source, vertex 1 the virtual
// sink, and pixel (x, y) is vertex 2 + y*Width + x (see PixelVertex).
type GridSpec struct {
	Width, Height int
	// Eight selects the 8-neighbourhood (diagonal links included); the
	// default is the 4-neighbourhood.
	Eight bool
	// Capacity returns the capacity of the directed link from pixel (x1, y1)
	// to its neighbour (x2, y2).  It must be pure and non-negative: Grid
	// evaluates it once while sizing the graph and once while filling it.
	// Nil means unit capacities.
	Capacity func(x1, y1, x2, y2 int) float64
	// Terminal returns the source-link and sink-link capacities of pixel
	// (x, y); a non-positive value omits that link.  Like Capacity it must
	// be pure, as it is evaluated during both the sizing and filling passes.
	// Nil attaches the top-left pixel to the source and the bottom-right
	// pixel to the sink with capacity Width*Height each.
	Terminal func(x, y int) (src, sink float64)
}

// PixelVertex returns the vertex index of pixel (x, y) under the spec's
// layout.
func (s GridSpec) PixelVertex(x, y int) int { return 2 + y*s.Width + x }

// Vertices returns the total vertex count of the generated graph, terminals
// included.
func (s GridSpec) Vertices() int { return 2 + s.Width*s.Height }

// defaultTerminal implements the nil-Terminal corner seeding.
func (s GridSpec) defaultTerminal(x, y int) (src, sink float64) {
	strength := float64(s.Width * s.Height)
	if x == 0 && y == 0 {
		src = strength
	}
	if x == s.Width-1 && y == s.Height-1 {
		sink = strength
	}
	return src, sink
}

// Grid generates the flow network described by spec.  The generator is
// allocation-light: it sizes the edge list and every adjacency list exactly
// (single shared backing arrays, the Clone layout) before inserting a single
// edge, so a 10^6-vertex grid builds without any append growth.  Neighbour
// links are emitted in row-major pixel order — right, down, then the two
// down diagonals under Eight, each as a forward/backward pair — followed by
// the terminal links in row-major order, matching the layout of the original
// examples/imageseg construction.
func Grid(spec GridSpec) (*Graph, error) {
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
	g.reserve(make([]Edge, 0, edges), outDeg, inDeg)

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

// MustGrid is Grid but panics on error, for tests and generators with known
// good specs.
func MustGrid(spec GridSpec) *Graph {
	g, err := Grid(spec)
	if err != nil {
		panic(err)
	}
	return g
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

// SegmentationGrid builds the synthetic image-segmentation instance promoted
// from examples/imageseg to arbitrary sizes: a bright disc on a shaded dark
// background, neighbour capacities 1 + 9·exp(−10·Δ²) that fall off across
// intensity edges, and terminal links of strength 20 attached by brightness
// (bright pixels to the source, dark pixels to the sink).  A non-zero seed
// adds deterministic per-pixel noise so repeated workloads differ; seed 0
// reproduces the exact original image (at 12×12, the original example).
func SegmentationGrid(width, height int, eight bool, seed int64) (*Graph, error) {
	if width < 1 || height < 1 {
		return nil, fmt.Errorf("graph: segmentation grid %dx%d must be positive", width, height)
	}
	img := make([]float64, width*height)
	side := width
	if height < side {
		side = height
	}
	cx, cy := float64(width-1)/2, float64(height-1)/2
	radius := 3.5 / 12.0 * float64(side)
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			if math.Sqrt(dx*dx+dy*dy) < radius {
				img[y*width+x] = 0.9
			} else {
				img[y*width+x] = 0.15 + 0.02*float64((x+y)%3)
			}
		}
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		for i := range img {
			img[i] += 0.06 * (rng.Float64() - 0.5)
			if img[i] < 0.02 {
				img[i] = 0.02
			}
			if img[i] > 0.98 {
				img[i] = 0.98
			}
		}
	}
	return Grid(GridSpec{
		Width:  width,
		Height: height,
		Eight:  eight,
		Capacity: func(x1, y1, x2, y2 int) float64 {
			diff := img[y1*width+x1] - img[y2*width+x2]
			return 1 + 9*math.Exp(-10*diff*diff)
		},
		Terminal: func(x, y int) (src, sink float64) {
			bright := img[y*width+x]
			if bright > 0.5 {
				return 20 * bright, 0
			}
			return 0, 20 * (1 - bright)
		},
	})
}

// MustSegmentationGrid is SegmentationGrid but panics on error.
func MustSegmentationGrid(width, height int, eight bool, seed int64) *Graph {
	g, err := SegmentationGrid(width, height, eight, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// LongPath returns the adversarial recursion-depth instance: a single chain
// s → v₁ → … → t of n vertices with unit capacities, whose one augmenting
// path touches every vertex.  Solvers that recurse along augmenting paths
// need Θ(n) stack here; the iterative kernels solve it in O(n) heap.
func LongPath(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: long path needs at least 2 vertices, got %d", n))
	}
	g := MustNew(n, 0, n-1)
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	for v := 0; v+1 < n; v++ {
		outDeg[v] = 1
		inDeg[v+1] = 1
	}
	g.reserve(make([]Edge, 0, n-1), outDeg, inDeg)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 1)
	}
	return g
}
