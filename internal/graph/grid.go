package graph

import (
	"errors"
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
	// to its neighbour (x2, y2), and of the link back.  It must be
	// non-negative; Grid evaluates it once per neighbour pair.  Nil means
	// unit capacities.
	Capacity func(x1, y1, x2, y2 int) float64
	// Terminal returns the source-link and sink-link capacities of pixel
	// (x, y); a value that is not positive (NaN included) omits that link.
	// Grid evaluates it once per pixel.  Nil attaches the top-left pixel to
	// the source and the bottom-right pixel to the sink with capacity
	// Width*Height each.
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

// Grid generates the flow network described by spec.  Every edge is staged
// once, in the documented order — row-major pixel pairs (right, down, then
// the two down diagonals under Eight), each as a forward/backward pair,
// followed by the terminal links in row-major order, matching the layout of
// the original examples/imageseg construction — and FromEdges lays the graph
// out with exact-capacity adjacency lists, so a 10^6-vertex grid builds
// without any append growth.  A rejected capacity fails with the bare
// AddEdge error of the first bad edge in that order.
func Grid(spec GridSpec) (*Graph, error) {
	w, h := spec.Width, spec.Height
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("graph: grid dimensions %dx%d must be positive", w, h)
	}
	n := spec.Vertices()
	if n < 2 {
		// w·h overflowed; New names the count.
		_, err := New(n, 0, 1)
		return nil, err
	}
	capFn := spec.Capacity
	if capFn == nil {
		capFn = func(int, int, int, int) float64 { return 1 }
	}
	termFn := spec.Terminal
	if termFn == nil {
		termFn = spec.defaultTerminal
	}
	// Terminal links are counted first, so the staging slice, which FromEdges
	// keeps as the graph's edge array, is sized exactly.
	terms := make([][2]float64, w*h)
	links := 0
	for i := range terms {
		src, sink := termFn(i%w, i/w)
		terms[i] = [2]float64{src, sink}
		if src > 0 {
			links++
		}
		if sink > 0 {
			links++
		}
	}
	pairs := (w-1)*h + w*(h-1)
	if spec.Eight {
		pairs += 2 * (w - 1) * (h - 1)
	}
	edges := make([]Edge, 0, 2*pairs+links)
	link := func(x1, y1, x2, y2 int) {
		c := capFn(x1, y1, x2, y2)
		u, v := spec.PixelVertex(x1, y1), spec.PixelVertex(x2, y2)
		edges = append(edges, Edge{From: u, To: v, Capacity: c}, Edge{From: v, To: u, Capacity: c})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				link(x, y, x+1, y)
			}
			if y+1 < h {
				link(x, y, x, y+1)
				if spec.Eight {
					if x+1 < w {
						link(x, y, x+1, y+1)
					}
					if x > 0 {
						link(x, y, x-1, y+1)
					}
				}
			}
		}
	}
	for i, t := range terms {
		if t[0] > 0 {
			edges = append(edges, Edge{From: 0, To: 2 + i, Capacity: t[0]})
		}
		if t[1] > 0 {
			edges = append(edges, Edge{From: 2 + i, To: 1, Capacity: t[1]})
		}
	}
	g, err := FromEdges(n, 0, 1, edges)
	var ee *EdgeError
	if errors.As(err, &ee) {
		return nil, ee.Err
	}
	return g, err
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

// SegmentationGrid builds the synthetic image-segmentation instance promoted
// from examples/imageseg to arbitrary sizes: a bright disc on a shaded dark
// background, neighbour capacities 1 + 9·exp(−10·Δ²) that fall off across
// intensity edges, and terminal links of strength 20 attached by brightness
// (bright pixels to the source, dark pixels to the sink).  A non-zero seed
// adds deterministic per-pixel noise so repeated workloads differ; seed 0
// reproduces the exact original image (at 12×12, the original example).
func SegmentationGrid(width, height int, eight bool, seed int64) (*Graph, error) {
	spec, err := segmentationSpec(width, height, eight, seed)
	if err != nil {
		return nil, err
	}
	return Grid(spec)
}

// segmentationSpec is SegmentationGrid's image and link model as a GridSpec.
func segmentationSpec(width, height int, eight bool, seed int64) (GridSpec, error) {
	if width < 1 || height < 1 {
		return GridSpec{}, fmt.Errorf("graph: segmentation grid %dx%d must be positive", width, height)
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
	return GridSpec{
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
	}, nil
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
	edges := make([]Edge, n-1)
	for v := range edges {
		edges[v] = Edge{From: v, To: v + 1, Capacity: 1}
	}
	g, err := FromEdges(n, 0, n-1, edges)
	if err != nil {
		panic(err)
	}
	return g
}
