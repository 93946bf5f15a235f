package decompose

import (
	"fmt"
	"sort"

	"analogflow/internal/cluster"
	"analogflow/internal/graph"
)

// ClusterPartitioner derives regions from the capacity-aware greedy island
// partitioner of internal/cluster (Section 6.2), layered along the flow
// direction: vertices are first assigned to islands by the same
// descending-degree affinity heuristic that maps graphs onto the clustered
// fabric, then ordered by (BFS level, island, id) and cut into N balanced
// contiguous chunks.  The layering keeps every region boundary aligned with
// the source→sink flow direction — the property that makes the boundary a
// sound consensus surface — while the island affinity keeps densely
// connected vertices of the same level in the same chunk.  Because chunks
// are balanced by vertex count rather than by whole BFS levels, a shallow
// hub-dominated graph can still be cut into many regions where the plain
// BFS bands run out of levels.
//
// Known limitation: a chunk cut that falls INSIDE a BFS level (unavoidable
// once the region count exceeds the level count) makes flow zigzag across
// the boundary, and the consensus iteration is only approximate there — runs
// in that regime report Converged=false and their estimate should be treated
// as a lower bound.  The planner's default remains the BFS bands, which only
// cut between levels.
type ClusterPartitioner struct {
	// Topology selects the fabric abstraction the island assignment models;
	// the zero value is the 1-D structure, matching cluster.Topology1D.
	Topology cluster.Topology
}

// Name implements Partitioner.
func (ClusterPartitioner) Name() string { return "cluster" }

// Partition implements Partitioner.
func (c ClusterPartitioner) Partition(g *graph.Graph, regions int) (Partition, error) {
	n := g.NumVertices()
	if regions < 1 {
		return Partition{}, fmt.Errorf("decompose: need at least one region, got %d", regions)
	}
	if regions > n/2 {
		regions = n / 2
	}
	if regions < 2 {
		return singleRegion(n), nil
	}
	// Island size: perfectly balanced plus ~12% slack so the greedy pass can
	// follow affinity instead of being forced into round-robin fills.  Total
	// capacity still covers every vertex, so Map cannot run out of room.
	size := (n + regions - 1) / regions
	size += max(1, size/8)
	if size < 2 {
		size = 2
	}
	m, err := cluster.Map(g, cluster.Architecture{
		Topology:        c.Topology,
		IslandSize:      size,
		Islands:         regions,
		ChannelCapacity: 1 << 30, // routing feasibility is not the planner's concern
	})
	if err != nil {
		return Partition{}, fmt.Errorf("decompose: cluster partition: %w", err)
	}
	level, maxLevel := bfsLevels(g)
	// Layered order: terminals pinned to the ends, everything else by BFS
	// depth with island affinity (then id) breaking ties; unreachable
	// vertices carry no flow and sort past every reachable one.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	depth := func(v int) int {
		switch {
		case v == g.Source():
			return -1
		case v == g.Sink():
			return maxLevel + 2
		case level[v] < 0:
			return maxLevel + 1
		default:
			return level[v]
		}
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		if da, db := depth(va), depth(vb); da != db {
			return da < db
		}
		if m.IslandOf[va] != m.IslandOf[vb] {
			return m.IslandOf[va] < m.IslandOf[vb]
		}
		return va < vb
	})
	p := Partition{In: make([][]bool, regions), Home: make([]int, n)}
	for r := range p.In {
		p.In[r] = make([]bool, n)
	}
	for i, v := range order {
		r := i * regions / n
		p.In[r][v] = true
		p.Home[v] = r
	}
	// One-ring overlap: the head of every cross-chunk edge joins the tail's
	// region, so the edge becomes internal to that region and the consensus
	// multipliers price the handoff at the head vertex.  Terminals are the
	// exception and are never duplicated — a source or sink copied into many
	// regions hands every one of them a private terminal whose reading is
	// meaningless — so a cross edge touching a terminal duplicates the OTHER
	// endpoint into the terminal's region instead.
	regionOf := make([]int, n)
	for r, in := range p.In {
		for v, b := range in {
			if b {
				regionOf[v] = r
			}
		}
	}
	for ei, m := 0, g.NumEdges(); ei < m; ei++ {
		e := g.Edge(ei)
		a, b := regionOf[e.From], regionOf[e.To]
		if a == b {
			continue
		}
		switch {
		case e.To == g.Source() || e.To == g.Sink():
			p.In[b][e.From] = true
		case e.From == g.Source() || e.From == g.Sink():
			p.In[a][e.To] = true
		default:
			p.In[a][e.To] = true
		}
	}
	return normalize(p, g), nil
}

// normalize drops empty regions and collapses partitions whose regions
// cannot communicate into the monolithic single region: a region with
// neither an overlap vertex nor both terminals has no way to exchange flow
// with the rest of the decomposition, and its zero reading would poison the
// min-over-regions estimate.
func normalize(p Partition, g *graph.Graph) Partition {
	if len(p.In) == 0 {
		return p
	}
	n := len(p.In[0])
	// A region whose every vertex is shared with other regions adds no
	// coverage — dropping it removes a subproblem that could only echo (or
	// strangle) its neighbours' readings.  Keep the drop only if every vertex
	// stays covered (two overlap-only regions could share a vertex between
	// just themselves); otherwise fall back to dropping empty regions only.
	var withPrivate, nonEmpty []int // kept original region indices
	for r, in := range p.In {
		private, any := false, false
		for v, b := range in {
			if !b {
				continue
			}
			any = true
			if p.regionsOf(v) == 1 {
				private = true
				break
			}
		}
		if private {
			withPrivate = append(withPrivate, r)
		}
		if any {
			nonEmpty = append(nonEmpty, r)
		}
	}
	covered := func(kept []int) bool {
		for v := 0; v < n; v++ {
			ok := false
			for _, r := range kept {
				if p.In[r][v] {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	kept := nonEmpty
	if covered(withPrivate) {
		kept = withPrivate
	}
	// Remap region indices old -> new so a surviving home keeps its meaning
	// (re-deriving homes as "first containing region" would collapse every
	// duplicated vertex onto the lowest-index region and nullify the
	// home-preferred edge ownership); a home whose region was dropped falls
	// back to the first kept region containing the vertex.
	remap := make(map[int]int, len(kept))
	regions := make([][]bool, len(kept))
	for nr, or := range kept {
		remap[or] = nr
		regions[nr] = p.In[or]
	}
	p.In = regions
	if p.Home != nil {
		for v := 0; v < n; v++ {
			if nr, ok := remap[p.Home[v]]; ok && p.In[nr][v] {
				p.Home[v] = nr
				continue
			}
			p.Home[v] = -1
			for r, in := range p.In {
				if in[v] {
					p.Home[v] = r
					break
				}
			}
		}
	}
	if len(p.In) < 2 {
		if len(p.In) == 1 && covered([]int{0}) {
			return p
		}
		return singleRegion(n)
	}
	overlap, private := 0, 0
	for v := 0; v < n; v++ {
		switch p.regionsOf(v) {
		case 1:
			private++
		case 0:
		default:
			overlap++
		}
	}
	if overlap == 0 || private == 0 {
		return singleRegion(n)
	}
	for _, in := range p.In {
		hasOverlap := false
		for v := 0; v < n; v++ {
			if in[v] && p.regionsOf(v) > 1 {
				hasOverlap = true
				break
			}
		}
		if !hasOverlap && !(in[g.Source()] && in[g.Sink()]) {
			return singleRegion(n)
		}
	}
	return p
}
