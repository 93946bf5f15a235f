package decompose

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// dumpGraph appends everything a region graph exposes: shape, edges with
// capacity bits and parked flags, and adjacency order.
func dumpGraph(b []byte, g *graph.Graph) []byte {
	if g == nil {
		return append(b, "nil\n"...)
	}
	b = fmt.Appendf(b, "|V|=%d s=%d t=%d:", g.NumVertices(), g.Source(), g.Sink())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		b = strconv.AppendInt(append(b, ' '), int64(e.From), 10)
		b = strconv.AppendInt(append(b, '>'), int64(e.To), 10)
		b = strconv.AppendUint(append(b, ':'), math.Float64bits(e.Capacity), 16)
		if g.ParkedEdge(i) {
			b = append(b, 'P')
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		b = append(b, " |"...)
		for _, ei := range g.OutEdges(v) {
			b = strconv.AppendInt(append(b, ' '), int64(ei), 10)
		}
		b = append(b, " <"...)
		for _, ei := range g.InEdges(v) {
			b = strconv.AppendInt(append(b, ' '), int64(ei), 10)
		}
	}
	return append(b, '\n')
}

// dumpFlow appends a flow's value and edge flows bit for bit.
func dumpFlow(b []byte, f *graph.Flow) []byte {
	if f == nil {
		return append(b, "nil\n"...)
	}
	b = strconv.AppendUint(b, math.Float64bits(f.Value), 16)
	for _, x := range f.Edge {
		b = strconv.AppendUint(append(b, ' '), math.Float64bits(x), 16)
	}
	return append(b, '\n')
}

// dumpState writes a carried state in full, layout included, so that any
// write to it between two dumps shows.
func dumpState(ws *WarmState) string {
	if ws == nil {
		return "nil"
	}
	var b []byte
	for _, g := range ws.Graphs {
		b = dumpGraph(b, g)
	}
	for _, f := range ws.Flows {
		b = dumpFlow(b, f)
	}
	if l := ws.layout; l != nil {
		b = fmt.Appendln(b, l.n, l.source, l.sink, l.ends, l.parked, l.part, l.owner, l.groups)
		for _, rl := range l.regions {
			b = fmt.Appendln(b, rl.localOf, rl.overlap, rl.splits, rl.splitOf, rl.owned, rl.parked,
				rl.nLocal, rl.src, rl.sink, rl.hasRealSrc, rl.hasRealSink, rl.wiring, rl.handles)
			b = dumpGraph(b, rl.tmpl)
		}
	}
	return string(b)
}

// dumpResult writes every field of a Result bit for bit, the exported
// state's graphs and flows included (its layout is the run's own business).
func dumpResult(res *Result) string {
	b := fmt.Appendf(nil, "value %x iters %d converged %t imbalance %x regions %d sizes %v warm %t solves %d skips %d\n",
		math.Float64bits(res.FlowValue), res.Iterations, res.Converged, math.Float64bits(res.Imbalance),
		res.Regions, res.SubproblemSizes, res.WarmStarted, res.RegionSolves, res.RegionSkips)
	for _, h := range res.History {
		b = strconv.AppendUint(append(b, ' '), math.Float64bits(h), 16)
	}
	b = append(b, '\n')
	if res.State != nil {
		for _, g := range res.State.Graphs {
			b = dumpGraph(b, g)
		}
		for _, f := range res.State.Flows {
			b = dumpFlow(b, f)
		}
	}
	return string(b)
}

// firstDiff returns the first line in which two dumps differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\n got: %.300s\nwant: %.300s", i+1, x, y)
		}
	}
	return "no difference"
}

// FuzzShardedLayout drives random update chains through the decomposition
// with the carried state, layout included, and checks every step against a
// run whose state carries the same consensus seed but no layout, so the
// layout is built afresh.  The base is a small sparse R-MAT or segmentation
// grid under a 2–4-region bfs or cluster partition.  Steps retarget
// capacities (to and from zero included), push an overlap vertex's incident
// capacity across its owned-in/owned-out balance (which flips its boundary
// wiring), park, reclaim, append, re-partition with either partitioner, or
// duplicate a private vertex into another region (a partition with the same
// region count and other content).  At every step the stamped region graphs
// and the Results must be bit-identical between the two runs, and neither
// run may write to the carried state.
func FuzzShardedLayout(f *testing.F) {
	f.Add([]byte("\x00\x20\x05\x02\x00\x00\x03\x01\x11\x07\x02\x15\x04\x02\x02\x05\x00\x01\x12\x03\x06\x33"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
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
		capOf := func(b int) float64 { return []float64{0, 1, 7, 55, 100, 400}[b%6] }
		head := next()
		var g *graph.Graph
		if head&1 == 0 {
			g = rmat.MustGenerate(rmat.SparseParams(12+next()%28, int64(next())))
		} else {
			g = graph.MustSegmentationGrid(3+next()%3, 3+next()%3, false, int64(next()))
		}
		regions := 2 + next()%3
		partitioners := []Partitioner{BFSPartitioner{}, ClusterPartitioner{}}
		pt := partitioners[(head>>1)%2]
		part, err := pt.Partition(g, regions)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.CarryState = true
		opts.MaxIterations = 1 + next()%6
		ctx := context.Background()

		var carried *WarmState
		for step := 0; step < 12; step++ {
			before := dumpState(carried)
			var stripped *WarmState
			if carried != nil {
				stripped = &WarmState{Graphs: carried.Graphs, Flows: carried.Flows}
			}
			capFloor, valueScale := capBounds(g)
			stA, errA := stampRegions(g, part, carried, capFloor, valueScale)
			stB, errB := stampRegions(g, part, stripped, capFloor, valueScale)
			if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
				t.Fatalf("step %d: stamp errors differ: %v vs %v", step, errA, errB)
			}
			if errA != nil {
				t.Fatalf("step %d: stamp: %v", step, errA)
			}
			if len(stA.regions) != len(stB.regions) || stA.warm != stB.warm {
				t.Fatalf("step %d: %d regions (warm %t) vs %d (warm %t)",
					step, len(stA.regions), stA.warm, len(stB.regions), stB.warm)
			}
			for r := range stA.regions {
				a, b := string(dumpGraph(nil, stA.regions[r].graph)), string(dumpGraph(nil, stB.regions[r].graph))
				if a != b {
					t.Fatalf("step %d: region %d stamped graph differs from a fresh layout's: %s",
						step, r, firstDiff(a, b))
				}
			}
			warm, cold := opts, opts
			warm.WarmState, cold.WarmState = carried, stripped
			resA, errA := SolveContext(ctx, g, part, warm)
			resB, errB := SolveContext(ctx, g, part, cold)
			if errA != nil || errB != nil {
				t.Fatalf("step %d: solve errors %v / %v", step, errA, errB)
			}
			if a, b := dumpResult(resA), dumpResult(resB); a != b {
				t.Fatalf("step %d: result with the carried layout differs from a fresh layout's: %s",
					step, firstDiff(a, b))
			}
			if after := dumpState(carried); after != before {
				t.Fatalf("step %d: a run wrote to the carried state: %s", step, firstDiff(after, before))
			}
			carried = resA.State
			if next()%5 == 0 {
				carried = carried.Unseeded() // the escalated full run's state
			}

			// Derive the next step's graph or partition.
			op := next()
			g2 := g.Clone()
			m := g2.NumEdges()
			switch op % 7 {
			case 0, 1: // capacity steps on one or two edges
				u := graph.CapacityUpdate{Edges: []int{next() % m}, Capacities: []float64{capOf(next())}}
				if e := next() % m; op&0x40 != 0 && e != u.Edges[0] {
					u.Edges, u.Capacities = append(u.Edges, e), append(u.Capacities, capOf(next()))
				}
				_, err = g2.ApplyCapacityUpdate(u)
			case 2: // an overlap vertex's in- or out-capacity to zero or far up
				var overlap []int
				for v := 0; v < g2.NumVertices(); v++ {
					if part.regionsOf(v) > 1 && v != g2.Source() && v != g2.Sink() {
						overlap = append(overlap, v)
					}
				}
				if len(overlap) == 0 {
					continue
				}
				v := overlap[next()%len(overlap)]
				edges := g2.InEdges(v)
				if op&0x40 != 0 {
					edges = g2.OutEdges(v)
				}
				if len(edges) == 0 {
					continue
				}
				c := 0.0
				if op&0x20 != 0 {
					c = 1000
				}
				_, err = g2.ApplyCapacityUpdate(graph.CapacityUpdate{
					Edges: []int{edges[next()%len(edges)]}, Capacities: []float64{c}})
			case 3: // park
				_, err = g2.ApplyStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{next() % m}})
			case 4: // reclaim a parked slot, or append when none matches
				u, v := next()%g2.NumVertices(), next()%g2.NumVertices()
				if parked := g2.ParkedEdges(); len(parked) > 0 && op&0x40 == 0 {
					e := g2.Edge(parked[next()%len(parked)])
					u, v = e.From, e.To
				}
				_, err = g2.ApplyStructuralUpdate(graph.StructuralUpdate{
					AddEdges: []graph.Edge{{From: u, To: v, Capacity: 1 + capOf(next())}}})
			case 5: // re-partition with either partitioner at the same requested count
				pt = partitioners[(op>>4)%2]
				part, err = pt.Partition(g2, regions)
				if err != nil {
					t.Fatal(err)
				}
			case 6: // duplicate a private vertex into another region
				if part.NumRegions() < 2 {
					continue
				}
				v, r := next()%g2.NumVertices(), next()%part.NumRegions()
				if part.regionsOf(v) != 1 || part.In[r][v] {
					continue
				}
				dup := part.clone()
				dup.In[r][v] = true
				if dup.Validate(g2) == nil {
					part = dup
				}
			}
			if err != nil {
				continue // the step was refused; g stays as it was
			}
			g = g2
		}
	})
}
