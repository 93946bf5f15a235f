package maxflow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"analogflow/internal/graph"
)

// checkAgainstDinic asserts that f — a flow some solver produced for g — has
// the value Dinic computes on g to 1e-9 relative and verifies optimal.
func checkAgainstDinic(t *testing.T, label string, g *graph.Graph, f *graph.Flow) {
	t.Helper()
	ref, err := SolveDinic(g)
	if err != nil {
		t.Fatalf("%s: dinic: %v", label, err)
	}
	tol := 1e-9 * math.Max(1, math.Abs(ref.Value))
	if math.Abs(f.Value-ref.Value) > tol {
		t.Fatalf("%s: push-relabel value %v, dinic %v", label, f.Value, ref.Value)
	}
	if err := VerifyOptimal(g, f, tol); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// randomCapacity draws an integer or real capacity, zero one time in eight.
func randomCapacity(rng *rand.Rand, real bool) float64 {
	if rng.Intn(8) == 0 {
		return 0
	}
	if real {
		return rng.Float64() * 10
	}
	return float64(1 + rng.Intn(20))
}

// randomNetwork draws a small digraph that exercises every shape the kernel
// must tolerate: random terminals, antiparallel pairs, edges into the source
// and out of the sink, zero-capacity edges and parked slots.
func randomNetwork(rng *rand.Rand, real bool) *graph.Graph {
	n := 4 + rng.Intn(29)
	s := rng.Intn(n)
	t := rng.Intn(n - 1)
	if t >= s {
		t++
	}
	g := graph.MustNew(n, s, t)
	other := func(v int) int {
		u := rng.Intn(n - 1)
		if u >= v {
			u++
		}
		return u
	}
	for k, m := 0, n+rng.Intn(3*n); k < m; k++ {
		u := rng.Intn(n)
		v := other(u)
		g.MustAddEdge(u, v, randomCapacity(rng, real))
		if rng.Intn(4) == 0 {
			g.MustAddEdge(v, u, randomCapacity(rng, real))
		}
	}
	g.MustAddEdge(other(s), s, randomCapacity(rng, real))
	g.MustAddEdge(t, other(t), randomCapacity(rng, real))
	if rng.Intn(3) == 0 {
		u := rng.Intn(n)
		if _, err := g.AddParkedEdge(u, other(u)); err != nil {
			panic(err)
		}
	}
	return g
}

// mutate derives the next graph of a warm chain: either a capacity update
// (UpdateTo) or a structural one that parks an edge or appends new ones
// (StructureTo).
func mutate(rng *rand.Rand, g *graph.Graph, real bool) (*graph.Graph, bool) {
	g2 := g.Clone()
	if rng.Intn(3) > 0 {
		var u graph.CapacityUpdate
		seen := map[int]bool{}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			e := rng.Intn(g.NumEdges())
			if seen[e] || g.ParkedEdge(e) {
				continue
			}
			seen[e] = true
			u.Edges = append(u.Edges, e)
			u.Capacities = append(u.Capacities, randomCapacity(rng, real))
		}
		if len(u.Edges) > 0 {
			if _, err := g2.ApplyCapacityUpdate(u); err != nil {
				panic(err)
			}
		}
		return g2, false
	}
	var u graph.StructuralUpdate
	if e := rng.Intn(g.NumEdges()); rng.Intn(2) == 0 && !g.ParkedEdge(e) {
		u.RemoveEdges = []int{e}
	}
	for k := rng.Intn(3); k >= 0; k-- {
		a := rng.Intn(g.NumVertices())
		b := rng.Intn(g.NumVertices() - 1)
		if b >= a {
			b++
		}
		c := randomCapacity(rng, real)
		if c == 0 {
			c = 1 // insertions need positive capacity
		}
		u.AddEdges = append(u.AddEdges, graph.Edge{From: a, To: b, Capacity: c})
	}
	if _, err := g2.ApplyStructuralUpdate(u); err != nil {
		panic(err)
	}
	return g2, true
}

// TestPushRelabelDifferential holds the two-stage kernel to Dinic on 3,000
// seeded instances, half with integer and half with real capacities: 2,000
// cold random networks and 1,000 push-relabel steps of 250 warm chains.  A
// chain runs 8 steps on one Network through UpdateTo and StructureTo and
// alternates Dinic and push-relabel solves, so stage two starts from flows
// an earlier Dinic step left — cycles through antiparallel pairs included.
// Every push-relabel flow must match Dinic's value to 1e-9 relative, verify
// optimal, and pass the residual certificate.
func TestPushRelabelDifferential(t *testing.T) {
	ctx := context.Background()
	for _, real := range []bool{false, true} {
		t.Run(fmt.Sprintf("real=%v", real), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for k := 0; k < 1000; k++ {
				g := randomNetwork(rng, real)
				net, err := NewNetwork(g)
				if err != nil {
					t.Fatal(err)
				}
				f, err := net.Solve(ctx, PushRelabel)
				if err != nil {
					t.Fatalf("cold %d: %v", k, err)
				}
				label := fmt.Sprintf("cold %d on %v", k, g)
				checkAgainstDinic(t, label, g, f)
				if err := net.Certify(f.Value, 1e-9*math.Max(1, f.Value)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			for chain := 0; chain < 125; chain++ {
				g := randomNetwork(rng, real)
				net, err := NewNetwork(g)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 8; step++ {
					if step > 0 {
						var structural bool
						g, structural = mutate(rng, g, real)
						if structural {
							err = net.StructureTo(g)
						} else {
							err = net.UpdateTo(g)
						}
						if err != nil {
							t.Fatalf("chain %d step %d: %v", chain, step, err)
						}
					}
					alg := PushRelabel
					if (chain+step)%2 == 0 {
						alg = Dinic
					}
					f, err := net.Solve(ctx, alg)
					if err != nil {
						t.Fatalf("chain %d step %d: %v", chain, step, err)
					}
					if alg != PushRelabel {
						continue
					}
					label := fmt.Sprintf("chain %d step %d on %v", chain, step, g)
					checkAgainstDinic(t, label, g, f)
					if err := net.Certify(f.Value, 1e-9*math.Max(1, f.Value)); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		})
	}
}

// TestPushRelabelCancelsWarmFlowCycles seeds a network with a circulation
// around a directed cycle, which stage two meets on the way back from a
// vertex with trapped excess, and checks that the solve still ends on a
// verified maximum flow.
func TestPushRelabelCancelsWarmFlowCycles(t *testing.T) {
	// s=0 -> 1 (cap 5); cycle 1 -> 2 -> 3 -> 1 (cap 4 each); 3 -> t=4
	// (cap 1).  Four units are trapped at the cycle and must flow back.
	g := graph.MustNew(5, 0, 4)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 4)
	g.MustAddEdge(2, 3, 4)
	g.MustAddEdge(3, 1, 4)
	g.MustAddEdge(3, 4, 1)
	net, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []int{1, 2, 3} {
		net.r.push(2*e, 3) // a circulation of 3 units around the cycle
	}
	f, err := net.Solve(context.Background(), PushRelabel)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstDinic(t, "cycle", g, f)
	if f.Value != 1 {
		t.Fatalf("flow value %v, want 1", f.Value)
	}
}

// TestPushRelabelLargeGrids covers the workload the kernel is tuned for:
// 256x256 segmentation grids with four- and eight-neighbourhoods.
func TestPushRelabelLargeGrids(t *testing.T) {
	for _, eight := range []bool{false, true} {
		g := graph.MustSegmentationGrid(256, 256, eight, 3)
		f, err := SolvePushRelabel(g)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDinic(t, fmt.Sprintf("256x256 eight=%v", eight), g, f)
	}
}

// TestPushRelabelReturnsExcessAlongLongChain drives stage two through its
// worst depth: a 250k-vertex chain whose last edge is the bottleneck, so all
// but one unit of the source's push is trapped at the far end and must walk
// back through every vertex.  The depth-first search is iterative, so a
// 4 MB stack suffices.
func TestPushRelabelReturnsExcessAlongLongChain(t *testing.T) {
	if testing.Short() {
		t.Skip("long-chain instance is slow under -short")
	}
	old := debug.SetMaxStack(4 << 20)
	defer debug.SetMaxStack(old)

	const n = 250_000
	g := graph.MustNew(n, 0, n-1)
	g.ReserveEdges(n - 1)
	for v := 0; v+2 < n; v++ {
		g.MustAddEdge(v, v+1, 3)
	}
	g.MustAddEdge(n-2, n-1, 1)
	f, err := SolvePushRelabel(g)
	if err != nil {
		t.Fatal(err)
	}
	if f.Value != 1 {
		t.Fatalf("chain flow %v, want 1", f.Value)
	}
	checkAgainstDinic(t, "long chain", g, f)
}

// countdownCtx is a context whose Err reports context.Canceled from its
// cancelAt-th call on (never when cancelAt is 0), counting every call.
type countdownCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestPushRelabelStageTwoHonoursCancellation cancels the context at stage
// two's first checks — on entry and inside the depth-first search — and
// pins that Network.Solve returns the error instead of a flow.
func TestPushRelabelStageTwoHonoursCancellation(t *testing.T) {
	g := graph.MustSegmentationGrid(128, 128, false, 1)
	// Count the checks runPushRelabel's entry and stage one make.
	probe := &countdownCtx{Context: context.Background()}
	st := getPRState(newResidual(g))
	if err := st.stageOne(probe); err != nil {
		t.Fatal(err)
	}
	putPRState(st)
	beforeStageTwo := 1 + probe.calls

	total := &countdownCtx{Context: context.Background()}
	net, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Solve(total, PushRelabel); err != nil {
		t.Fatal(err)
	}
	if total.calls < beforeStageTwo+2 {
		t.Fatalf("stage two checked the context %d times, want at least 2", total.calls-beforeStageTwo)
	}
	for _, at := range []int{beforeStageTwo + 1, beforeStageTwo + 2} {
		net, err := NewNetwork(g)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: context.Background(), cancelAt: at}
		if _, err := net.Solve(ctx, PushRelabel); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled at check %d: want context.Canceled, got %v", at, err)
		}
	}
}
