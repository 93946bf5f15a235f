package maxflow

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// applyUpdate returns a copy of g with the given capacity update applied.
func applyUpdate(t *testing.T, g *graph.Graph, u graph.CapacityUpdate) *graph.Graph {
	t.Helper()
	g2 := g.Clone()
	if _, err := g2.ApplyCapacityUpdate(u); err != nil {
		t.Fatal(err)
	}
	return g2
}

// TestNetworkColdMatchesSolve pins that a fresh Network's Solve is the same
// computation as the package-level entry points: identical flows, edge for
// edge.
func TestNetworkColdMatchesSolve(t *testing.T) {
	graphs := []*graph.Graph{
		graph.PaperFigure5(),
		rmat.MustGenerate(rmat.SparseParams(64, 3)),
		rmat.MustGenerate(rmat.DenseParams(48, 5)),
	}
	for _, g := range graphs {
		for _, alg := range []Algorithm{Dinic, EdmondsKarp, PushRelabel} {
			want, err := Solve(g, alg)
			if err != nil {
				t.Fatal(err)
			}
			net, err := NewNetwork(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := net.Solve(context.Background(), alg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != want.Value {
				t.Fatalf("%s on %v: cold network value %g, direct %g", alg, g, got.Value, want.Value)
			}
			for i := range want.Edge {
				if got.Edge[i] != want.Edge[i] {
					t.Fatalf("%s on %v: edge %d flow %g, direct %g", alg, g, i, got.Edge[i], want.Edge[i])
				}
			}
		}
	}
}

// TestNetworkWarmMatchesCold runs a randomized sequence of capacity updates —
// increases, decreases below the carried flow (forcing drains), and zeroing —
// and checks after every step that the warm re-solve reaches exactly the cold
// max-flow value with a verified-optimal flow.
func TestNetworkWarmMatchesCold(t *testing.T) {
	for _, alg := range []Algorithm{Dinic, EdmondsKarp, PushRelabel} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			g := rmat.MustGenerate(rmat.SparseParams(48, 11))
			net, err := NewNetwork(g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := net.Solve(context.Background(), alg); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 12; step++ {
				// Mutate a handful of random edges; bias toward decreases so
				// the drain path is exercised hard.
				var upd graph.CapacityUpdate
				seen := map[int]bool{}
				for len(upd.Edges) < 5 {
					e := rng.Intn(g.NumEdges())
					if seen[e] {
						continue
					}
					seen[e] = true
					var c float64
					switch rng.Intn(4) {
					case 0:
						c = g.Edge(e).Capacity + float64(rng.Intn(50))
					case 1, 2:
						c = math.Floor(g.Edge(e).Capacity / 2)
					default:
						c = 0
					}
					upd.Edges = append(upd.Edges, e)
					upd.Capacities = append(upd.Capacities, c)
				}
				g = applyUpdate(t, g, upd)
				if err := net.UpdateTo(g); err != nil {
					t.Fatalf("step %d: UpdateTo: %v", step, err)
				}
				// The drained intermediate state must already be feasible.
				if rep := net.Flow().CheckFeasibility(g); !rep.Feasible(1e-9) {
					t.Fatalf("step %d: drained flow infeasible: %v", step, rep)
				}
				warm, err := net.Solve(context.Background(), alg)
				if err != nil {
					t.Fatalf("step %d: warm solve: %v", step, err)
				}
				cold, err := Solve(g, alg)
				if err != nil {
					t.Fatalf("step %d: cold solve: %v", step, err)
				}
				if warm.Value != cold.Value {
					t.Fatalf("step %d: warm value %g, cold value %g", step, warm.Value, cold.Value)
				}
				if err := VerifyOptimal(g, warm, 1e-6); err != nil {
					t.Fatalf("step %d: warm flow not optimal: %v", step, err)
				}
			}
		})
	}
}

// TestNetworkUpdateToRejectsStructuralChange pins that UpdateTo only accepts
// capacity-level differences.
func TestNetworkUpdateToRejectsStructuralChange(t *testing.T) {
	g := graph.PaperFigure5()
	net, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	bigger := graph.MustNew(5, 0, 4)
	bigger.MustAddEdge(0, 1, 3)
	if err := net.UpdateTo(bigger); err == nil {
		t.Fatal("UpdateTo accepted a graph with a different edge count")
	}
	rewired := graph.MustNew(5, 0, 4)
	rewired.MustAddEdge(0, 1, 3)
	rewired.MustAddEdge(1, 2, 2)
	rewired.MustAddEdge(1, 3, 1)
	rewired.MustAddEdge(2, 4, 1)
	rewired.MustAddEdge(3, 2, 2) // endpoint differs from figure5's edge 4
	if err := net.UpdateTo(rewired); err == nil {
		t.Fatal("UpdateTo accepted a rewired edge list")
	}
	if err := net.UpdateTo(nil); err == nil {
		t.Fatal("UpdateTo accepted nil")
	}
}

// TestCertifyAcceptsSolvedNetworks pins that every algorithm's solved
// residual state certifies its own value, on an integer R-MAT instance and a
// real-capacity grid.
func TestCertifyAcceptsSolvedNetworks(t *testing.T) {
	for _, g := range []*graph.Graph{
		rmat.MustGenerate(rmat.SparseParams(96, 5)),
		graph.MustSegmentationGrid(24, 24, true, 2),
	} {
		for _, alg := range allAlgorithms {
			net, err := NewNetwork(g)
			if err != nil {
				t.Fatal(err)
			}
			f, err := net.Solve(context.Background(), alg)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Certify(f.Value, 1e-9*math.Max(1, f.Value)); err != nil {
				t.Errorf("%v on %v: %v", alg, g, err)
			}
		}
	}
}

// TestCertifyRejectsBadStates pins the three checks of the certificate, each
// on a state that breaks only that check, plus a value that does not match
// the cut.
func TestCertifyRejectsBadStates(t *testing.T) {
	g := graph.PaperFigure5()
	solved := func(t *testing.T) (*Network, float64) {
		t.Helper()
		net, err := NewNetwork(g)
		if err != nil {
			t.Fatal(err)
		}
		f, err := net.Solve(context.Background(), Dinic)
		if err != nil {
			t.Fatal(err)
		}
		return net, f.Value
	}
	cases := []struct {
		name  string
		setup func(t *testing.T) (*Network, float64)
		want  string
	}{
		{"sink reachable", func(t *testing.T) (*Network, float64) {
			net, err := NewNetwork(g) // zero flow: the sink is one path away
			if err != nil {
				t.Fatal(err)
			}
			return net, 0
		}, "sink is reachable"},
		{"conservation broken", func(t *testing.T) (*Network, float64) {
			net, v := solved(t)
			// Edge 1 (n1 -> n2) carries flow; drop one unit of it without
			// touching its neighbours, leaving n1 and n2 unbalanced.
			net.r.push(3, 1)
			return net, v
		}, "conservation"},
		{"arc bound broken", func(t *testing.T) (*Network, float64) {
			net, v := solved(t)
			net.r.arcs[0].cap, net.r.arcs[1].cap = -1, net.r.arcs[0].cap+net.r.arcs[1].cap+1
			return net, v
		}, "negative residual"},
		{"value off the cut", func(t *testing.T) (*Network, float64) {
			net, v := solved(t)
			return net, v + 1e-6
		}, "cut capacity"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net, v := c.setup(t)
			err := net.Certify(v, 1e-9)
			if !errors.Is(err, ErrNotCertified) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Certify = %v, want ErrNotCertified naming %q", err, c.want)
			}
		})
	}
}
