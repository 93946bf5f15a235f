package maxflow

import (
	"math"
	"testing"
	"testing/quick"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

var allAlgorithms = []Algorithm{PushRelabel, Dinic, EdmondsKarp}

func solveOrFatal(t *testing.T, g *graph.Graph, alg Algorithm) *graph.Flow {
	t.Helper()
	f, err := Solve(g, alg)
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return f
}

func TestAlgorithmString(t *testing.T) {
	if PushRelabel.String() != "push-relabel" || Dinic.String() != "dinic" || EdmondsKarp.String() != "edmonds-karp" {
		t.Errorf("algorithm names wrong")
	}
	if Algorithm(99).String() == "" {
		t.Errorf("unknown algorithm should still stringify")
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	if _, err := Solve(graph.PaperFigure5(), Algorithm(99)); err != ErrUnknownAlgorithm {
		t.Errorf("expected ErrUnknownAlgorithm, got %v", err)
	}
}

func TestSolveNilGraph(t *testing.T) {
	for _, alg := range allAlgorithms {
		if _, err := Solve(nil, alg); err == nil {
			t.Errorf("%v accepted nil graph", alg)
		}
	}
}

// TestSolveZeroValueGraph pins the one invalid graph the graph package's API
// can produce, the zero value: the kernels no longer run Graph.Validate, so
// checkSolvable must still refuse it.
func TestSolveZeroValueGraph(t *testing.T) {
	if _, err := NewNetwork(&graph.Graph{}); err == nil {
		t.Error("NewNetwork accepted the zero-value graph")
	}
	if _, err := SolveDinic(&graph.Graph{}); err == nil {
		t.Error("SolveDinic accepted the zero-value graph")
	}
	for _, alg := range allAlgorithms {
		if _, err := Solve(&graph.Graph{}, alg); err == nil {
			t.Errorf("%v accepted the zero-value graph", alg)
		}
	}
}

func TestPaperFigure5(t *testing.T) {
	g := graph.PaperFigure5()
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if math.Abs(f.Value-graph.PaperFigure5MaxFlow) > 1e-9 {
			t.Errorf("%v: flow value %g, want %g", alg, f.Value, graph.PaperFigure5MaxFlow)
		}
		if err := VerifyOptimal(g, f, 1e-9); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
		// The optimum is unique on this instance: x1=2, x2=1, x3=1, x4=1, x5=1.
		want := []float64{2, 1, 1, 1, 1}
		for i, w := range want {
			if math.Abs(f.Edge[i]-w) > 1e-9 {
				t.Errorf("%v: edge %d flow %g, want %g", alg, i, f.Edge[i], w)
			}
		}
	}
}

func TestPaperFigure15(t *testing.T) {
	g := graph.PaperFigure15()
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if math.Abs(f.Value-graph.PaperFigure15MaxFlow) > 1e-9 {
			t.Errorf("%v: flow value %g, want %g", alg, f.Value, graph.PaperFigure15MaxFlow)
		}
	}
}

func TestDisconnectedSink(t *testing.T) {
	g := graph.MustNew(4, 0, 3)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 5)
	// no edge into vertex 3
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if f.Value != 0 {
			t.Errorf("%v: flow on disconnected graph %g, want 0", alg, f.Value)
		}
	}
}

func TestNoEdges(t *testing.T) {
	g := graph.MustNew(2, 0, 1)
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if f.Value != 0 || len(f.Edge) != 0 {
			t.Errorf("%v: empty graph misbehaved", alg)
		}
	}
}

func TestSingleEdge(t *testing.T) {
	g := graph.MustNew(2, 0, 1)
	g.MustAddEdge(0, 1, 7.5)
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if math.Abs(f.Value-7.5) > 1e-9 {
			t.Errorf("%v: single edge flow %g, want 7.5", alg, f.Value)
		}
	}
}

func TestParallelEdges(t *testing.T) {
	g := graph.MustNew(3, 0, 2)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 2, 4)
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if math.Abs(f.Value-4) > 1e-9 {
			t.Errorf("%v: parallel edge flow %g, want 4", alg, f.Value)
		}
	}
}

func TestAntiparallelEdges(t *testing.T) {
	g := graph.MustNew(4, 0, 3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 10)
	g.MustAddEdge(1, 2, 5)
	g.MustAddEdge(2, 1, 5)
	g.MustAddEdge(1, 3, 10)
	g.MustAddEdge(2, 3, 10)
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if math.Abs(f.Value-20) > 1e-9 {
			t.Errorf("%v: flow %g, want 20", alg, f.Value)
		}
	}
}

func TestBottleneckDiamond(t *testing.T) {
	// Classic diamond with a cross edge that enables extra flow only if the
	// algorithm reroutes correctly.
	g := graph.MustNew(4, 0, 3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(0, 2, 10)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(1, 3, 8)
	g.MustAddEdge(2, 3, 11)
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if math.Abs(f.Value-19) > 1e-9 {
			t.Errorf("%v: flow %g, want 19", alg, f.Value)
		}
		if err := VerifyOptimal(g, f, 1e-9); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
	}
}

func TestFractionalCapacities(t *testing.T) {
	g := graph.MustNew(4, 0, 3)
	g.MustAddEdge(0, 1, 0.3)
	g.MustAddEdge(0, 2, 0.7)
	g.MustAddEdge(1, 3, 0.5)
	g.MustAddEdge(2, 3, 0.45)
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if math.Abs(f.Value-0.75) > 1e-9 {
			t.Errorf("%v: flow %g, want 0.75", alg, f.Value)
		}
	}
}

func TestMinCutMatchesFlow(t *testing.T) {
	g := graph.PaperFigure5()
	f := solveOrFatal(t, g, Dinic)
	cut, err := MinCut(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cut.Capacity-f.Value) > 1e-9 {
		t.Errorf("min cut %g != max flow %g", cut.Capacity, f.Value)
	}
	// The min cut of Figure 5 separates {s, n1, n2} from {n3, t}... or an
	// equivalent one; what matters is capacity 2 and a valid partition.
	if !cut.SourceSide[g.Source()] || cut.SourceSide[g.Sink()] {
		t.Errorf("cut partition does not separate terminals")
	}
}

func TestMinCutRejectsNonMaximumFlow(t *testing.T) {
	g := graph.PaperFigure5()
	f := graph.NewFlow(g) // zero flow is feasible but not maximum
	if _, err := MinCut(g, f); err == nil {
		t.Errorf("MinCut accepted a non-maximum flow")
	}
}

func TestMinCutFlowSizeMismatch(t *testing.T) {
	g := graph.PaperFigure5()
	if _, err := MinCut(g, &graph.Flow{Edge: []float64{1}}); err == nil {
		t.Errorf("MinCut accepted mismatched flow")
	}
}

func TestVerifyOptimalRejectsInfeasible(t *testing.T) {
	g := graph.PaperFigure5()
	f := graph.NewFlow(g)
	f.Edge[0] = 100 // violates capacity
	if err := VerifyOptimal(g, f, 1e-9); err == nil {
		t.Errorf("VerifyOptimal accepted an infeasible flow")
	}
}

func TestOptimalValue(t *testing.T) {
	v, err := OptimalValue(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-2) > 1e-9 {
		t.Errorf("OptimalValue = %g, want 2", v)
	}
}

func TestLayeredLadderNetwork(t *testing.T) {
	// A deeper network exercising global relabelling: k layers of two
	// vertices each with crossing edges.
	const layers = 12
	n := 2 + 2*layers
	g := graph.MustNew(n, 0, n-1)
	// source to first layer
	g.MustAddEdge(0, 1, 6)
	g.MustAddEdge(0, 2, 6)
	for l := 0; l < layers-1; l++ {
		a, b := 1+2*l, 2+2*l
		c, d := 3+2*l, 4+2*l
		g.MustAddEdge(a, c, 4)
		g.MustAddEdge(a, d, 2)
		g.MustAddEdge(b, c, 2)
		g.MustAddEdge(b, d, 4)
	}
	g.MustAddEdge(n-3, n-1, 6)
	g.MustAddEdge(n-2, n-1, 6)
	want := 12.0
	for _, alg := range allAlgorithms {
		f := solveOrFatal(t, g, alg)
		if math.Abs(f.Value-want) > 1e-9 {
			t.Errorf("%v: ladder flow %g, want %g", alg, f.Value, want)
		}
		if err := VerifyOptimal(g, f, 1e-9); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
	}
}

// Property test: on random R-MAT instances all three algorithms agree on the
// flow value, produce feasible flows, and match the min-cut capacity.
func TestAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(uint64(seed)%40)
		g, err := rmat.Generate(rmat.DefaultParams(n, 4*n, seed))
		if err != nil {
			return false
		}
		var values []float64
		for _, alg := range allAlgorithms {
			fl, err := Solve(g, alg)
			if err != nil {
				return false
			}
			if !fl.CheckFeasibility(g).Feasible(1e-6) {
				return false
			}
			values = append(values, fl.Value)
		}
		for i := 1; i < len(values); i++ {
			if math.Abs(values[i]-values[0]) > 1e-6 {
				return false
			}
		}
		// Min-cut duality for the Dinic solution.
		fl, _ := Solve(g, Dinic)
		cut, err := MinCut(g, fl)
		if err != nil {
			return false
		}
		return math.Abs(cut.Capacity-fl.Value) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSparseInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping large instance in -short mode")
	}
	g := rmat.MustGenerate(rmat.SparseParams(1000, 99))
	fPR := solveOrFatal(t, g, PushRelabel)
	fD := solveOrFatal(t, g, Dinic)
	if math.Abs(fPR.Value-fD.Value) > 1e-6 {
		t.Errorf("push-relabel %g vs dinic %g", fPR.Value, fD.Value)
	}
	if err := VerifyOptimal(g, fPR, 1e-6); err != nil {
		t.Errorf("push-relabel solution not optimal: %v", err)
	}
}
