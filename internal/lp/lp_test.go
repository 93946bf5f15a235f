package lp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
)

func TestProblemValidate(t *testing.T) {
	ok := &Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	bad := []*Problem{
		{C: nil},
		{C: []float64{1}, A: [][]float64{{1}}, B: []float64{}},
		{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
	}
}

func TestSolveSimple2D(t *testing.T) {
	// maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at (2, 6).
	p := &Problem{
		C: []float64{3, 5},
		A: [][]float64{{1, 0}, {0, 2}, {3, 2}},
		B: []float64{4, 12, 18},
	}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-36) > 1e-6 {
		t.Errorf("value %g, want 36", res.Value)
	}
	if math.Abs(res.X[0]-2) > 1e-6 || math.Abs(res.X[1]-6) > 1e-6 {
		t.Errorf("solution %v, want (2, 6)", res.X)
	}
	if res.Iterations == 0 {
		t.Errorf("expected at least one pivot")
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := &Problem{C: []float64{1, 0}, A: [][]float64{{0, 1}}, B: []float64{1}}
	if _, err := Solve(p); err != ErrUnbounded {
		t.Errorf("expected ErrUnbounded, got %v", err)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x <= 1 and -x <= -3 (i.e. x >= 3) cannot both hold.
	p := &Problem{C: []float64{1}, A: [][]float64{{1}, {-1}}, B: []float64{1, -3}}
	if _, err := Solve(p); err != ErrInfeasible {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// maximize x s.t. -x <= -2 (x >= 2), x <= 5 -> optimum 5.
	p := &Problem{C: []float64{1}, A: [][]float64{{-1}, {1}}, B: []float64{-2, 5}}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-5) > 1e-6 {
		t.Errorf("value %g, want 5", res.Value)
	}
}

func TestMaxFlowLPOnPaperExamples(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"figure5":  graph.PaperFigure5(),
		"figure15": graph.PaperFigure15(),
	} {
		f, err := SolveMaxFlowLP(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := maxflow.OptimalValue(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(f.Value-want) > 1e-6 {
			t.Errorf("%s: LP value %g, combinatorial value %g", name, f.Value, want)
		}
		if !f.CheckFeasibility(g).Feasible(1e-6) {
			t.Errorf("%s: LP flow infeasible", name)
		}
	}
	empty := graph.MustNew(2, 0, 1)
	if _, err := MaxFlowProblem(empty); err == nil {
		t.Errorf("edgeless graph accepted")
	}
}

func TestMinCutLPOnPaperExample(t *testing.T) {
	g := graph.PaperFigure5()
	res, err := SolveMinCutLP(g)
	if err != nil {
		t.Fatal(err)
	}
	// Strong duality: the min-cut LP value equals the max-flow value (2).
	if math.Abs(res.Value-graph.PaperFigure5MaxFlow) > 1e-6 {
		t.Errorf("min-cut LP value %g, want %g", res.Value, graph.PaperFigure5MaxFlow)
	}
	if len(res.Potentials) != g.NumVertices() || len(res.CutIndicators) != g.NumEdges() {
		t.Fatalf("result shapes wrong")
	}
	// The potentials separate the terminals.
	if res.Potentials[g.Source()]-res.Potentials[g.Sink()] < 1-1e-6 {
		t.Errorf("terminal potential separation violated: %v", res.Potentials)
	}
	empty := graph.MustNew(2, 0, 1)
	if _, err := MinCutProblem(empty); err == nil {
		t.Errorf("edgeless graph accepted")
	}
}

// Property: on random small instances the max-flow LP, the min-cut LP and the
// combinatorial solvers all agree (strong duality).
func TestLPDualityOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		n := 5 + int(uint64(seed)%8)
		g, err := rmat.Generate(rmat.DefaultParams(n, 2*n, seed))
		if err != nil {
			return false
		}
		want, err := maxflow.OptimalValue(g)
		if err != nil {
			return false
		}
		fl, err := SolveMaxFlowLP(g)
		if err != nil {
			return false
		}
		cut, err := SolveMinCutLP(g)
		if err != nil {
			return false
		}
		return math.Abs(fl.Value-want) < 1e-5 && math.Abs(cut.Value-want) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxFlowProblemRefusesTooLarge: a program past MaxDenseBytes is refused
// with ErrTooLarge, and one just under it is formulated.
func TestMaxFlowProblemRefusesTooLarge(t *testing.T) {
	if _, err := MaxFlowProblem(graph.MustSegmentationGrid(24, 24, false, 1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("24x24 grid (~286 MiB): err %v, want ErrTooLarge", err)
	}
	if _, err := MaxFlowProblem(graph.MustSegmentationGrid(23, 23, false, 1)); err != nil {
		t.Errorf("23x23 grid (~240 MiB): %v", err)
	}
}
