package lp

import (
	"context"
	"errors"
	"fmt"

	"analogflow/internal/graph"
)

// MaxDenseBytes bounds the memory MaxFlowProblem may commit a max-flow LP
// to: its dense constraint matrix plus the simplex tableau Solve copies it
// into.  A 24×24 segmentation grid (~286 MiB) is past it; every R-MAT
// instance of a few hundred vertices is well within.
const MaxDenseBytes = 256 << 20

// ErrTooLarge is returned, wrapped with the sizes involved, for a max-flow
// LP whose dense matrix and tableau would exceed MaxDenseBytes.  Nothing is
// allocated before the refusal.
var ErrTooLarge = errors.New("lp: program too large for the dense tableau")

// maxFlowDenseBytes is the memory the max-flow LP of g commits to: an
// (E + 2·interior) × E constraint matrix, and the (rows+1) × (E+rows+1)
// tableau Solve builds from it (the program has no negative right-hand side,
// so no artificial columns).  Computed in floating point, so huge graphs
// cannot overflow it.
func maxFlowDenseBytes(g *graph.Graph) float64 {
	e := float64(g.NumEdges())
	rows := e + 2*float64(g.NumVertices()-2)
	return 8 * (rows*e + (rows+1)*(e+rows+1))
}

// This file builds the two linear programs the paper works with: the primal
// max-flow LP of Section 2 (which the analog circuit solves directly) and the
// dual min-cut LP of Figure 12 (Section 6.3), both in the canonical
// inequality form accepted by Solve.

// MaxFlowProblem formulates the max-flow LP for g:
//
//	maximize   sum_{e out of s} f_e  -  sum_{e into s} f_e
//	subject to 0 <= f_e <= c_e                  (capacity, Section 2.1)
//	           sum_in f = sum_out f  per vertex (conservation, Section 2.2)
//
// Variables are the per-edge flows, in the graph's edge order.  Equalities
// become two inequalities.  A program whose matrix and tableau would need
// more than MaxDenseBytes is refused with ErrTooLarge.
func MaxFlowProblem(g *graph.Graph) (*Problem, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := g.NumEdges()
	if n == 0 {
		return nil, fmt.Errorf("lp: graph has no edges")
	}
	if need := maxFlowDenseBytes(g); need > MaxDenseBytes {
		return nil, fmt.Errorf("%w: %d edges and %d vertices need %.0f MiB of matrix and tableau, over the %d MiB limit",
			ErrTooLarge, n, g.NumVertices(), need/(1<<20), MaxDenseBytes>>20)
	}
	p := &Problem{C: make([]float64, n)}
	for _, ei := range g.OutEdges(g.Source()) {
		p.C[ei] += 1
	}
	for _, ei := range g.InEdges(g.Source()) {
		p.C[ei] -= 1
	}
	// Capacity constraints: f_e <= c_e (non-negativity is implicit in the
	// canonical form).
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		row[i] = 1
		p.A = append(p.A, row)
		p.B = append(p.B, g.Edge(i).Capacity)
	}
	// Conservation at every interior vertex, as a pair of inequalities.
	for v := 0; v < g.NumVertices(); v++ {
		if v == g.Source() || v == g.Sink() {
			continue
		}
		row := make([]float64, n)
		for _, ei := range g.InEdges(v) {
			row[ei] += 1
		}
		for _, ei := range g.OutEdges(v) {
			row[ei] -= 1
		}
		neg := make([]float64, n)
		for j, x := range row {
			neg[j] = -x
		}
		p.A = append(p.A, row, neg)
		p.B = append(p.B, 0, 0)
	}
	return p, nil
}

// SolveMaxFlowLP formulates and solves the max-flow LP, returning the optimal
// flow in graph.Flow form.
func SolveMaxFlowLP(g *graph.Graph) (*graph.Flow, error) {
	return SolveMaxFlowLPContext(context.Background(), g)
}

// SolveMaxFlowLPContext is SolveMaxFlowLP with cooperative cancellation
// threaded into the simplex pivot loop.
func SolveMaxFlowLPContext(ctx context.Context, g *graph.Graph) (*graph.Flow, error) {
	p, err := MaxFlowProblem(g)
	if err != nil {
		return nil, err
	}
	res, err := SolveContext(ctx, p)
	if err != nil {
		return nil, err
	}
	f := graph.NewFlow(g)
	copy(f.Edge, res.X)
	f.RecomputeValue(g)
	return f, nil
}

// MinCutProblem formulates the dual LP of Figure 12:
//
//	minimize   sum c_ij d_ij
//	subject to d_ij - p_i + p_j >= 0
//	           p_s - p_t >= 1
//	           d, p >= 0
//
// In canonical (maximisation, <=) form the objective is negated and the >=
// rows are flipped.  The variable layout is [d_0..d_{m-1}, p_0..p_{n-1}].
func MinCutProblem(g *graph.Graph) (*Problem, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := g.NumEdges()
	nv := g.NumVertices()
	if m == 0 {
		return nil, fmt.Errorf("lp: graph has no edges")
	}
	total := m + nv
	p := &Problem{C: make([]float64, total)}
	for i := 0; i < m; i++ {
		p.C[i] = -g.Edge(i).Capacity // maximize -(cost)
	}
	// d_ij - p_i + p_j >= 0  ->  -d_ij + p_i - p_j <= 0
	for i := 0; i < m; i++ {
		e := g.Edge(i)
		row := make([]float64, total)
		row[i] = -1
		row[m+e.From] += 1
		row[m+e.To] -= 1
		p.A = append(p.A, row)
		p.B = append(p.B, 0)
	}
	// p_s - p_t >= 1  ->  -p_s + p_t <= -1
	row := make([]float64, total)
	row[m+g.Source()] = -1
	row[m+g.Sink()] = 1
	p.A = append(p.A, row)
	p.B = append(p.B, -1)
	// Keep the potentials bounded (any optimal solution fits in the unit
	// box): p_i <= 1.
	for v := 0; v < nv; v++ {
		r := make([]float64, total)
		r[m+v] = 1
		p.A = append(p.A, r)
		p.B = append(p.B, 1)
	}
	return p, nil
}

// MinCutResult is the solved dual: the cut value, the vertex potentials and
// the per-edge cut indicators.
type MinCutResult struct {
	Value         float64
	Potentials    []float64
	CutIndicators []float64
}

// SolveMinCutLP formulates and solves the min-cut LP.
func SolveMinCutLP(g *graph.Graph) (*MinCutResult, error) {
	p, err := MinCutProblem(g)
	if err != nil {
		return nil, err
	}
	res, err := Solve(p)
	if err != nil {
		return nil, err
	}
	m := g.NumEdges()
	out := &MinCutResult{
		Value:         -res.Value, // undo the sign flip of the objective
		CutIndicators: append([]float64(nil), res.X[:m]...),
		Potentials:    append([]float64(nil), res.X[m:]...),
	}
	return out, nil
}
