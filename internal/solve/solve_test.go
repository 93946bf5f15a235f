package solve

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/decompose"
	"analogflow/internal/graph"
	"analogflow/internal/lp"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
)

// outcome is a solve result reduced to what the equivalence test compares:
// the flow value, or the error when the backend failed.
type outcome struct {
	value float64
	err   error
}

// directOutcome runs a backend's pre-refactor entry point on g.
func directOutcome(t *testing.T, name string, g *graph.Graph, params core.Params) outcome {
	t.Helper()
	switch name {
	case "behavioral", "circuit":
		p := params
		if name == "circuit" {
			p.Mode = core.ModeCircuit
		} else {
			p.Mode = core.ModeBehavioral
		}
		s, err := core.NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(g)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{value: res.FlowValue}
	case "dinic", "edmonds-karp", "push-relabel":
		alg := map[string]maxflow.Algorithm{
			"dinic":        maxflow.Dinic,
			"edmonds-karp": maxflow.EdmondsKarp,
			"push-relabel": maxflow.PushRelabel,
		}[name]
		f, err := maxflow.Solve(g, alg)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{value: f.Value}
	case "lp":
		f, err := lp.SolveMaxFlowLP(g)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{value: f.Value}
	case "decompose":
		res, err := decompose.Solve(g, decompose.BisectByBFS(g), decompose.DefaultOptions())
		if err != nil {
			return outcome{err: err}
		}
		return outcome{value: res.FlowValue}
	default:
		t.Fatalf("unknown backend %q", name)
		return outcome{}
	}
}

// TestBackendsMatchPreRefactorEntryPoints is the acceptance criterion of the
// unification: every backend, invoked by name through the registry, must
// produce the same flow value (or, for the documented circuit-mode fragility
// on general graphs, the same failure) as the entry point callers used
// before the refactor — on the paper's worked example and on an R-MAT
// instance.
func TestBackendsMatchPreRefactorEntryPoints(t *testing.T) {
	params := core.DefaultParams()
	workloads := []struct {
		name string
		g    *graph.Graph
	}{
		{"figure5", graph.PaperFigure5()},
		{"rmat-sparse-16", rmat.MustGenerate(rmat.SparseParams(16, 7))},
	}
	reg := DefaultRegistry()
	for _, w := range workloads {
		prob, err := NewProblem(w.g, WithParams(params))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range reg.Names() {
			t.Run(w.name+"/"+name, func(t *testing.T) {
				want := directOutcome(t, name, w.g, params)
				rep, err := reg.Solve(context.Background(), name, prob)
				if want.err != nil {
					if err == nil {
						t.Fatalf("direct entry point failed (%v) but unified solve succeeded", want.err)
					}
					if err.Error() != want.err.Error() {
						t.Fatalf("error mismatch:\n  direct:  %v\n  unified: %v", want.err, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("unified solve failed where direct succeeded: %v", err)
				}
				tol := 1e-9 * math.Max(1, math.Abs(want.value))
				if math.Abs(rep.FlowValue-want.value) > tol {
					t.Fatalf("flow value mismatch: direct %.12g, unified %.12g", want.value, rep.FlowValue)
				}
				if rep.Solver != name {
					t.Errorf("report names solver %q, want %q", rep.Solver, name)
				}
				if rep.ExactValue == 0 && want.value != 0 {
					t.Errorf("report is missing the exact reference value")
				}
			})
		}
	}
}

func TestNewProblemValidation(t *testing.T) {
	var verr *ValidationError
	if _, err := NewProblem(nil); err == nil || !errors.As(err, &verr) {
		t.Fatalf("nil graph: want *ValidationError, got %v", err)
	}
	// The zero value is the one invalid graph the graph package's API can
	// produce; every constructor validates what it builds.
	if _, err := NewProblem(&graph.Graph{}); err == nil || !errors.As(err, &verr) {
		t.Fatalf("zero-value graph: want *ValidationError, got %v", err)
	}
	bad := core.DefaultParams()
	bad.VflowMultiplier = -1
	if _, err := NewProblem(graph.PaperFigure5(), WithParams(bad)); err == nil || !errors.As(err, &verr) {
		t.Fatalf("bad params: want *ValidationError, got %v", err)
	}
	badDec := decompose.Options{MaxIterations: 0, StepSize: 1, Tolerance: 1}
	if _, err := NewProblem(graph.PaperFigure5(), WithDecomposeOptions(badDec)); err == nil || !errors.As(err, &verr) {
		t.Fatalf("bad decompose options: want *ValidationError, got %v", err)
	}
}

// TestNonFiniteCapacityRejectedTyped pins that a NaN or infinite capacity
// can enter a Problem neither through a parse nor through an update: every
// path answers a *ValidationError wrapping graph.ErrNonFiniteCapacity instead
// of a silently wrong flow value.
func TestNonFiniteCapacityRejectedTyped(t *testing.T) {
	check := func(what string, err error) {
		t.Helper()
		var verr *ValidationError
		if !errors.As(err, &verr) || !errors.Is(err, graph.ErrNonFiniteCapacity) {
			t.Errorf("%s: want *ValidationError wrapping ErrNonFiniteCapacity, got %v", what, err)
		}
	}
	for _, c := range []string{"inf", "-Inf", "NaN", "+infinity"} {
		_, err := FromDIMACS(strings.NewReader("p max 4 4\nn 1 s\nn 4 t\na 1 2 " + c + "\na 2 4 3\na 1 3 2\na 3 4 1\n"))
		check("FromDIMACS "+c, err)
	}
	base, err := NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := base.WithUpdate(graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{c}})
		check("WithUpdate", err)
		_, err = base.WithStructuralUpdate(graph.StructuralUpdate{AddEdges: []graph.Edge{{From: 1, To: 4, Capacity: c}}})
		check("WithStructuralUpdate", err)
		svc := NewService(Config{Workers: 1})
		_, err = svc.Update(context.Background(), UpdateRequest{Solver: "dinic", Problem: base,
			Update: graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{c}}})
		check("Service.Update", err)
	}
}

// TestSameSourceSinkRejectedTyped pins the fix for the silent-acceptance
// issue: an instance whose source equals its sink can only arrive through a
// parse (the in-memory constructors already reject it), and the problem
// constructor must surface the typed cause.
func TestSameSourceSinkRejectedTyped(t *testing.T) {
	dimacs := "p max 3 1\nn 1 s\nn 1 t\na 1 2 5\n"
	_, err := FromDIMACS(strings.NewReader(dimacs))
	if err == nil {
		t.Fatal("source == sink accepted")
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	if !errors.Is(err, graph.ErrSameSourceSink) {
		t.Fatalf("want errors.Is(err, graph.ErrSameSourceSink), got %v", err)
	}
}

func TestFingerprint(t *testing.T) {
	p1, err := NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewProblem(graph.PaperFigure5())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Errorf("same content, different fingerprints")
	}
	if p1.Fingerprint() != p1.Fingerprint() {
		t.Errorf("fingerprint not stable")
	}
	g := graph.PaperFigure5()
	caps := make([]float64, g.NumEdges())
	for i := range caps {
		caps[i] = g.Edge(i).Capacity
	}
	caps[0]++
	g2, err := g.WithCapacities(caps)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := NewProblem(g2)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Fingerprint() == p1.Fingerprint() {
		t.Errorf("different capacities, same fingerprint")
	}
	other := core.DefaultParams().WithLevels(10)
	p4, err := NewProblem(graph.PaperFigure5(), WithParams(other))
	if err != nil {
		t.Fatal(err)
	}
	if p4.Fingerprint() == p1.Fingerprint() {
		t.Errorf("different params, same fingerprint")
	}
	// The mode field is ignored by the backends (each forces its own), so it
	// must not fragment the cache key.
	modeParams := core.DefaultParams()
	modeParams.Mode = core.ModeCircuit
	p5, err := NewProblem(graph.PaperFigure5(), WithParams(modeParams))
	if err != nil {
		t.Fatal(err)
	}
	if p5.Fingerprint() != p1.Fingerprint() {
		t.Errorf("params.Mode fragmented the fingerprint")
	}
	// Function-valued hooks are not content-hashable: such problems must be
	// unique, never aliased.
	fp := core.DefaultParams()
	fp.Builder.PerturbResistance = func(r float64) float64 { return r }
	p6, err := NewProblem(graph.PaperFigure5(), WithParams(fp))
	if err != nil {
		t.Fatal(err)
	}
	p7, err := NewProblem(graph.PaperFigure5(), WithParams(fp))
	if err != nil {
		t.Fatal(err)
	}
	if p6.Fingerprint() == p1.Fingerprint() || p6.Fingerprint() == p7.Fingerprint() {
		t.Errorf("closure-carrying problems must have unique fingerprints")
	}
}

// TestPipelineArtifactsShared pins that the staged pipeline computes each
// artifact once: the prune stage's core graph is the same object every time
// and is the graph the quantize stage's Prepared bundle wraps.
func TestPipelineArtifactsShared(t *testing.T) {
	p, err := NewProblem(rmat.MustGenerate(rmat.SparseParams(32, 3)))
	if err != nil {
		t.Fatal(err)
	}
	c1, pr1 := p.STCore()
	c2, pr2 := p.STCore()
	if c1 != c2 || pr1 != pr2 {
		t.Fatalf("prune stage recomputed")
	}
	prep, err := p.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	if prep.Core() != c1 {
		t.Errorf("Prepared did not reuse the shared s-t core")
	}
	prep2, err := p.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	if prep2 != prep {
		t.Errorf("quantize stage recomputed")
	}
	v1, err := p.ExactValue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p.ExactValue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("exact value changed between calls: %g vs %g", v1, v2)
	}
}

// TestContextCancellationReachesBackends verifies that an already-cancelled
// context aborts every backend with the context's error — the cancellation
// checks are threaded into the inner loops, not just the entry points.
func TestContextCancellationReachesBackends(t *testing.T) {
	prob, err := NewProblem(rmat.MustGenerate(rmat.SparseParams(64, 5)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := DefaultRegistry()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			// A fresh problem per backend keeps lazily cached artifacts
			// (exact value, prepared bundle) from masking the cancellation.
			p, err := NewProblem(prob.Graph())
			if err != nil {
				t.Fatal(err)
			}
			_, err = reg.Solve(ctx, name, p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
	}
}
