package solve

import (
	"context"
	"math"
	"sync"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
)

// exactMemoCold reports whether the problem's exact-value memo holds no
// value.
func exactMemoCold(p *Problem) bool { return !p.pipe.exact.Done() }

// routes are the entry paths solveVia takes into a backend.
var routes = []string{"registry", "service", "cached", "chain", "update", "sharded"}

// solveVia runs one backend on p along one entry path and returns the
// report with the problem it answers for:
//   - registry: Registry.Solve;
//   - service: a fresh service's Solve;
//   - cached: the second of two solves on one service, a cache hit for a
//     warmable backend;
//   - chain: a chain start (Request.Updatable);
//   - update: one capacity Service.Update step from a chain started at p,
//     which raises edge 0's capacity by one; the report answers for the
//     step's problem;
//   - sharded: a solve under a service budget one vertex below p's size,
//     which the planner shards when the partition splits.
//
// Every report must name its backend and carry the relative error of its
// flow value against its exact value, bit for bit.
func solveVia(t *testing.T, via, name string, p *Problem) (*Report, *Problem) {
	t.Helper()
	ctx := context.Background()
	svc := NewService(Config{Workers: 1})
	solve := func(updatable bool) (*Report, error) {
		return svc.Solve(ctx, Request{Solver: name, Problem: p, Updatable: updatable})
	}
	var rep *Report
	var err error
	switch via {
	case "registry":
		rep, err = DefaultRegistry().Solve(ctx, name, p)
	case "service":
		rep, err = solve(false)
	case "cached":
		if _, err = solve(false); err == nil {
			rep, err = solve(false)
		}
	case "chain":
		rep, err = solve(true)
	case "update":
		if _, err = solve(true); err == nil {
			var res *UpdateResult
			up := graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{p.Graph().Edge(0).Capacity + 1}}
			if res, err = svc.Update(ctx, UpdateRequest{Solver: name, Problem: p, Update: up}); err == nil {
				rep, p = res.Report, res.Problem
			}
		}
	case "sharded":
		svc = NewService(Config{Workers: 1, Budget: Budget{MaxVertices: p.Graph().NumVertices() - 1}})
		rep, err = solve(false)
	default:
		t.Fatalf("unknown route %q", via)
	}
	if err != nil {
		t.Fatalf("%s via %s: %v", name, via, err)
	}
	if rep.Solver != name {
		t.Errorf("%s via %s: report names %q", name, via, rep.Solver)
	}
	if want := graph.RelativeError(rep.FlowValue, rep.ExactValue); math.Float64bits(rep.RelativeError) != math.Float64bits(want) {
		t.Errorf("%s via %s: relative error %v, want graph.RelativeError(%v, %v) = %v",
			name, via, rep.RelativeError, rep.FlowValue, rep.ExactValue, want)
	}
	return rep, p
}

// sharded reports whether the planner split the report's problem.
func sharded(rep *Report) bool { return rep.Plan != nil && rep.Plan.Sharded }

// dinicReference is the Dinic value of p's s-t core, the reference every
// uncertified report reads.
func dinicReference(t *testing.T, p *Problem) float64 {
	t.Helper()
	coreG, _ := p.STCore()
	exact, err := maxflow.OptimalValue(coreG)
	if err != nil {
		t.Fatal(err)
	}
	return exact
}

// TestCPUReportsCertifyTheirOptimum pins the certified exact value:
// push-relabel and Edmonds-Karp reports, along every entry path, carry
// ExactValue == FlowValue and RelativeError 0, agree with Dinic to 1e-9
// relative, and leave the problem's Dinic memo cold — no second max-flow
// solve ran.  A sharded report follows the reference row instead: it reads
// the Dinic reference, whatever its regions certified.
func TestCPUReportsCertifyTheirOptimum(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": rmat.MustGenerate(rmat.SparseParams(96, 3)),
		"grid": graph.MustSegmentationGrid(32, 24, true, 4),
	}
	for gname, g := range graphs {
		for _, name := range []string{"push-relabel", "edmonds-karp"} {
			for _, via := range routes {
				p, err := NewProblem(g)
				if err != nil {
					t.Fatal(err)
				}
				rep, p := solveVia(t, via, name, p)
				if sharded(rep) {
					if exact := dinicReference(t, p); rep.ExactValue != exact {
						t.Errorf("%s/%s via %s: sharded exact value %v, want the Dinic reference %v",
							gname, name, via, rep.ExactValue, exact)
					}
					continue
				}
				if rep.ExactValue != rep.FlowValue || rep.RelativeError != 0 {
					t.Errorf("%s/%s via %s: exact %v, flow %v, relative error %v; want a certified report",
						gname, name, via, rep.ExactValue, rep.FlowValue, rep.RelativeError)
				}
				exact, err := maxflow.OptimalValue(p.Graph())
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(rep.FlowValue-exact) > 1e-9*math.Max(1, exact) {
					t.Errorf("%s/%s via %s: flow %v, dinic %v", gname, name, via, rep.FlowValue, exact)
				}
				if !exactMemoCold(p) {
					t.Errorf("%s/%s via %s: the report ran or seeded the Dinic reference", gname, name, via)
				}
			}
		}
	}
}

// TestFailedCertificateFallsBackToDinic pins the fallback: a CPU flow whose
// residual does not certify it — here a zero flow passed off as maximum, the
// shape of a kernel defect — is finished against the Dinic reference, with
// the resulting non-zero relative error.
func TestFailedCertificateFallsBackToDinic(t *testing.T) {
	p, err := NewProblem(rmat.MustGenerate(rmat.SparseParams(48, 6)))
	if err != nil {
		t.Fatal(err)
	}
	coreG, _ := p.STCore()
	net, err := maxflow.NewNetwork(coreG)
	if err != nil {
		t.Fatal(err)
	}
	pf := reference
	if net.Certify(0, 1e-9) == nil {
		pf = certified
	}
	rep, err := p.finish(context.Background(), "push-relabel", &Report{}, net.Flow(), pf, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := maxflow.OptimalValue(coreG)
	if err != nil {
		t.Fatal(err)
	}
	if exact == 0 {
		t.Fatal("test instance has no flow to lose")
	}
	if rep.ExactValue != exact || rep.RelativeError != 1 {
		t.Fatalf("uncertified report: exact %v (dinic %v), relative error %v; want the Dinic reference and error 1",
			rep.ExactValue, exact, rep.RelativeError)
	}
}

// TestReferenceBackendsKeepDinicReference pins that the backends without a
// certificate still report against the problem's Dinic reference along
// every entry path: dinic seeds it, and behavioral, lp and decompose read
// it.  The instances are a sparse R-MAT graph and one whose s-t core the
// prune empties (0→1 and 2→3 with s = 0, t = 3), on which every flow
// backend reports the prune counts dinic reports.
func TestReferenceBackendsKeepDinicReference(t *testing.T) {
	empty, err := graph.New(4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	empty.MustAddEdge(0, 1, 1)
	empty.MustAddEdge(2, 3, 1)
	graphs := map[string]*graph.Graph{"rmat": rmat.MustGenerate(rmat.SparseParams(24, 7)), "empty": empty}
	for gname, g := range graphs {
		for _, via := range routes {
			for _, name := range []string{"dinic", "behavioral", "lp", "decompose"} {
				p, err := NewProblem(g)
				if err != nil {
					t.Fatal(err)
				}
				rep, p := solveVia(t, via, name, p)
				if exact := dinicReference(t, p); rep.ExactValue != exact {
					t.Errorf("%s/%s via %s: exact value %v, want the Dinic reference %v", gname, name, via, rep.ExactValue, exact)
				}
				if exactMemoCold(p) {
					t.Errorf("%s/%s via %s: the Dinic reference was not memoised", gname, name, via)
				}
			}
		}
	}
	// The prune empties the core, so no quantization pass removes more for
	// the analog backends.
	var want *Report
	for _, name := range []string{"dinic", "edmonds-karp", "push-relabel", "behavioral", "circuit", "lp"} {
		p, err := NewProblem(empty)
		if err != nil {
			t.Fatal(err)
		}
		rep, _ := solveVia(t, "registry", name, p)
		if want == nil {
			want = rep
			if rep.PrunedVertices == 0 || rep.PrunedEdges == 0 {
				t.Fatalf("dinic prunes %d vertices and %d edges of the empty-core instance", rep.PrunedVertices, rep.PrunedEdges)
			}
		} else if rep.PrunedVertices != want.PrunedVertices || rep.PrunedEdges != want.PrunedEdges {
			t.Errorf("%s prunes %d vertices and %d edges, dinic %d and %d",
				name, rep.PrunedVertices, rep.PrunedEdges, want.PrunedVertices, want.PrunedEdges)
		}
	}
}

// TestBackendsLeaveGridUnchanged pins that the copy-free prune is safe: a
// grid's s-t core is the problem's graph itself, and after every backend has
// solved the problem its edge list and parked set are unchanged.  The grid is
// small enough for the circuit backend's clean-variation solve to converge.
func TestBackendsLeaveGridUnchanged(t *testing.T) {
	g := graph.MustSegmentationGrid(3, 2, false, 1)
	p, err := NewProblem(g, WithParams(circuitParams()))
	if err != nil {
		t.Fatal(err)
	}
	if coreG, pr := p.STCore(); coreG != g || pr.RemovedEdges+pr.RemovedVertices != 0 {
		t.Fatalf("grid core %v is not the problem's graph %v", coreG, g)
	}
	before := g.Edges()
	reg := DefaultRegistry()
	for _, name := range reg.Names() {
		if _, err := reg.Solve(context.Background(), name, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	after := g.Edges()
	if len(after) != len(before) || g.NumParked() != 0 {
		t.Fatalf("edge list changed: %d edges before, %d after, %d parked", len(before), len(after), g.NumParked())
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("edge %d changed from %+v to %+v", i, before[i], after[i])
		}
	}
}

// TestWithUpdateSeedsIdentityCore pins that a capacity update of a problem
// whose core is its own graph seeds the updated problem's core with the
// patched clone itself, leaving the base graph untouched.
func TestWithUpdateSeedsIdentityCore(t *testing.T) {
	g := graph.MustSegmentationGrid(12, 12, false, 5)
	p, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	if coreG, _ := p.STCore(); coreG != g {
		t.Fatal("grid core is not the problem's graph")
	}
	before := g.Edge(7).Capacity
	p2, err := p.WithUpdate(graph.CapacityUpdate{Edges: []int{7}, Capacities: []float64{before + 2}})
	if err != nil {
		t.Fatal(err)
	}
	core2, pr2 := p2.STCore()
	if core2 != p2.Graph() || pr2.Graph != p2.Graph() {
		t.Fatalf("updated core %v is not the updated problem's graph %v", core2, p2.Graph())
	}
	if g.Edge(7).Capacity != before || p2.Graph().Edge(7).Capacity != before+2 {
		t.Fatalf("capacities: base %v (want %v), updated %v (want %v)",
			g.Edge(7).Capacity, before, p2.Graph().Edge(7).Capacity, before+2)
	}
	rep, _ := solveVia(t, "registry", "push-relabel", p2)
	exact, err := maxflow.OptimalValue(p2.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.FlowValue-exact) > 1e-9*math.Max(1, exact) {
		t.Fatalf("updated problem flow %v, dinic %v", rep.FlowValue, exact)
	}
}

// TestExactMemoSharedUnderRace races every way into a fresh problem's exact
// value — building the analog bundle, ExactValue, a dinic solve (which seeds
// the memo), a behavioral solve (whose finalize reads it through the bundle)
// and an updatable behavioral solve (whose warm reference network seeds it)
// — and checks that all of them see one value, the Dinic reference of the
// problem's s-t core.  Run under -race.
func TestExactMemoSharedUnderRace(t *testing.T) {
	ctx := context.Background()
	reg := DefaultRegistry()
	behavioral, err := reg.Get("behavioral")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 50; seed++ {
		p, err := NewProblem(rmat.MustGenerate(rmat.SparseParams(24, seed)))
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg                       sync.WaitGroup
			prep                     *core.Prepared
			exact                    float64
			dinicRep, behRep, updRep *Report
			errs                     [5]error
		)
		wg.Add(5)
		go func() { defer wg.Done(); prep, errs[0] = p.Prepared() }()
		go func() { defer wg.Done(); exact, errs[1] = p.ExactValue(ctx) }()
		go func() { defer wg.Done(); dinicRep, errs[2] = reg.Solve(ctx, "dinic", p) }()
		go func() { defer wg.Done(); behRep, errs[3] = reg.Solve(ctx, "behavioral", p) }()
		go func() {
			defer wg.Done()
			inst, err := behavioral.(UpdatableSolver).NewUpdatableInstance(p)
			if err != nil {
				errs[4] = err
				return
			}
			updRep, errs[4] = inst.Solve(ctx)
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d: racer %d: %v", seed, i, err)
			}
		}
		coreG, _ := p.STCore()
		want, err := maxflow.OptimalValue(coreG)
		if err != nil {
			t.Fatal(err)
		}
		prepExact, err := prep.ExactValue(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]float64{
			"ExactValue": exact, "Prepared": prepExact, "dinic flow": dinicRep.FlowValue,
			"dinic report": dinicRep.ExactValue, "behavioral report": behRep.ExactValue,
			"updatable behavioral report": updRep.ExactValue,
		} {
			if got != want {
				t.Errorf("seed %d: %s sees exact value %v, want %v", seed, name, got, want)
			}
		}
	}
}
