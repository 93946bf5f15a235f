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

// solveVia runs one backend on p through the registry or a fresh service.
func solveVia(t *testing.T, via, name string, p *Problem) *Report {
	t.Helper()
	var rep *Report
	var err error
	switch via {
	case "registry":
		rep, err = DefaultRegistry().Solve(context.Background(), name, p)
	case "service":
		rep, err = NewService(Config{Workers: 1}).Solve(context.Background(), Request{Solver: name, Problem: p})
	default:
		t.Fatalf("unknown route %q", via)
	}
	if err != nil {
		t.Fatalf("%s via %s: %v", name, via, err)
	}
	return rep
}

// TestCPUReportsCertifyTheirOptimum pins the certified exact value:
// push-relabel and Edmonds-Karp reports, through the registry and the
// service alike, carry ExactValue == FlowValue and RelativeError 0, agree
// with Dinic to 1e-9 relative, and leave the problem's Dinic memo cold — no
// second max-flow solve ran.
func TestCPUReportsCertifyTheirOptimum(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": rmat.MustGenerate(rmat.SparseParams(96, 3)),
		"grid": graph.MustSegmentationGrid(32, 24, true, 4),
	}
	for gname, g := range graphs {
		exact, err := maxflow.OptimalValue(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"push-relabel", "edmonds-karp"} {
			for _, via := range []string{"registry", "service"} {
				p, err := NewProblem(g)
				if err != nil {
					t.Fatal(err)
				}
				rep := solveVia(t, via, name, p)
				if rep.ExactValue != rep.FlowValue || rep.RelativeError != 0 {
					t.Errorf("%s/%s via %s: exact %v, flow %v, relative error %v; want a certified report",
						gname, name, via, rep.ExactValue, rep.FlowValue, rep.RelativeError)
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

// TestFailedCertificateFallsBackToDinic pins the fallback: a CPU instance
// whose residual does not certify its claimed flow — here a zero flow passed
// off as maximum, the shape of a kernel defect — reports the Dinic reference
// and the resulting non-zero relative error.
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
	inst := &cpuInstance{alg: maxflow.PushRelabel, name: "push-relabel", p: p}
	rep, err := inst.finish(context.Background(), net.Flow(), net.Certify(0, 1e-9) == nil)
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
// certificate still report against the problem's Dinic reference: dinic
// seeds it, and behavioral, lp and decompose read it.
func TestReferenceBackendsKeepDinicReference(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(24, 7))
	coreG := graph.PruneToSTCore(g).Graph
	exact, err := maxflow.OptimalValue(coreG)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dinic", "behavioral", "lp", "decompose"} {
		for _, via := range []string{"registry", "service"} {
			p, err := NewProblem(g)
			if err != nil {
				t.Fatal(err)
			}
			rep := solveVia(t, via, name, p)
			if rep.ExactValue != exact {
				t.Errorf("%s via %s: exact value %v, want the Dinic reference %v", name, via, rep.ExactValue, exact)
			}
			if want := graph.RelativeError(rep.FlowValue, exact); rep.RelativeError != want {
				t.Errorf("%s via %s: relative error %v, want %v", name, via, rep.RelativeError, want)
			}
			if exactMemoCold(p) {
				t.Errorf("%s via %s: the Dinic reference was not memoised", name, via)
			}
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
	rep := solveVia(t, "registry", "push-relabel", p2)
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
