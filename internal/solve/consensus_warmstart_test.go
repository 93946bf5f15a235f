package solve

import (
	"context"
	"math/rand"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/rmat"
	"analogflow/internal/testutil"
)

// layeredGraph builds a width×layers ladder of straight parallel chains:
// source feeds every chain at terminalCap, chains run through the layers at
// interiorCap, the last layer drains into the sink at terminalCap.  With
// interiorCap comfortably above terminalCap the max flow is
// width*terminalCap, the flow distribution is UNIQUE (each chain carries
// exactly terminalCap), and every interior capacity carries slack — so the
// consensus settles exactly and bumping one interior edge changes neither the
// exact value nor any other region's subproblem.  That uniqueness matters:
// with cross edges between chains, the warm region instances' incremental
// re-augmentation redistributes flow across the split vertices every
// iteration and the overlap imbalance never settles.  BFS levels grow one per
// layer, so the BFS partitioner can cut the ladder into any band count up to
// layers+1.
func layeredGraph(width, layers int, interiorCap, terminalCap float64) *graph.Graph {
	n := width*layers + 2
	g := graph.MustNew(n, 0, n-1)
	id := func(l, i int) int { return 1 + l*width + i }
	for i := 0; i < width; i++ {
		g.MustAddEdge(0, id(0, i), terminalCap)
	}
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			g.MustAddEdge(id(l, i), id(l+1, i), interiorCap)
		}
	}
	for i := 0; i < width; i++ {
		g.MustAddEdge(id(layers-1, i), n-1, terminalCap)
	}
	return g
}

// TestShardedOneEdgeUpdateEightRegions is the acceptance pin of the
// active-region scheduler: on an 8-region plan, a 1-edge capacity update must
// re-solve at most 2 regions per outer iteration — the other regions' carried
// readings are replayed — and the warm quick attempt must be accepted without
// escalation at zero relative error.
func TestShardedOneEdgeUpdateEightRegions(t *testing.T) {
	g := layeredGraph(4, 20, 10, 5)
	budget := Budget{MaxVertices: 11, MaxRegions: 8}
	svc := NewService(Config{Workers: 4, Budget: budget})
	prob := mustProblem(t, g, core.DefaultParams())

	rep, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: prob, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded || rep.Plan.Regions != 8 {
		t.Fatalf("base plan is not the 8-region shard this pin needs: %+v", rep.Plan)
	}

	_, part, err := planFor(prob, budget)
	if err != nil {
		t.Fatal(err)
	}
	edges := interiorOwnedEdges(g, part)
	if len(edges) == 0 {
		t.Fatal("no interior owned edges on the ladder instance")
	}

	upd := graph.CapacityUpdate{
		Edges:      []int{edges[0]},
		Capacities: []float64{g.Edge(edges[0]).Capacity + 5},
	}
	res, err := svc.Update(context.Background(), UpdateRequest{Solver: "dinic", Problem: prob, Update: upd})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm {
		t.Fatal("1-edge update ran cold; the chain's oracle was lost")
	}
	pl := res.Report.Plan
	if pl == nil || !pl.Sharded || pl.Regions != 8 {
		t.Fatalf("update plan: %+v", pl)
	}
	if !pl.WarmStart {
		t.Error("consensus did not warm-start from the carried state")
	}
	if pl.Escalated {
		t.Error("slack-only interior bump was escalated; the warm value should have been accepted")
	}
	if pl.OuterIterations < 1 {
		t.Fatalf("plan reports %d outer iterations", pl.OuterIterations)
	}
	if pl.RegionSolves+pl.RegionSkips != pl.Regions*pl.OuterIterations {
		t.Errorf("solves %d + skips %d != regions %d * iterations %d",
			pl.RegionSolves, pl.RegionSkips, pl.Regions, pl.OuterIterations)
	}
	// The acceptance criterion: at most 2 of the 8 regions re-solved per
	// outer iteration, everything else replayed from carried readings.
	if pl.RegionSolves > 2*pl.OuterIterations {
		t.Errorf("%d region solves over %d outer iterations; a 1-edge update must re-solve <= 2 regions per iteration",
			pl.RegionSolves, pl.OuterIterations)
	}
	if pl.RegionSkips < 6*pl.OuterIterations {
		t.Errorf("only %d region skips over %d outer iterations, want >= 6 per iteration",
			pl.RegionSkips, pl.OuterIterations)
	}
	if res.Report.RelativeError > 1e-9 {
		t.Errorf("accepted warm value has %.3g relative error vs exact; the dinic chain's band is exact",
			res.Report.RelativeError)
	}

	if got := MetricValue(t, svc, "analogflow_consensus_warm_starts_total"); got < 1 {
		t.Errorf("consensus_warm_starts = %v, want >= 1", got)
	}
	if got := MetricValue(t, svc, "analogflow_regions_skipped_total"); got < 6 {
		t.Errorf("regions_skipped = %v, want >= 6", got)
	}
	iters, runs := MetricValue(t, svc, "analogflow_consensus_outer_iterations_total"), MetricValue(t, svc, "analogflow_consensus_outer_runs_total")
	if runs == 0 || iters/runs <= 0 {
		t.Errorf("consensus outer iterations %v over %v runs, want a positive average", iters, runs)
	}
}

// TestShardedWarmIncreaseEscalates pins the soundness half of the warm-start
// contract: carried consensus allowances are binding at the previous optimum,
// so a capacity increase that raises the true max flow must NOT be answered
// from the warm state — the quick attempt lands outside the acceptance band
// and the full consensus re-runs, finding the new optimum.
func TestShardedWarmIncreaseEscalates(t *testing.T) {
	const n = 20
	g := graph.MustNew(n, 0, n-1)
	for v := 0; v < n-1; v++ {
		capacity := 10.0
		if v == 9 {
			capacity = 4
		}
		g.MustAddEdge(v, v+1, capacity)
	}
	budget := Budget{MaxVertices: 7}
	svc := NewService(Config{Workers: 2, Budget: budget})
	prob := mustProblem(t, g, core.DefaultParams())
	rep, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: prob, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded {
		t.Fatalf("20-vertex path not sharded under a 7-vertex budget: %+v", rep.Plan)
	}
	if !testutil.AlmostEqual(rep.FlowValue, 4.0, 0.05) {
		t.Fatalf("base flow %g, want ~4 (the bottleneck)", rep.FlowValue)
	}

	// Raise the bottleneck to the line capacity: the exact value jumps 4 -> 10.
	res, err := svc.Update(context.Background(), UpdateRequest{
		Solver: "dinic", Problem: prob,
		Update: graph.CapacityUpdate{Edges: []int{9}, Capacities: []float64{10}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm {
		t.Fatal("update ran cold")
	}
	pl := res.Report.Plan
	if pl == nil || !pl.Escalated {
		t.Fatalf("bottleneck increase was not escalated (plan %+v); the warm value would be stuck at the old optimum", pl)
	}
	if !testutil.AlmostEqual(res.Report.FlowValue, 10.0, 0.05) {
		t.Errorf("post-escalation flow %g, want ~10 (the new optimum)", res.Report.FlowValue)
	}
	if res.Report.RelativeError > 0.05 {
		t.Errorf("post-escalation relative error %.3g vs exact, beyond the consensus tolerance", res.Report.RelativeError)
	}
	if got := MetricValue(t, svc, "analogflow_consensus_escalations_total"); got < 1 {
		t.Errorf("consensus_escalations = %v, want >= 1", got)
	}
}

// TestShardedUpdateChainRandomizedWarmMatchesCold runs a seeded random
// capacity chain — arbitrary edges, boundary and terminal edges included —
// per backend, asserting every warm step stays within the consensus band of
// both its exact reference and a cold from-scratch solve of the same mutated
// problem.  This is the randomized warm==cold contract of the escalation
// band: whatever the scheduler skips or the quick attempt accepts, the
// published value may never drift beyond what a cold solve would report.
func TestShardedUpdateChainRandomizedWarmMatchesCold(t *testing.T) {
	base := rmat.MustGenerate(rmat.SparseParams(200, 3))
	budget := Budget{MaxVertices: 80}
	params := core.DefaultParams()
	for _, backend := range []string{"dinic", "behavioral"} {
		t.Run(backend, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			svc := NewService(Config{Workers: 2, Budget: budget})
			prob := mustProblem(t, base, params)
			if _, err := svc.Solve(context.Background(), Request{Solver: backend, Problem: prob, Updatable: true}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 5; k++ {
				var upd graph.CapacityUpdate
				seen := map[int]bool{}
				for j := 0; j < 4; j++ {
					e := rng.Intn(prob.Graph().NumEdges())
					if seen[e] {
						continue
					}
					seen[e] = true
					c := prob.Graph().Edge(e).Capacity
					if rng.Intn(2) == 0 {
						c += 1 + 20*rng.Float64()
					} else if c >= 2 {
						c = float64(int(c) / 2)
					} else {
						c++
					}
					upd.Edges = append(upd.Edges, e)
					upd.Capacities = append(upd.Capacities, c)
				}
				res, err := svc.Update(context.Background(), UpdateRequest{Solver: backend, Problem: prob, Update: upd})
				if err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
				if !res.Warm {
					t.Errorf("step %d ran cold", k)
				}
				if res.Report.RelativeError > 0.25 {
					t.Errorf("step %d: warm flow %g vs exact %g (%.0f%% error)",
						k, res.Report.FlowValue, res.Report.ExactValue, 100*res.Report.RelativeError)
				}
				prob = res.Problem

				coldSvc := NewService(Config{Workers: 2, Budget: budget})
				coldProb := mustProblem(t, prob.Graph().Clone(), params)
				cold, err := coldSvc.Solve(context.Background(), Request{Solver: backend, Problem: coldProb})
				if err != nil {
					t.Fatalf("cold step %d: %v", k, err)
				}
				if !testutil.AlmostEqual(res.Report.FlowValue, cold.FlowValue, 0.25) {
					t.Errorf("step %d: warm flow %g vs cold flow %g, beyond the consensus band",
						k, res.Report.FlowValue, cold.FlowValue)
				}
			}
		})
	}
}
