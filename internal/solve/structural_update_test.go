package solve

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
)

// lanesGraph is a two-lane diamond whose structural churn never strands a
// vertex: parking one 1->2 lane leaves the other carrying flow, so parks and
// reclaims stay value-level for every warmable backend.
func lanesGraph() *graph.Graph {
	g, err := graph.New(4, 0, 3)
	if err != nil {
		panic(err)
	}
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	return g
}

func TestProblemWithStructuralUpdate(t *testing.T) {
	base, err := NewProblem(lanesGraph())
	if err != nil {
		t.Fatal(err)
	}
	// Park a lane: the derived problem gains one unit of structural slack,
	// the base problem is untouched.
	parked, err := base.WithStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if base.StructuralSlack() != 0 || parked.StructuralSlack() != 1 {
		t.Fatalf("slack base=%d parked=%d, want 0/1", base.StructuralSlack(), parked.StructuralSlack())
	}
	if base.Graph().NumParked() != 0 {
		t.Fatal("structural update leaked into the base problem")
	}
	// Chained fingerprints: deterministic, distinct from the base, and
	// distinct from a content-equal from-scratch problem.
	parked2, err := base.WithStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if parked.Fingerprint() != parked2.Fingerprint() {
		t.Error("identical structural chains produced different fingerprints")
	}
	if parked.Fingerprint() == base.Fingerprint() {
		t.Error("structural update did not change the fingerprint")
	}
	fresh, err := NewProblem(parked.Graph().Clone())
	if err != nil {
		t.Fatal(err)
	}
	if parked.Fingerprint() == fresh.Fingerprint() {
		t.Error("chained fingerprint aliases the content fingerprint")
	}
	// A parked slot is not a plain capacity-0 edge: the content fingerprints
	// must differ, or a cold cache entry for one would serve the other.
	zeroed, err := base.WithUpdate(graph.CapacityUpdate{Edges: []int{2}, Capacities: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	freshZero, err := NewProblem(zeroed.Graph().Clone())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Fingerprint() == freshZero.Fingerprint() {
		t.Error("parked-slot fingerprint aliases the capacity-0 fingerprint")
	}
	// Reclaim restores the lane; validation errors surface before any clone.
	reclaimed, err := parked.WithStructuralUpdate(graph.StructuralUpdate{AddEdges: []graph.Edge{{From: 1, To: 2, Capacity: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed.StructuralSlack() != 0 || reclaimed.Graph().NumEdges() != 4 {
		t.Fatalf("reclaim: slack=%d edges=%d, want 0/4", reclaimed.StructuralSlack(), reclaimed.Graph().NumEdges())
	}
	if _, err := base.WithStructuralUpdate(graph.StructuralUpdate{}); err == nil {
		t.Error("empty structural update was accepted")
	}
	if _, err := base.WithStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{99}}); err == nil {
		t.Error("out-of-range removal was accepted")
	}
}

// TestServiceStructuralWarmParkReclaim: a remove step parks an edge warm, an
// insert step reclaims the slot warm, and both match the cold solve of the
// mutated problem exactly — for the behavioral model and every CPU backend.
func TestServiceStructuralWarmParkReclaim(t *testing.T) {
	steps := []struct {
		structural graph.StructuralUpdate
		want       float64
	}{
		{graph.StructuralUpdate{RemoveEdges: []int{2}}, 2},
		{graph.StructuralUpdate{AddEdges: []graph.Edge{{From: 1, To: 2, Capacity: 2}}}, 3},
	}
	for _, backend := range []string{"behavioral", "dinic", "edmonds-karp", "push-relabel"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			svc := NewService(Config{Workers: 1})
			params := core.DefaultParams()
			prob, err := NewProblem(lanesGraph(), WithParams(params))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Solve(context.Background(), Request{Solver: backend, Problem: prob, Updatable: true}); err != nil {
				t.Fatal(err)
			}
			wantSlack := []int{1, 0}
			for k, st := range steps {
				res, err := svc.Update(context.Background(), UpdateRequest{
					Solver: backend, Problem: prob, Structural: &st.structural})
				if err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
				if !res.Warm {
					t.Errorf("step %d ran cold; parks and reclaims must stay value-level", k)
				}
				if !res.Structural || res.SlackRemaining != wantSlack[k] {
					t.Errorf("step %d: structural=%v slack=%d, want true/%d", k, res.Structural, res.SlackRemaining, wantSlack[k])
				}
				if backend != "behavioral" && res.Report.FlowValue != st.want {
					t.Errorf("step %d: flow %g, want %g", k, res.Report.FlowValue, st.want)
				}
				coldProb, err := NewProblem(res.Problem.Graph().Clone(), WithParams(params))
				if err != nil {
					t.Fatal(err)
				}
				cold, err := DefaultRegistry().Solve(context.Background(), backend, coldProb)
				if err != nil {
					t.Fatalf("step %d cold: %v", k, err)
				}
				if res.Report.FlowValue != cold.FlowValue || res.Report.ExactValue != cold.ExactValue {
					t.Errorf("step %d: warm %.12g/%.12g, cold %.12g/%.12g",
						k, res.Report.FlowValue, res.Report.ExactValue, cold.FlowValue, cold.ExactValue)
				}
				prob = res.Problem
			}
			structural, exhausted := MetricValue(t, svc, "analogflow_structural_updates_total"), MetricValue(t, svc, "analogflow_slack_exhausted_rebuilds_total")
			if structural != 2 || exhausted != 0 {
				t.Errorf("structural counters %v/%v, want 2/0", structural, exhausted)
			}
		})
	}
}

// churnStep is one randomized mutation of a structural churn chain.
type churnStep struct {
	capacity   graph.CapacityUpdate
	structural *graph.StructuralUpdate
}

// churnSequence generates a seeded add/remove/capacity mix, applying each
// step to sim so later steps are valid against the evolving topology.
func churnSequence(r *rand.Rand, sim *graph.Graph, steps int) []churnStep {
	var out []churnStep
	for len(out) < steps {
		var st churnStep
		switch r.Intn(4) {
		case 0: // capacity retarget of a few live edges
			seen := map[int]bool{}
			for j := 0; j < 1+r.Intn(3); j++ {
				e := r.Intn(sim.NumEdges())
				if seen[e] || sim.ParkedEdge(e) {
					continue
				}
				seen[e] = true
				st.capacity.Edges = append(st.capacity.Edges, e)
				st.capacity.Capacities = append(st.capacity.Capacities, float64(1+r.Intn(9)))
			}
			if len(st.capacity.Edges) == 0 {
				continue
			}
		case 1: // park a random live edge
			var live []int
			for i := 0; i < sim.NumEdges(); i++ {
				if !sim.ParkedEdge(i) {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				continue
			}
			st.structural = &graph.StructuralUpdate{RemoveEdges: []int{live[r.Intn(len(live))]}}
		case 2: // insert a random edge (reclaims a slot or appends)
			from, to := r.Intn(sim.NumVertices()), r.Intn(sim.NumVertices())
			if from == to {
				continue
			}
			st.structural = &graph.StructuralUpdate{AddEdges: []graph.Edge{{From: from, To: to, Capacity: float64(1 + r.Intn(9))}}}
		case 3: // mixed step: capacity first (base-list indices), then insert
			e := r.Intn(sim.NumEdges())
			if sim.ParkedEdge(e) {
				continue
			}
			st.capacity = graph.CapacityUpdate{Edges: []int{e}, Capacities: []float64{float64(1 + r.Intn(9))}}
			from, to := r.Intn(sim.NumVertices()), r.Intn(sim.NumVertices())
			if from == to {
				continue
			}
			st.structural = &graph.StructuralUpdate{AddEdges: []graph.Edge{{From: from, To: to, Capacity: float64(1 + r.Intn(9))}}}
		}
		if len(st.capacity.Edges) > 0 {
			if _, err := sim.ApplyCapacityUpdate(st.capacity); err != nil {
				continue
			}
		}
		if st.structural != nil {
			if _, err := sim.ApplyStructuralUpdate(*st.structural); err != nil {
				continue
			}
		}
		out = append(out, st)
	}
	return out
}

// TestServiceStructuralRandomizedChurnMatchesCold is the randomized
// equivalence contract: over seeded add/remove/capacity mixes, every step's
// warm (or honestly-cold) result equals the cold solve of the mutated
// problem exactly, and CPU edge flows stay verified optima of the current
// graph — parked slots, reclaims and appends included.
func TestServiceStructuralRandomizedChurnMatchesCold(t *testing.T) {
	for _, backend := range []string{"behavioral", "dinic", "edmonds-karp", "push-relabel"} {
		backend := backend
		for _, seed := range []int64{7, 23} {
			seed := seed
			t.Run(backend+"/seed"+string(rune('0'+seed%10)), func(t *testing.T) {
				g := rmat.MustGenerate(rmat.SparseParams(40, seed))
				steps := churnSequence(rand.New(rand.NewSource(seed)), g.Clone(), 10)
				svc := NewService(Config{Workers: 2})
				params := core.DefaultParams()
				prob, err := NewProblem(g, WithParams(params))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := svc.Solve(context.Background(), Request{Solver: backend, Problem: prob, Updatable: true}); err != nil {
					t.Fatal(err)
				}
				sawWarm := false
				for k, st := range steps {
					res, err := svc.Update(context.Background(), UpdateRequest{
						Solver: backend, Problem: prob, Update: st.capacity, Structural: st.structural})
					if err != nil {
						t.Fatalf("step %d: %v", k, err)
					}
					sawWarm = sawWarm || res.Warm
					prob = res.Problem
					if st.structural != nil {
						if !res.Structural {
							t.Errorf("step %d carried a structural component but the result is not marked structural", k)
						}
						if res.SlackRemaining != prob.StructuralSlack() {
							t.Errorf("step %d: reported slack %d, problem holds %d", k, res.SlackRemaining, prob.StructuralSlack())
						}
					}
					coldProb, err := NewProblem(prob.Graph().Clone(), WithParams(params))
					if err != nil {
						t.Fatal(err)
					}
					cold, err := DefaultRegistry().Solve(context.Background(), backend, coldProb)
					if err != nil {
						t.Fatalf("step %d cold: %v", k, err)
					}
					if res.Report.FlowValue != cold.FlowValue || res.Report.ExactValue != cold.ExactValue {
						t.Fatalf("step %d: warm %.12g/%.12g, cold %.12g/%.12g",
							k, res.Report.FlowValue, res.Report.ExactValue, cold.FlowValue, cold.ExactValue)
					}
					if backend != "behavioral" {
						f := graph.NewFlow(prob.Graph())
						copy(f.Edge, res.Report.EdgeFlows)
						f.RecomputeValue(prob.Graph())
						if err := maxflow.VerifyOptimal(prob.Graph(), f, 1e-6); err != nil {
							t.Fatalf("step %d: flow is not a verified optimum: %v", k, err)
						}
					}
				}
				if !sawWarm {
					t.Error("no step of the churn chain was absorbed warm")
				}
			})
		}
	}
}

// TestShardedStructuralStepRebuildsOwningRegionOnly is the sharded acceptance
// pin: in an 8-region chain, a 1-edge structural step (park, then reclaim)
// rebuilds exactly the region owning the touched edge — every other region
// keeps its warm instance, and the chain's consensus state keeps the steps
// around the structural ones warm.
func TestShardedStructuralStepRebuildsOwningRegionOnly(t *testing.T) {
	g := gridGraph(12)
	budget := Budget{MaxVertices: 40, MaxRegions: 8}
	svc := NewService(Config{Workers: 2, Budget: budget})
	prob, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: prob, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded || rep.Plan.Regions != 8 {
		t.Fatalf("base plan %+v, want sharded with 8 regions", rep.Plan)
	}
	_, part, err := planFor(prob, budget)
	if err != nil {
		t.Fatal(err)
	}
	edges := interiorOwnedEdges(g, part)
	if len(edges) < 8 {
		t.Fatalf("only %d interior owned edges", len(edges))
	}
	target := edges[0]
	owner := -1
	for r, in := range part.In {
		if in[g.Edge(target).From] {
			owner = r
		}
	}
	if owner < 0 {
		t.Fatalf("no region owns edge %d", target)
	}

	// One warm capacity step so every region holds a warm instance.
	res, err := svc.Update(context.Background(), UpdateRequest{
		Solver: "dinic", Problem: prob, Update: shardedChainStep(prob.Graph(), edges[1:], 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm {
		t.Fatal("pre-structural step ran cold")
	}
	prob = res.Problem

	oracle := chainOracle(t, svc, prob, "dinic")
	regionInsts := func() map[int]Instance {
		oracle.mu.Lock()
		defer oracle.mu.Unlock()
		m := make(map[int]Instance, len(oracle.regions))
		for r, st := range oracle.regions {
			m[r] = st.inst
		}
		return m
	}

	structSteps := []graph.StructuralUpdate{
		{RemoveEdges: []int{target}},
		{AddEdges: []graph.Edge{{From: g.Edge(target).From, To: g.Edge(target).To, Capacity: g.Edge(target).Capacity}}},
	}
	for k, su := range structSteps {
		before := regionInsts()
		res, err = svc.Update(context.Background(), UpdateRequest{
			Solver: "dinic", Problem: prob, Structural: &su})
		if err != nil {
			t.Fatalf("structural step %d: %v", k, err)
		}
		if !res.Warm {
			t.Errorf("structural step %d lost the chain's oracle; only the owning region should rebuild", k)
		}
		if !res.Structural {
			t.Errorf("structural step %d not marked structural", k)
		}
		after := regionInsts()
		for r, inst := range after {
			switch {
			case r == owner && inst == before[r]:
				t.Errorf("step %d: owning region %d kept its pre-structural instance; expected a cold rebuild", k, r)
			case r != owner && inst != before[r]:
				t.Errorf("step %d: region %d (not the owner %d) lost its warm instance", k, r, owner)
			}
		}
		if got := MetricValue(t, svc, "analogflow_region_cold_rebuilds_total"); got != float64(k+1) {
			t.Errorf("after structural step %d: %v cold region rebuilds, want %d", k, got, k+1)
		}
		prob = res.Problem
	}

	// The chain continues warm on the spliced regions, with no further cold
	// rebuilds.
	for k := 1; k < 3; k++ {
		res, err = svc.Update(context.Background(), UpdateRequest{
			Solver: "dinic", Problem: prob, Update: shardedChainStep(prob.Graph(), edges[1:], k)})
		if err != nil {
			t.Fatalf("post-structural step %d: %v", k, err)
		}
		if !res.Warm {
			t.Errorf("post-structural step %d ran cold", k)
		}
		prob = res.Problem
	}
	if got := MetricValue(t, svc, "analogflow_region_cold_rebuilds_total"); got != 2 {
		t.Errorf("cold rebuilds grew to %v, want to stay at 2 (one per structural step)", got)
	}
	if got := MetricValue(t, svc, "analogflow_structural_updates_total"); got != 2 {
		t.Errorf("structural updates = %v, want 2", got)
	}
}

// TestServiceStructuralSlackExhaustionPin is the slack acceptance pin for the
// circuit backend: k insertions into reserved slots are absorbed with zero
// new symbolic factorizations; the k+1-th insertion has to append past the
// slot pool — one honest cold rebuild, counted in SlackExhaustedRebuilds —
// and the chain continues warm on the rebuilt instance.
func TestServiceStructuralSlackExhaustionPin(t *testing.T) {
	params := core.DefaultParams()
	params.Variation = core.DefaultCleanVariation()
	g := lanesGraph()
	// Two pre-declared slots: bounded slack for two warm insertions.
	if _, err := g.AddParkedEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddParkedEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Workers: 1})
	prob, err := NewProblem(g, WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	if prob.StructuralSlack() != 2 {
		t.Fatalf("pre-declared slack %d, want 2", prob.StructuralSlack())
	}
	// Step 0 starts the chain (builds the updatable instance cold).
	res, err := svc.Update(context.Background(), UpdateRequest{
		Solver: "circuit", Problem: prob,
		Update: graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{4}}})
	if err != nil {
		t.Fatal(err)
	}
	prob = res.Problem
	base, ok := chainSession(t, svc, prob, "circuit").EngineStats()
	if !ok {
		t.Fatal("no engine after the first circuit update")
	}

	// Two slot-reclaiming insertions: warm, value-level, zero new symbolic
	// factorizations.
	for k := 0; k < 2; k++ {
		res, err = svc.Update(context.Background(), UpdateRequest{
			Solver: "circuit", Problem: prob,
			Structural: &graph.StructuralUpdate{AddEdges: []graph.Edge{{From: 1, To: 2, Capacity: 1}}}})
		if err != nil {
			t.Fatalf("insertion %d: %v", k, err)
		}
		if !res.Warm {
			t.Fatalf("insertion %d into reserved slack ran cold", k)
		}
		if res.SlackRemaining != 1-k {
			t.Errorf("insertion %d: slack %d, want %d", k, res.SlackRemaining, 1-k)
		}
		prob = res.Problem
	}
	after, ok := chainSession(t, svc, prob, "circuit").EngineStats()
	if !ok {
		t.Fatal("warm chain lost its engine")
	}
	if after.Factorizations != base.Factorizations {
		t.Errorf("slot insertions cost %d new symbolic factorizations (%d -> %d)",
			after.Factorizations-base.Factorizations, base.Factorizations, after.Factorizations)
	}

	// The slack is spent: the next insertion appends a genuinely new edge and
	// must pay exactly one honest cold rebuild.
	res, err = svc.Update(context.Background(), UpdateRequest{
		Solver: "circuit", Problem: prob,
		Structural: &graph.StructuralUpdate{AddEdges: []graph.Edge{{From: 0, To: 2, Capacity: 1}}}})
	if err != nil {
		t.Fatalf("appending insertion: %v", err)
	}
	if res.Warm {
		t.Error("insertion past the slot pool claimed to be warm")
	}
	if got := MetricValue(t, svc, "analogflow_slack_exhausted_rebuilds_total"); got != 1 {
		t.Errorf("slack-exhausted rebuilds = %v, want 1", got)
	}
	prob = res.Problem

	// The chain continues warm on the rebuilt instance.
	res, err = svc.Update(context.Background(), UpdateRequest{
		Solver: "circuit", Problem: prob,
		Update: graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{5}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm {
		t.Error("post-exhaustion capacity step ran cold; the rebuild did not re-arm the chain")
	}
	if got := MetricValue(t, svc, "analogflow_slack_exhausted_rebuilds_total"); got != 1 {
		t.Errorf("slack-exhausted rebuilds grew to %v, want to stay at 1", got)
	}
}

// TestDerivedProblemsSeedTheirPrune runs a chain of derived problems —
// capacity steps that keep positivity and that cross zero, a park and a
// reclaim of a slot-stable edge, and an appending insertion — and checks
// each derived problem's s-t core against a fresh graph.PruneToSTCore of
// its graph, field by field.  Steps that keep the core must share their
// base's maps (the seeded re-stamp, not a rebuild), and no problem may hold
// its seed once its core exists.
func TestDerivedProblemsSeedTheirPrune(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 7))
	base, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	_, pr := base.STCore()
	park := -1
	for i := 0; i < g.NumEdges() && park < 0; i++ {
		c := g.Clone()
		if _, err := c.ApplyStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{i}}); err == nil &&
			graph.SamePruneEdges(pr, graph.PruneToSTCore(c)) {
			park = i
		}
	}
	if park < 0 {
		t.Fatal("no slot-stable park target")
	}
	kept, zeroed := pr.EdgeMap[0], pr.EdgeMap[1]
	e := g.Edge(park)
	steps := []struct {
		name       string
		capacity   graph.CapacityUpdate
		structural *graph.StructuralUpdate
		sameCore   bool
	}{
		{name: "retarget", capacity: graph.CapacityUpdate{Edges: []int{kept}, Capacities: []float64{g.Edge(kept).Capacity + 3}}, sameCore: true},
		{name: "to zero", capacity: graph.CapacityUpdate{Edges: []int{zeroed}, Capacities: []float64{0}}},
		{name: "from zero", capacity: graph.CapacityUpdate{Edges: []int{zeroed}, Capacities: []float64{4}}},
		{name: "park", structural: &graph.StructuralUpdate{RemoveEdges: []int{park}}, sameCore: true},
		{name: "reclaim", structural: &graph.StructuralUpdate{AddEdges: []graph.Edge{e}}, sameCore: true},
		{name: "append", structural: &graph.StructuralUpdate{AddEdges: []graph.Edge{{From: g.Source(), To: e.To, Capacity: 2}}}},
	}
	prev := base
	for _, st := range steps {
		var next *Problem
		if st.structural != nil {
			next, err = prev.WithStructuralUpdate(*st.structural)
		} else {
			next, err = prev.WithUpdate(st.capacity)
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		coreG, got := next.STCore()
		want := graph.PruneToSTCore(next.Graph())
		if next.pipe.seed != nil {
			t.Errorf("%s: the problem still holds its seed", st.name)
		}
		if coreG != got.Graph || (got.Graph == next.Graph()) != (want.Graph == next.Graph()) {
			t.Errorf("%s: core identity differs from a fresh prune", st.name)
		}
		if !slices.Equal(got.EdgeMap, want.EdgeMap) || !slices.Equal(got.VertexMap, want.VertexMap) ||
			got.RemovedEdges != want.RemovedEdges || got.RemovedVertices != want.RemovedVertices {
			t.Fatalf("%s: maps or counts differ from a fresh prune", st.name)
		}
		gc, wc := got.Graph, want.Graph
		if !slices.Equal(gc.Edges(), wc.Edges()) || !slices.Equal(gc.ParkedEdges(), wc.ParkedEdges()) ||
			gc.Source() != wc.Source() || gc.Sink() != wc.Sink() || gc.NumVertices() != wc.NumVertices() {
			t.Fatalf("%s: core edges, parked slots or terminals differ from a fresh prune", st.name)
		}
		for v := 0; v < gc.NumVertices(); v++ {
			if !slices.Equal(gc.OutEdges(v), wc.OutEdges(v)) || !slices.Equal(gc.InEdges(v), wc.InEdges(v)) {
				t.Fatalf("%s: core adjacency of vertex %d differs from a fresh prune", st.name, v)
			}
		}
		_, prevPr := prev.STCore()
		if shared := &got.VertexMap[0] == &prevPr.VertexMap[0]; shared != st.sameCore {
			t.Errorf("%s: shares its base's maps: %v, want %v", st.name, shared, st.sameCore)
		}
		prev = next
	}
}
