package solve

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/decompose"
	"analogflow/internal/graph"
	"analogflow/internal/rmat"
	"analogflow/internal/testutil"
)

// interiorOwnedEdges returns the edges whose endpoints both belong to exactly
// one region — the same one — and that touch neither terminal.  Updating such
// an edge changes exactly one region subproblem's capacities and can never
// flip a boundary-wiring decision or the value-scale clamp, so a warm chain
// built from these edges must absorb every step without a cold region
// rebuild.
func interiorOwnedEdges(g *graph.Graph, part decompose.Partition) []int {
	regionsOf := func(v int) (count, region int) {
		for r, in := range part.In {
			if in[v] {
				count++
				region = r
			}
		}
		return count, region
	}
	var out []int
	for ei, e := range g.Edges() {
		if e.From == g.Source() || e.From == g.Sink() || e.To == g.Source() || e.To == g.Sink() {
			continue
		}
		cf, rf := regionsOf(e.From)
		ct, rt := regionsOf(e.To)
		if cf == 1 && ct == 1 && rf == rt {
			out = append(out, ei)
		}
	}
	return out
}

// shardedChainStep builds step k of a warm-compatible capacity chain over the
// given interior edges: alternating increases and halvings that never cross
// zero, so the chain is capacity-only from every region's point of view.
func shardedChainStep(g *graph.Graph, edges []int, k int) graph.CapacityUpdate {
	var u graph.CapacityUpdate
	for j := 0; j < 3; j++ {
		e := edges[(k*5+j*2)%len(edges)]
		dup := false
		for _, seen := range u.Edges {
			if seen == e {
				dup = true
			}
		}
		if dup {
			continue
		}
		c := g.Edge(e).Capacity
		switch {
		case (k+j)%2 == 0:
			c += 7
		case c >= 2:
			c = float64(int(c) / 2)
		default:
			c++
		}
		u.Edges = append(u.Edges, e)
		u.Capacities = append(u.Capacities, c)
	}
	return u
}

// TestShardedUpdateChainWarmFromStepOne is the acceptance pin of the warm
// sharded-chain contract: an update chain over a problem above the budget
// takes the region oracle its starting solve kept, absorbs every step as
// per-region capacity updates — warm from step 1, zero cold region rebuilds —
// and keeps storing the oracle back so the whole chain stays warm.
func TestShardedUpdateChainWarmFromStepOne(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 3))
	budget := Budget{MaxVertices: 80}
	svc := NewService(Config{Workers: 2, Budget: budget})
	prob, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: prob, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded {
		t.Fatalf("base solve not sharded: %+v", rep.Plan)
	}
	if got := MetricValue(t, svc, "analogflow_cached_oracles"); got != 1 {
		t.Fatalf("base solve cached %v oracles, want 1", got)
	}
	plan, part, err := planFor(prob, budget)
	if err != nil || !plan.Sharded {
		t.Fatalf("planFor: %+v, %v", plan, err)
	}
	edges := interiorOwnedEdges(g, part)
	if len(edges) < 6 {
		t.Fatalf("only %d interior owned edges; pick a different instance", len(edges))
	}
	const steps = 4
	for k := 0; k < steps; k++ {
		upd := shardedChainStep(prob.Graph(), edges, k)
		res, err := svc.Update(context.Background(), UpdateRequest{Solver: "dinic", Problem: prob, Update: upd})
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if res.Report.Plan == nil || !res.Report.Plan.Sharded {
			t.Fatalf("step %d not sharded: %+v", k, res.Report.Plan)
		}
		if !res.Warm {
			t.Errorf("step %d ran cold; sharded chains must be warm from step 1", k)
		}
		if res.Report.RelativeError > 0.25 {
			t.Errorf("step %d: sharded flow %.2f vs exact %.2f (%.0f%% error)",
				k, res.Report.FlowValue, res.Report.ExactValue, 100*res.Report.RelativeError)
		}
		prob = res.Problem
	}
	updates, warm := MetricValue(t, svc, "analogflow_sharded_updates_total"), MetricValue(t, svc, "analogflow_sharded_update_warm_hits_total")
	if updates != steps || warm != steps {
		t.Errorf("sharded update stats %v/%v warm, want %d/%d", updates, warm, steps, steps)
	}
	if got := MetricValue(t, svc, "analogflow_region_cold_rebuilds_total"); got != 0 {
		t.Errorf("%v cold region rebuilds across a capacity-only chain, want 0", got)
	}
	if got := MetricValue(t, svc, "analogflow_cached_oracles"); got != 1 {
		t.Errorf("%v region oracles held after the chain, want 1 (stored back per step)", got)
	}
}

// TestShardedUpdateStructuralStepRepublishes is the poisoning regression: a
// step that zeroes an edge inside one region flips that region's positivity,
// so its warm instance cannot absorb the delta — exactly that one region must
// be rebuilt cold (the delta is routed to the owning region, the others stay
// warm), and the oracle must be stored back under the new problem in its
// healed state so the chain continues warm right after the structural step.
func TestShardedUpdateStructuralStepRepublishes(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 3))
	budget := Budget{MaxVertices: 80}
	svc := NewService(Config{Workers: 2, Budget: budget})
	prob, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: prob, Updatable: true}); err != nil {
		t.Fatal(err)
	}
	_, part, err := planFor(prob, budget)
	if err != nil {
		t.Fatal(err)
	}
	edges := interiorOwnedEdges(g, part)
	if len(edges) < 6 {
		t.Fatalf("only %d interior owned edges", len(edges))
	}

	// One warm step to prove the chain is warm before the structural hit.
	res, err := svc.Update(context.Background(), UpdateRequest{
		Solver: "dinic", Problem: prob, Update: shardedChainStep(prob.Graph(), edges[1:], 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm {
		t.Fatal("pre-structural step ran cold")
	}
	prob = res.Problem

	// The structural step: capacity -> 0 inside exactly one region.
	res, err = svc.Update(context.Background(), UpdateRequest{
		Solver: "dinic", Problem: prob,
		Update: graph.CapacityUpdate{Edges: []int{edges[0]}, Capacities: []float64{0}}})
	if err != nil {
		t.Fatalf("structural step: %v", err)
	}
	if !res.Warm {
		t.Error("structural step lost the chain's oracle entirely; only the owning region should go cold")
	}
	if got := MetricValue(t, svc, "analogflow_region_cold_rebuilds_total"); got != 1 {
		t.Errorf("%v cold region rebuilds after zeroing one interior edge, want exactly 1 (the owning region)", got)
	}
	if got := MetricValue(t, svc, "analogflow_cached_oracles"); got != 1 {
		t.Fatalf("oracle not stored back after the structural step (%v held)", got)
	}
	prob = res.Problem

	// The chain continues warm on the healed oracle.
	for k := 2; k < 4; k++ {
		res, err = svc.Update(context.Background(), UpdateRequest{
			Solver: "dinic", Problem: prob, Update: shardedChainStep(prob.Graph(), edges[1:], k)})
		if err != nil {
			t.Fatalf("post-structural step %d: %v", k, err)
		}
		if !res.Warm {
			t.Errorf("post-structural step %d ran cold; the healed oracle was not reused", k)
		}
		if res.Report.RelativeError > 0.25 {
			t.Errorf("post-structural step %d: %.0f%% error vs exact", k, 100*res.Report.RelativeError)
		}
		prob = res.Problem
	}
	if got := MetricValue(t, svc, "analogflow_region_cold_rebuilds_total"); got != 1 {
		t.Errorf("cold rebuilds grew to %v after the structural step, want to stay at 1", got)
	}
	if got := MetricValue(t, svc, "analogflow_sharded_update_warm_hits_total"); got != 4 {
		t.Errorf("%v warm hits over 4 steps, want 4 (the structural step still rides the chain's oracle)", got)
	}
}

// TestShardedUpdateBehavioralWarmMatchesCold: a warm sharded step seeds the
// consensus outer loop from the chain's carried state, so its trajectory —
// and with it the final reading — legitimately differs from a cold
// from-scratch solve of the same mutated problem (before the consensus
// warm-start the behavioral chains agreed exactly; that contract is gone by
// design).  What holds instead is the escalation band: a warm value is only
// ever accepted within warmAcceptSlack of the chain's full-consensus
// accuracy against the exact reference, so warm and cold must agree to the
// consensus tolerance.
func TestShardedUpdateBehavioralWarmMatchesCold(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 3))
	budget := Budget{MaxVertices: 80}
	params := core.DefaultParams()
	svc := NewService(Config{Workers: 2, Budget: budget})
	prob, err := NewProblem(g, WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(context.Background(), Request{Solver: "behavioral", Problem: prob, Updatable: true}); err != nil {
		t.Fatal(err)
	}
	_, part, err := planFor(prob, budget)
	if err != nil {
		t.Fatal(err)
	}
	edges := interiorOwnedEdges(g, part)
	for k := 0; k < 3; k++ {
		upd := shardedChainStep(prob.Graph(), edges, k)
		res, err := svc.Update(context.Background(), UpdateRequest{Solver: "behavioral", Problem: prob, Update: upd})
		if err != nil {
			t.Fatalf("warm step %d: %v", k, err)
		}
		if !res.Warm {
			t.Errorf("step %d ran cold", k)
		}
		prob = res.Problem

		coldSvc := NewService(Config{Workers: 2, Budget: budget})
		coldProb, err := NewProblem(prob.Graph().Clone(), WithParams(params))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldSvc.Solve(context.Background(), Request{Solver: "behavioral", Problem: coldProb})
		if err != nil {
			t.Fatalf("cold step %d: %v", k, err)
		}
		if !testutil.AlmostEqual(res.Report.FlowValue, cold.FlowValue, 0.25) {
			t.Errorf("step %d: warm flow %g vs cold flow %g, beyond the consensus band", k, res.Report.FlowValue, cold.FlowValue)
		}
	}
}

// TestShardedUpdateChainZeroNewSymbolicFactorizations is the substrate-level
// pin: across a whole warm sharded update chain with the circuit backend as
// the region oracle, every region keeps its one MNA engine — symbolic
// factorizations stay at exactly one per region while numeric
// refactorizations accumulate step over step.
func TestShardedUpdateChainZeroNewSymbolicFactorizations(t *testing.T) {
	const n = 12
	g := graph.MustNew(n, 0, n-1)
	for v := 0; v < n-1; v++ {
		capacity := 10.0
		if v == 3 {
			capacity = 4
		}
		g.MustAddEdge(v, v+1, capacity)
	}
	params := core.DefaultParams()
	params.Variation = core.DefaultCleanVariation()
	opts := decompose.DefaultOptions()
	opts.MaxIterations = 8
	prob, err := NewProblem(g, WithParams(params), WithDecomposeOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	// MaxRegions 2: three bands would give the middle region virtual
	// terminals on both sides, the circuit-fragile configuration.
	budget := Budget{MaxVertices: 9, MaxRegions: 2}
	svc := NewService(Config{Workers: 1, Budget: budget})
	rep, err := svc.Solve(context.Background(), Request{Solver: "circuit", Problem: prob, Updatable: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || !rep.Plan.Sharded {
		t.Fatalf("12-vertex path not sharded under an 8-vertex budget: %+v", rep.Plan)
	}
	_, part, err := planFor(prob, budget)
	if err != nil {
		t.Fatal(err)
	}
	edges := interiorOwnedEdges(g, part)
	if len(edges) == 0 {
		t.Fatal("no interior owned edges on the path instance")
	}
	for k := 0; k < 3; k++ {
		// Oscillate one interior edge between two capacity sets the fragile
		// circuit substrate is known to converge on — the pin is about the
		// warm path, not about widening the substrate's convergence region.
		c := 11.0
		if k%2 == 1 {
			c = 10
		}
		upd := graph.CapacityUpdate{Edges: []int{edges[0]}, Capacities: []float64{c}}
		res, err := svc.Update(context.Background(), UpdateRequest{Solver: "circuit", Problem: prob, Update: upd})
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if !res.Warm {
			t.Errorf("circuit step %d ran cold", k)
		}
		prob = res.Problem
	}
	if got := MetricValue(t, svc, "analogflow_region_cold_rebuilds_total"); got != 0 {
		t.Errorf("%v cold region rebuilds across the circuit chain, want 0", got)
	}
	stats := chainOracle(t, svc, prob, "circuit").engineStats()
	if len(stats) == 0 {
		t.Fatal("no region engines recorded")
	}
	for r, st := range stats {
		if st.Factorizations != 1 {
			t.Errorf("region %d: %d symbolic factorizations across the chain, want exactly 1", r, st.Factorizations)
		}
		if st.Refactorizations == 0 {
			t.Errorf("region %d: no numeric refactorizations — the warm path did not run", r)
		}
	}
}

// TestShardedOracleConcurrencyMatrix races re-solves of the base problem
// against several update chains branching off it on one service.  Exactly one
// racer can own the warm oracle at a time (claim removes it), the rest build
// cold; every report must stay within the decomposition tolerance of its own
// exact value, and the service must end quiescent.  The -race CI job runs
// this against the detector.
func TestShardedOracleConcurrencyMatrix(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 3))
	svc := NewService(Config{Workers: 4, Budget: Budget{MaxVertices: 80}})
	base, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: base, Updatable: true}); err != nil {
		t.Fatal(err)
	}
	_, part, err := planFor(base, Budget{MaxVertices: 80})
	if err != nil {
		t.Fatal(err)
	}
	edges := interiorOwnedEdges(g, part)

	const chains = 3
	var wg sync.WaitGroup
	for i := 0; i < chains; i++ {
		wg.Add(2)
		go func(i int) { // one independent 3-step chain branching off base
			defer wg.Done()
			prob := base
			for k := 0; k < 3; k++ {
				upd := shardedChainStep(prob.Graph(), edges[i:], k)
				res, err := svc.Update(context.Background(), UpdateRequest{Solver: "dinic", Problem: prob, Update: upd})
				if err != nil {
					t.Errorf("chain %d step %d: %v", i, k, err)
					return
				}
				if res.Report.Plan == nil || !res.Report.Plan.Sharded {
					t.Errorf("chain %d step %d not sharded", i, k)
				}
				if res.Report.RelativeError > 0.25 {
					t.Errorf("chain %d step %d: %.0f%% error", i, k, 100*res.Report.RelativeError)
				}
				prob = res.Problem
			}
		}(i)
		go func() { // concurrent re-solves of the base problem
			defer wg.Done()
			rep, err := svc.Solve(context.Background(), Request{Solver: "dinic", Problem: base})
			if err != nil {
				t.Error(err)
				return
			}
			if rep.RelativeError > 0.25 {
				t.Errorf("base re-solve: %.0f%% error", 100*rep.RelativeError)
			}
		}()
	}
	wg.Wait()
	if got := MetricValue(t, svc, "analogflow_sharded_updates_total"); got != chains*3 {
		t.Errorf("%v sharded updates recorded, want %d", got, chains*3)
	}
	if got := MetricValue(t, svc, "analogflow_in_flight_solves"); got != 0 {
		t.Errorf("in-flight gauge %v after completion, want 0", got)
	}
}

// TestShardedSerialVsConcurrentUpdateIdentity pins what the warm sharded
// chain still promises about scheduling:
//
//  1. One chain is exactly deterministic: re-running the same behavioral
//     update chain on a fresh service produces bit-identical per-step values
//     for any worker count (the decomposition, the active-region scheduler
//     and the warm accept/escalate decision are all worker-count invariant).
//  2. Two chains racing for one base's oracle are only tolerance-identical:
//     whoever claims the warm oracle seeds its consensus from carried state
//     while the loser runs cold, and with the consensus warm-start those two
//     trajectories legitimately differ — the escalation band keeps every
//     report within the consensus tolerance, but exact serial-vs-concurrent
//     equality is no longer a contract (it held before this warm start only
//     because warm and cold consensus ran identically).
func TestShardedSerialVsConcurrentUpdateIdentity(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(200, 3))
	budget := Budget{MaxVertices: 80}
	params := core.DefaultParams()
	_, part, err := planFor(mustProblem(t, g, params), budget)
	if err != nil {
		t.Fatal(err)
	}
	edges := interiorOwnedEdges(g, part)

	// runOne executes a single 3-step chain on a fresh service with the given
	// worker count and returns its per-step flow values.
	runOne := func(workers int) []float64 {
		svc := NewService(Config{Workers: workers, Budget: budget})
		prob := mustProblem(t, g, params)
		if _, err := svc.Solve(context.Background(), Request{Solver: "behavioral", Problem: prob, Updatable: true}); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for k := 0; k < 3; k++ {
			upd := shardedChainStep(prob.Graph(), edges, k)
			res, err := svc.Update(context.Background(), UpdateRequest{Solver: "behavioral", Problem: prob, Update: upd})
			if err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, k, err)
			}
			out = append(out, res.Report.FlowValue)
			prob = res.Problem
		}
		return out
	}
	ref := runOne(1)
	for _, workers := range []int{2, 4} {
		got := runOne(workers)
		for k := range ref {
			if got[k] != ref[k] {
				t.Errorf("workers=%d step %d: flow %g != workers=1 flow %g", workers, k, got[k], ref[k])
			}
		}
	}

	// run executes two chains branching off one base, serially or
	// concurrently, and returns the per-chain per-step flow values.
	run := func(concurrent bool) [2][]float64 {
		svc := NewService(Config{Workers: 4, Budget: budget})
		base := mustProblem(t, g, params)
		if _, err := svc.Solve(context.Background(), Request{Solver: "behavioral", Problem: base, Updatable: true}); err != nil {
			t.Fatal(err)
		}
		var out [2][]float64
		chain := func(i int) {
			prob := base
			for k := 0; k < 3; k++ {
				upd := shardedChainStep(prob.Graph(), edges[i:], k)
				res, err := svc.Update(context.Background(), UpdateRequest{Solver: "behavioral", Problem: prob, Update: upd})
				if err != nil {
					t.Errorf("chain %d step %d: %v", i, k, err)
					return
				}
				out[i] = append(out[i], res.Report.FlowValue)
				prob = res.Problem
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) { defer wg.Done(); chain(i) }(i)
			}
			wg.Wait()
		} else {
			chain(0)
			chain(1)
		}
		return out
	}
	serial := run(false)
	concurrent := run(true)
	for i := 0; i < 2; i++ {
		if len(serial[i]) != 3 || len(concurrent[i]) != 3 {
			t.Fatalf("chain %d incomplete: serial %v concurrent %v", i, serial[i], concurrent[i])
		}
		for k := range serial[i] {
			if !testutil.AlmostEqual(serial[i][k], concurrent[i][k], 0.25) {
				t.Errorf("chain %d step %d: serial %g vs concurrent %g, beyond the consensus band",
					i, k, serial[i][k], concurrent[i][k])
			}
		}
	}
}

// TestShardedRepeatSolveIsCold: a one-shot sharded solve keeps no region
// oracle, so a repeat runs cold again and reproduces the same report.  Only
// a solve that starts a chain keeps the oracle — the circuit regions'
// engines then show exactly the one symbolic factorization that solve paid.
func TestShardedRepeatSolveIsCold(t *testing.T) {
	const n = 12
	g := graph.MustNew(n, 0, n-1)
	for v := 0; v < n-1; v++ {
		g.MustAddEdge(v, v+1, 10)
	}
	params := core.DefaultParams()
	params.Variation = core.DefaultCleanVariation()
	prob, err := NewProblem(g, WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Workers: 1, Budget: Budget{MaxVertices: 9, MaxRegions: 2}})
	var reps []Report
	for i := 0; i < 2; i++ {
		rep, err := svc.Solve(context.Background(), Request{Solver: "circuit", Problem: prob})
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		reps = append(reps, rep.Normalized())
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Errorf("repeated one-shot sharded solves differ:\n%+v\nvs\n%+v", reps[0], reps[1])
	}
	if got := MetricValue(t, svc, "analogflow_cached_oracles"); got != 0 {
		t.Errorf("one-shot sharded solves left %v region oracles behind", got)
	}
	if _, err := svc.Solve(context.Background(), Request{Solver: "circuit", Problem: prob, Updatable: true}); err != nil {
		t.Fatal(err)
	}
	for r, st := range chainOracle(t, svc, prob, "circuit").engineStats() {
		if st.Factorizations != 1 {
			t.Errorf("region %d: %d symbolic factorizations after one sharded solve, want 1", r, st.Factorizations)
		}
	}
}
