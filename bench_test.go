// Package analogflow_bench contains the benchmark harness that regenerates
// every table and figure of the paper's evaluation (see DESIGN.md for the
// experiment index).  Each benchmark wraps the corresponding function of
// internal/experiments and additionally reports the headline metric of that
// artifact (relative error, speedup, utilisation, ...) through b.ReportMetric
// so that `go test -bench=. -benchmem` output doubles as the reproduction
// record captured in EXPERIMENTS.md.
package analogflow_bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"analogflow/internal/core"
	"analogflow/internal/experiments"
	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
	"analogflow/internal/solve"
)

// BenchmarkTable1Parameters renders the design-parameter table (Table 1).
func BenchmarkTable1Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1Parameters().Render() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig05Waveform reproduces Figure 5c: the transient waveform of the
// worked example on the full MNA circuit emulation.
func BenchmarkFig05Waveform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, wf, err := experiments.Figure5Waveform()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(wf.FinalFlowValue, "flow-value")
		b.ReportMetric(wf.ConvergenceTime*1e9, "conv-ns")
	}
}

// BenchmarkFig08Quantization reproduces the Figure 8 quantization example.
func BenchmarkFig08Quantization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8Quantization(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkFig10 runs one family of the Figure 10 sweep and reports the mean
// relative error and the 10 GHz speedup of the largest instance.
func benchmarkFig10(b *testing.B, family string, sizes []int) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10Sweep(family, sizes, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(100*res.MeanRelativeError(), "mean-err-%")
		b.ReportMetric(last.Speedup10GHz, "speedup-10G")
		b.ReportMetric(last.Circuit10GHz*1e6, "circuit-us")
	}
}

// BenchmarkFig10Dense reproduces Figure 10a (dense graphs, |E| ∝ |V|²).
func BenchmarkFig10Dense(b *testing.B) {
	benchmarkFig10(b, "dense", []int{256, 384, 512, 640, 768, 896, 960})
}

// BenchmarkFig10Sparse reproduces Figure 10b (sparse graphs, |E| ∝ |V|).
func BenchmarkFig10Sparse(b *testing.B) {
	benchmarkFig10(b, "sparse", []int{256, 384, 512, 640, 768, 896, 960})
}

// BenchmarkPowerModel reproduces the Section 5.2 power/energy analysis.
func BenchmarkPowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PowerAnalysis(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15Trajectory reproduces the Figure 15 quasi-static trajectory.
func BenchmarkFig15Trajectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, traj, err := experiments.Figure15Trajectory()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(traj.FinalFlowValue, "flow-value")
	}
}

// BenchmarkOpAmpPrecision reproduces the Section 4.2 precision analysis.
func BenchmarkOpAmpPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.OpAmpPrecisionSweep().Render() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkVariationSweep reproduces the Section 4.3 variation study.
func BenchmarkVariationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.VariationSweep(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusteredUtilisation reproduces the Section 6.2 clustered
// architecture comparison.
func BenchmarkClusteredUtilisation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClusteredUtilization(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDualDecomposition reproduces the Section 6.4 decomposition study.
func BenchmarkDualDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DualDecomposition(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecomposeScaling is the partition-planner scaling smoke: for every
// region budget in {2, 4, 8} it runs the service-routed sharded solve of an
// R-MAT instance under a vertex budget that asks for that many regions,
// asserts the sharded value against the exact one, and reports the relative
// error and iteration count — so a planner or consensus regression shows up
// in the benchmark trajectory, not just in unit tests.  Subtests are named by
// the REQUESTED region budget; the planner may legitimately stop below it
// (growing the region count stops shrinking the largest region on this
// instance), so the region count actually planned is published as the
// `planned-regions` metric rather than implied by the name.
func BenchmarkDecomposeScaling(b *testing.B) {
	base := rmat.MustGenerate(rmat.SparseParams(256, 1))
	exact, err := maxflow.OptimalValue(base)
	if err != nil {
		b.Fatal(err)
	}
	for _, regions := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("budget=%d", regions), func(b *testing.B) {
			budget := solve.Budget{MaxVertices: base.NumVertices()/regions + 40, MaxRegions: regions}
			svc := solve.NewService(solve.Config{Budget: budget})
			for i := 0; i < b.N; i++ {
				p, err := solve.NewProblem(base)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: p})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Plan == nil || !rep.Plan.Sharded {
					b.Fatalf("instance not sharded under budget %+v: plan %+v", budget, rep.Plan)
				}
				relErr := math.Abs(rep.FlowValue-exact) / exact
				if relErr > 0.25 {
					b.Fatalf("sharded flow %.2f vs exact %.2f: %.1f%% error", rep.FlowValue, exact, 100*relErr)
				}
				b.ReportMetric(100*relErr, "rel-err-%")
				b.ReportMetric(float64(rep.Plan.Regions), "planned-regions")
				b.ReportMetric(float64(rep.Iterations), "iterations")
			}
		})
	}
}

// --- ablation and component benchmarks --------------------------------------

// BenchmarkAblationPruning measures the effect of the s-t-core preprocessing
// pass (an implementation choice DESIGN.md calls out) on the behavioural
// solver.
func BenchmarkAblationPruning(b *testing.B) {
	g := rmat.MustGenerate(rmat.SparseParams(512, 3))
	for _, prune := range []bool{true, false} {
		name := "with-prune"
		if !prune {
			name = "without-prune"
		}
		b.Run(name, func(b *testing.B) {
			p := core.DefaultParams()
			p.PruneGraph = prune
			solver, err := core.NewSolver(p)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := solver.Solve(g)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.SubstratePower, "substrate-W")
			}
		})
	}
}

// BenchmarkAblationQuantizationLevels sweeps the number of voltage levels,
// the accuracy/cost knob of Section 4.1.
func BenchmarkAblationQuantizationLevels(b *testing.B) {
	g := rmat.MustGenerate(rmat.DefaultParams(256, 1024, 7))
	for _, levels := range []int{8, 20, 64} {
		b.Run(map[int]string{8: "N=8", 20: "N=20", 64: "N=64"}[levels], func(b *testing.B) {
			p := core.DefaultParams().WithLevels(levels)
			p.ReadoutNoiseSigma = 0
			solver, err := core.NewSolver(p)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := solver.Solve(g)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.RelativeError, "rel-err-%")
			}
		})
	}
}

// BenchmarkUpdateResolve measures the dynamic-graph workload on the Figure 10
// dense instance (|V|=960): a chain of capacity-only updates re-solved warm
// through solve.Service.Update against a cold from-scratch solve of every
// mutated problem, interleaved within each iteration so the two see the same
// machine state.  It reports the per-step warm and cold times and the
// speedup; the CI bench smoke job runs it so regressions in the warm path
// (a lost pattern reuse, a drain that re-solves from scratch) fail loudly.
func BenchmarkUpdateResolve(b *testing.B) {
	base := rmat.MustGenerate(rmat.DenseParams(960, 1))
	params := core.DefaultParams()
	for _, backend := range []string{"dinic", "push-relabel", "behavioral"} {
		b.Run(backend, func(b *testing.B) {
			svc := solve.NewService(solve.Config{Workers: 1})
			reg := solve.DefaultRegistry()
			prob, err := solve.NewProblem(base, solve.WithParams(params))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.Solve(context.Background(), solve.Request{Solver: backend, Problem: prob, Updatable: true}); err != nil {
				b.Fatal(err)
			}
			var warmTotal, coldTotal time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upd := experiments.DynamicUpdateStep(prob.Graph(), i)
				start := time.Now()
				res, err := svc.Update(context.Background(), solve.UpdateRequest{Solver: backend, Problem: prob, Update: upd})
				if err != nil {
					b.Fatal(err)
				}
				warmTotal += time.Since(start)
				prob = res.Problem

				coldProb, err := solve.NewProblem(prob.Graph().Clone(), solve.WithParams(params))
				if err != nil {
					b.Fatal(err)
				}
				start = time.Now()
				cold, err := reg.Solve(context.Background(), backend, coldProb)
				if err != nil {
					b.Fatal(err)
				}
				coldTotal += time.Since(start)
				if res.Report.FlowValue != cold.FlowValue {
					b.Fatalf("warm flow %g != cold flow %g at step %d", res.Report.FlowValue, cold.FlowValue, i)
				}
			}
			b.ReportMetric(float64(warmTotal.Nanoseconds())/float64(b.N), "warm-ns/step")
			b.ReportMetric(float64(coldTotal.Nanoseconds())/float64(b.N), "cold-ns/step")
			b.ReportMetric(float64(coldTotal)/float64(warmTotal), "speedup")
		})
	}
}

// BenchmarkStructuralUpdateResolve measures the structural-dynamics workload:
// a churn chain that parks an edge, reclaims the slot and retargets
// capacities in rotation, re-solved warm through solve.Service.Update against
// a cold from-scratch solve of every mutated problem, interleaved within each
// iteration.  The park target is chosen so the prune keeps its slot resident
// (no stranded vertex), which is exactly the regime where parks and reclaims
// must stay value-level; every step asserts warm == cold flow values, and the
// warm-fraction metric exposes a lost structural warm path to the CI bench
// smoke alongside the speedup.  dinic and behavioral churn the dense R-MAT
// 960 instance; push-relabel churns a 96x96 segmentation grid, the largest
// graph an update session of perfbench's session-churn workload steps, so
// its warm-ns/step tracks the per-step cost of deriving a problem from a
// large base.  The grid's capacities are scaled by 1000 and rounded up to
// integers, so its warm and cold flow values compare exactly too.
func BenchmarkStructuralUpdateResolve(b *testing.B) {
	dense := rmat.MustGenerate(rmat.DenseParams(960, 1))
	grid := graph.MustSegmentationGrid(96, 96, false, 4)
	caps := make([]float64, grid.NumEdges())
	for i := range caps {
		caps[i] = math.Ceil(1000 * grid.Edge(i).Capacity)
	}
	grid, err := grid.WithCapacities(caps)
	if err != nil {
		b.Fatal(err)
	}
	params := core.DefaultParams()
	for _, leg := range []struct {
		backend string
		base    *graph.Graph
	}{
		{"dinic", dense},
		{"behavioral", dense},
		{"push-relabel", grid},
	} {
		backend, base := leg.backend, leg.base
		// Park target whose slot stays resident in the prune: parking it is
		// a pure value-level structural update.
		target := experiments.SlotStableParkTarget(base)
		if target < 0 {
			b.Fatal("no slot-stable park target on this instance")
		}
		reAdd := base.Edge(target)
		b.Run(backend, func(b *testing.B) {
			svc := solve.NewService(solve.Config{Workers: 1})
			reg := solve.DefaultRegistry()
			prob, err := solve.NewProblem(base, solve.WithParams(params))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.Solve(context.Background(), solve.Request{Solver: backend, Problem: prob, Updatable: true}); err != nil {
				b.Fatal(err)
			}
			var warmTotal, coldTotal time.Duration
			warmSteps := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := solve.UpdateRequest{Solver: backend, Problem: prob}
				switch i % 3 {
				case 0: // park the target edge
					req.Structural = &graph.StructuralUpdate{RemoveEdges: []int{target}}
				case 1: // reclaim the slot
					req.Structural = &graph.StructuralUpdate{AddEdges: []graph.Edge{{From: reAdd.From, To: reAdd.To, Capacity: reAdd.Capacity}}}
				default: // capacity retarget
					req.Update = experiments.DynamicUpdateStep(prob.Graph(), i)
				}
				start := time.Now()
				res, err := svc.Update(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				warmTotal += time.Since(start)
				if res.Warm {
					warmSteps++
				}
				prob = res.Problem

				coldProb, err := solve.NewProblem(prob.Graph().Clone(), solve.WithParams(params))
				if err != nil {
					b.Fatal(err)
				}
				start = time.Now()
				cold, err := reg.Solve(context.Background(), backend, coldProb)
				if err != nil {
					b.Fatal(err)
				}
				coldTotal += time.Since(start)
				if res.Report.FlowValue != cold.FlowValue {
					b.Fatalf("warm flow %g != cold flow %g at step %d", res.Report.FlowValue, cold.FlowValue, i)
				}
			}
			b.ReportMetric(float64(warmTotal.Nanoseconds())/float64(b.N), "warm-ns/step")
			b.ReportMetric(float64(coldTotal.Nanoseconds())/float64(b.N), "cold-ns/step")
			b.ReportMetric(float64(coldTotal)/float64(warmTotal), "speedup")
			b.ReportMetric(float64(warmSteps)/float64(b.N), "warm-fraction")
		})
	}
}

// BenchmarkShardedUpdateResolve measures the dynamic-graph workload on an
// instance ABOVE the substrate budget, so every step runs through the
// partition planner's N-region decomposition: a warm chain, started by an
// Updatable solve, rides its own region oracle (solve.Service.Update takes,
// rebinds and stores it back)
// against a cold from-scratch sharded solve of every mutated problem,
// interleaved within each iteration.  Value contract: a warm step seeds the
// consensus from the chain's carried state, so warm and cold follow different
// outer-loop trajectories for every backend; the escalation band pins each
// warm value within warmAcceptSlack of the chain's full-consensus accuracy
// against the exact reference, so warm and cold agree to the consensus
// tolerance (docs/solver.md, "Consensus warm-start and active-region
// scheduling") — for dinic both sit at the exact value and rel-err-% is 0.
// The CI bench smoke runs this and asserts the warm speedup floor, so a lost
// warm path (sharded_update_warm_hits staying 0, speedup collapsing to ~1x)
// or a consensus regression fails loudly.
func BenchmarkShardedUpdateResolve(b *testing.B) {
	base := rmat.MustGenerate(rmat.SparseParams(200, 3))
	budget := solve.Budget{MaxVertices: 80}
	params := core.DefaultParams()
	for _, backend := range []string{"dinic", "behavioral"} {
		b.Run(backend, func(b *testing.B) {
			svc := solve.NewService(solve.Config{Workers: 1, Budget: budget})
			coldSvc := solve.NewService(solve.Config{Workers: 1, Budget: budget})
			prob, err := solve.NewProblem(base, solve.WithParams(params))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := svc.Solve(context.Background(), solve.Request{Solver: backend, Problem: prob, Updatable: true})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Plan == nil || !rep.Plan.Sharded {
				b.Fatalf("base instance not sharded under budget %+v: plan %+v", budget, rep.Plan)
			}
			var warmTotal, coldTotal time.Duration
			var relErrSum float64
			var warmIters, coldIters, skipped int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upd := experiments.DynamicUpdateStep(prob.Graph(), i)
				start := time.Now()
				res, err := svc.Update(context.Background(), solve.UpdateRequest{Solver: backend, Problem: prob, Update: upd})
				if err != nil {
					b.Fatal(err)
				}
				warmTotal += time.Since(start)
				if !res.Warm {
					b.Fatalf("sharded step %d ran cold; the chain must be warm from step 1", i)
				}
				prob = res.Problem
				relErrSum += res.Report.RelativeError
				warmIters += res.Report.Plan.OuterIterations
				skipped += res.Report.Plan.RegionSkips

				coldProb, err := solve.NewProblem(prob.Graph().Clone(), solve.WithParams(params))
				if err != nil {
					b.Fatal(err)
				}
				start = time.Now()
				cold, err := coldSvc.Solve(context.Background(), solve.Request{Solver: backend, Problem: coldProb})
				if err != nil {
					b.Fatal(err)
				}
				coldTotal += time.Since(start)
				if cold.Plan == nil || !cold.Plan.Sharded {
					b.Fatalf("cold step %d not sharded: %+v", i, cold.Plan)
				}
				coldIters += cold.Plan.OuterIterations
				if gap := math.Abs(res.Report.FlowValue-cold.FlowValue) / math.Max(cold.FlowValue, 1); gap > 0.25 {
					b.Fatalf("warm flow %g vs cold flow %g at step %d: %.0f%% apart, beyond the consensus band",
						res.Report.FlowValue, cold.FlowValue, i, 100*gap)
				}
			}
			if warm, _ := svc.Metrics().Value("analogflow_sharded_update_warm_hits_total", nil); warm == 0 {
				b.Fatal("sharded_update_warm_hits stayed 0 across the chain")
			}
			b.ReportMetric(float64(warmTotal.Nanoseconds())/float64(b.N), "warm-ns/step")
			b.ReportMetric(float64(coldTotal.Nanoseconds())/float64(b.N), "cold-ns/step")
			b.ReportMetric(float64(coldTotal)/float64(warmTotal), "speedup")
			b.ReportMetric(100*relErrSum/float64(b.N), "rel-err-%")
			b.ReportMetric(float64(warmIters)/float64(b.N), "warm-iters/step")
			b.ReportMetric(float64(coldIters)/float64(b.N), "cold-iters/step")
			b.ReportMetric(float64(skipped)/float64(b.N), "regions-skipped/step")
		})
	}
}

// BenchmarkLargeGridSolve is the large-instance hot-path gate: first-class
// grid workloads at 10^5–10^6 vertices solved by the heuristic push-relabel
// kernel (global relabeling, gap heuristic, highest-label selection) and the
// iterative Dinic, against the frozen pre-PR FIFO kernel and a budget-sharded
// service solve.  The CI default is a 256×256 four-neighbourhood segmentation
// grid; set ANALOGFLOW_GRID_FULL=1 for the full 512×512 run.  Legs:
//
//   - push-relabel/<size>: the heuristic kernel, value pinned to the exact
//     optimum; afterwards the FIFO baseline is replayed once under a deadline
//     of 10x the heuristic time, so the published speedup-vs-fifo is either
//     the true ratio or a certified lower bound (the baseline burned 10x the
//     heuristic's budget without terminating).  Below 3x the leg fails.
//   - fifo-identity/64x64: the identical-flow-value contract against the
//     pre-PR kernel, checked at a size where the FIFO baseline terminates
//     (it is already ~3 s at 64×64 and does not finish at 256×256), with the
//     true speedup reported.
//   - dinic/<size>: the iterative blocking-flow kernel at the same size.
//   - service-oneshot/128x128: the grid-oneshot request path without HTTP —
//     a fresh 128×128 grid per iteration built through
//     solve.FromSegmentationGrid, then Service.Solve with push-relabel:
//     fingerprint, prune, residual build, kernel, certificate and flow
//     expansion, with allocations reported.
//   - sharded/<size>: the budget-sharded service solve of the same grid,
//     value within the consensus band of the exact optimum (rel-err-%).
//   - dinic-longpath/1048576: a 1024×1024-vertex single-chain instance —
//     one augmenting path through 10^6 vertices — which the old recursive
//     DFS could not survive; completion here is the stack-safety criterion.
func BenchmarkLargeGridSolve(b *testing.B) {
	size := 256
	if os.Getenv("ANALOGFLOW_GRID_FULL") != "" {
		size = 512
	}
	g := graph.MustSegmentationGrid(size, size, false, 1)
	exact, err := maxflow.OptimalValue(g)
	if err != nil {
		b.Fatal(err)
	}
	tol := 1e-9 * math.Max(1, exact)
	name := fmt.Sprintf("%dx%d", size, size)

	b.Run("push-relabel/"+name, func(b *testing.B) {
		var hiDur time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			f, err := maxflow.SolvePushRelabel(g)
			if err != nil {
				b.Fatal(err)
			}
			hiDur = time.Since(start)
			if math.Abs(f.Value-exact) > tol {
				b.Fatalf("push-relabel flow %g, exact %g", f.Value, exact)
			}
		}
		// Replay the pre-PR FIFO kernel once, bounded at 10x the heuristic
		// kernel's time (with a 1 s floor so the bound is never noise-sized).
		// If it finishes, its value must match and the true speedup is
		// reported; if the deadline fires, the reported speedup is a lower
		// bound — the baseline spent that much time without terminating.
		b.StopTimer()
		deadline := 10 * hiDur
		if deadline < time.Second {
			deadline = time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		start := time.Now()
		fifo, fifoErr := maxflow.SolvePushRelabelFIFOContext(ctx, g)
		fifoDur := time.Since(start)
		if fifoErr != nil && ctx.Err() == nil {
			b.Fatal(fifoErr)
		}
		if fifoErr == nil && math.Abs(fifo.Value-exact) > tol {
			b.Fatalf("fifo flow %g, exact %g", fifo.Value, exact)
		}
		speedup := float64(fifoDur) / float64(hiDur)
		if speedup < 3.0 {
			b.Fatalf("heuristic kernel only %.2fx over the FIFO baseline (3x gate)", speedup)
		}
		b.ReportMetric(speedup, "speedup-vs-fifo")
	})

	b.Run("fifo-identity/64x64", func(b *testing.B) {
		small := graph.MustSegmentationGrid(64, 64, false, 1)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			hi, err := maxflow.SolvePushRelabel(small)
			if err != nil {
				b.Fatal(err)
			}
			hiDur := time.Since(start)
			start = time.Now()
			fifo, err := maxflow.SolvePushRelabelFIFO(small)
			if err != nil {
				b.Fatal(err)
			}
			fifoDur := time.Since(start)
			if d := math.Abs(hi.Value - fifo.Value); d > 1e-9*math.Max(1, fifo.Value) {
				b.Fatalf("heuristic flow %g != fifo flow %g", hi.Value, fifo.Value)
			}
			b.ReportMetric(float64(fifoDur)/float64(hiDur), "speedup-vs-fifo")
			b.ReportMetric(hi.Value, "flow-value")
		}
	})

	b.Run("dinic/"+name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := maxflow.SolveDinic(g)
			if err != nil {
				b.Fatal(err)
			}
			if math.Abs(f.Value-exact) > tol {
				b.Fatalf("dinic flow %g, exact %g", f.Value, exact)
			}
		}
	})

	b.Run("service-oneshot/128x128", func(b *testing.B) {
		b.ReportAllocs()
		svc := solve.NewService(solve.Config{})
		for i := 0; i < b.N; i++ {
			p, err := solve.FromSegmentationGrid(128, 128, false, int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := svc.Solve(context.Background(), solve.Request{Solver: "push-relabel", Problem: p})
			if err != nil {
				b.Fatal(err)
			}
			if rep.RelativeError != 0 {
				b.Fatalf("push-relabel answer not certified: relative error %g", rep.RelativeError)
			}
		}
	})

	b.Run("sharded/"+name, func(b *testing.B) {
		// Two regions: the consensus chain converges to the exact value on
		// grid topologies with one frontier; higher region counts do not yet
		// reach consensus on grids (docs/solver.md, "Large instances").
		budget := solve.Budget{MaxVertices: g.NumVertices()/2 + 40, MaxRegions: 2}
		svc := solve.NewService(solve.Config{Budget: budget})
		for i := 0; i < b.N; i++ {
			p, err := solve.NewProblem(g)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := svc.Solve(context.Background(), solve.Request{Solver: "dinic", Problem: p})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Plan == nil || !rep.Plan.Sharded {
				b.Fatalf("grid not sharded under budget %+v: plan %+v", budget, rep.Plan)
			}
			relErr := math.Abs(rep.FlowValue-exact) / math.Max(exact, 1)
			if relErr > 0.25 {
				b.Fatalf("sharded flow %.2f vs exact %.2f: %.1f%% error", rep.FlowValue, exact, 100*relErr)
			}
			b.ReportMetric(100*relErr, "rel-err-%")
			b.ReportMetric(float64(rep.Plan.Regions), "planned-regions")
		}
	})

	b.Run("dinic-longpath/1048576", func(b *testing.B) {
		chain := graph.LongPath(1 << 20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := maxflow.SolveDinic(chain)
			if err != nil {
				b.Fatal(err)
			}
			if math.Abs(f.Value-1) > 1e-9 {
				b.Fatalf("long-path flow %g, want 1", f.Value)
			}
		}
	})
}

// BenchmarkPushRelabelBaseline measures the CPU baseline on its own, per
// graph family, for the Figure 10 comparison.
func BenchmarkPushRelabelBaseline(b *testing.B) {
	for _, family := range []string{"dense", "sparse"} {
		b.Run(family, func(b *testing.B) {
			var g *graph.Graph
			if family == "dense" {
				g = rmat.MustGenerate(rmat.DenseParams(960, 1))
			} else {
				g = rmat.MustGenerate(rmat.SparseParams(960, 1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := maxflow.SolvePushRelabel(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassicalSolvers compares the three combinatorial algorithms on a
// mid-sized instance (a sanity check that the baseline is a fair one).
func BenchmarkClassicalSolvers(b *testing.B) {
	g := rmat.MustGenerate(rmat.SparseParams(512, 5))
	for _, alg := range []maxflow.Algorithm{maxflow.PushRelabel, maxflow.Dinic, maxflow.EdmondsKarp} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := maxflow.Solve(g, alg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBehavioralSolver measures the host-side cost of one behavioural
// substrate solve at the paper's largest evaluation size.
func BenchmarkBehavioralSolver(b *testing.B) {
	g := rmat.MustGenerate(rmat.SparseParams(960, 1))
	solver, err := core.NewSolver(core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircuitSolveFigure5 measures one full MNA operating-point solve of
// the paper's worked example (the circuit-mode path).
func BenchmarkCircuitSolveFigure5(b *testing.B) {
	p := core.DefaultParams()
	p.Mode = core.ModeCircuit
	p.Variation = core.DefaultCleanVariation()
	solver, err := core.NewSolver(p)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.PaperFigure5()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(g)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.RelativeError, "rel-err-%")
	}
}
