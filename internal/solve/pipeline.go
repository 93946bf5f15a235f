package solve

import (
	"context"
	"sync"
	"time"

	"analogflow/internal/core"
	"analogflow/internal/decompose"
	"analogflow/internal/graph"
)

// pipeline holds the staged preprocessing artifacts of a Problem.  The
// stages mirror how an instance travels toward a substrate:
//
//	parse      — done by the Problem constructor / the FromDIMACS helper
//	prune      — reduce to the s-t core (stage shared by every backend)
//	quantize   — map capacities onto voltage levels (analog backends; the
//	             core.Prepared bundle also re-runs the fused prune on the
//	             quantized capacities)
//	decompose  — split into overlapping regions (decompose backend only)
//
// Each artifact is computed lazily, exactly once, under its own sync.Once,
// and then shared: the CPU backends solve on the pruned core (the problem's
// graph itself when the prune removes nothing), and the two analog backends
// share one core.Prepared built from the same prune result.  The exact
// reference value that the backends without an optimality certificate read
// is one Dinic solve of the same core, kept in the problem's one
// core.ExactMemo, which the core.Prepared bundle shares.
type pipeline struct {
	pruneOnce sync.Once
	prune     *graph.PruneResult // nil when pruning is disabled
	coreG     *graph.Graph
	// seed is the base problem's prune result for a value-level
	// derivative (see WithUpdate), and keepsSeed that the derivation moved
	// no capacity across zero; the prune stage reads both once and drops
	// the seed, so no chain keeps its history alive.
	seed      *graph.PruneResult
	keepsSeed bool

	prepOnce sync.Once
	prep     *core.Prepared
	prepErr  error

	exact core.ExactMemo

	partMu sync.Mutex
	parts  map[partKey]decompose.Partition

	fpOnce sync.Once
	fp     string
}

// partKey identifies one memoised partition: which partitioner produced it
// and how many regions were requested.
type partKey struct {
	partitioner string
	regions     int
}

// STCore returns the prune stage's output: the s-t core of the graph and the
// prune mapping needed to expand core-domain flows back to the original edge
// indexing.  When the problem's parameters disable pruning the original
// graph is returned with a nil mapping.  A derived problem prunes from its
// base's result (graph.PruneToSTCoreFrom), so a step that keeps the core's
// vertices and edges re-stamps values instead of rebuilding the core.
func (p *Problem) STCore() (*graph.Graph, *graph.PruneResult) {
	p.pipe.pruneOnce.Do(func() {
		if !p.params.PruneGraph {
			p.pipe.coreG = p.g
			return
		}
		p.pipe.prune = graph.PruneToSTCoreFrom(p.g, p.pipe.seed, p.pipe.keepsSeed)
		p.pipe.coreG = p.pipe.prune.Graph
		p.pipe.seed = nil
	})
	return p.pipe.coreG, p.pipe.prune
}

// Prepared returns the quantize stage's output: the substrate preprocessing
// bundle of internal/core (prune + voltage quantization + fused re-prune),
// built once from the shared prune artifact and the problem's exact-value
// memo, and reused by both analog backends and by every cached warm
// instance.
func (p *Problem) Prepared() (*core.Prepared, error) {
	p.pipe.prepOnce.Do(func() {
		_, pr := p.STCore()
		p.pipe.prep, p.pipe.prepErr = core.PrepareWithCore(p.g, pr, &p.pipe.exact, p.params)
	})
	return p.pipe.prep, p.pipe.prepErr
}

// ExactValue returns the exact maximum flow of the instance, computed once
// with Dinic's algorithm on the s-t core (which has the same max-flow value
// as the original by construction) and then shared by every report that
// does not certify its own optimum (see finish).  The memo is the one the
// problem's core.Prepared bundle reads, so the whole problem runs at most
// one reference solve, and the pure-CPU backends never force the quantize
// stage to reach it.  A cancelled computation is not memoised, so a later
// call with a live context retries.
func (p *Problem) ExactValue(ctx context.Context) (float64, error) {
	coreG, _ := p.STCore()
	return p.pipe.exact.Value(ctx, coreG)
}

// PartitionInto returns the decompose stage's output: the N-region overlap
// partition of the named partitioner ("bfs" or "cluster"; "" selects bfs).
// Each (partitioner, regions) pair is computed once per problem and shared —
// by the decompose backend, by the partition planner, and by every re-solve
// of a cached instance.  The effective region count may be lower than asked
// for on shallow or small instances (see decompose.Partitioner).
func (p *Problem) PartitionInto(partitioner string, regions int) (decompose.Partition, error) {
	pt, err := decompose.PartitionerByName(partitioner)
	if err != nil {
		return decompose.Partition{}, err
	}
	return p.partitionInto(pt, regions)
}

// partitionInto is PartitionInto with a resolved partitioner.
func (p *Problem) partitionInto(pt decompose.Partitioner, regions int) (decompose.Partition, error) {
	key := partKey{pt.Name(), regions}
	p.pipe.partMu.Lock()
	defer p.pipe.partMu.Unlock()
	if part, ok := p.pipe.parts[key]; ok {
		return part, nil
	}
	part, err := pt.Partition(p.g, regions)
	if err != nil {
		return decompose.Partition{}, err
	}
	if p.pipe.parts == nil {
		p.pipe.parts = make(map[partKey]decompose.Partition)
	}
	p.pipe.parts[key] = part
	return part, nil
}

// proof is what a report's exact value rests on.
type proof int

const (
	// reference: nothing proves the flow optimal, so the report reads the
	// problem's Dinic reference (analog readings, lp, decompositions and a
	// failed certificate).
	reference proof = iota
	// certified: the solve's residual network certified the flow optimal.
	certified
	// dinicFlow: the flow is Dinic's own on the s-t core, the reference
	// itself.
	dinicFlow
)

// finish completes a backend's report on p; every built-in report passes
// through it.  It names the report and stamps wall, the kernel time the
// backend measured.  A non-nil f is a flow on p's s-t core, which finish maps
// to the original edge indexing (the report takes f's edge slice) together
// with the prune counts.  A nil f leaves the flow the backend set: an analog
// report carries core's expanded flow and the counts of both prune passes,
// and a decomposition reports a value alone.  The exact value is FlowValue
// when pf is certified and the problem's Dinic reference otherwise; the
// relative error follows from the two.
func (p *Problem) finish(ctx context.Context, name string, rep *Report, f *graph.Flow, pf proof, wall time.Duration) (*Report, error) {
	if pf == dinicFlow {
		// A Dinic solve of the core is bit-identical to the reference
		// computation the memo would run, so seed it instead of solving
		// twice.
		p.pipe.exact.Seed(f.Value)
	}
	if f != nil {
		if _, pr := p.STCore(); pr != nil {
			if pr.Graph != p.g {
				f = pr.ExpandFlow(p.g, f)
			}
			rep.PrunedVertices, rep.PrunedEdges = pr.RemovedVertices, pr.RemovedEdges
		}
		rep.FlowValue, rep.EdgeFlows = f.Value, f.Edge
	}
	// A certified value proves itself and seeds no memo: the other exact
	// algorithms may differ from Dinic in the last ulp, and the shared
	// reference must not depend on backend order.
	rep.ExactValue = rep.FlowValue
	if pf != certified {
		exact, err := p.ExactValue(ctx)
		if err != nil {
			return nil, err
		}
		rep.ExactValue = exact
	}
	rep.RelativeError = graph.RelativeError(rep.FlowValue, rep.ExactValue)
	rep.Solver, rep.WallTime = name, wall
	return rep, nil
}
