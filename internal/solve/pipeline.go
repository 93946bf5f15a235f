package solve

import (
	"context"
	"sync"

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
// as the original by construction) and then shared by the relative-error
// reporting of every backend that does not certify its own optimum (see
// cpuSolver).  The memo is the one the problem's core.Prepared bundle
// reads, so the whole problem runs at most one reference solve, and the
// pure-CPU backends never force the quantize stage to reach it.  A
// cancelled computation is not memoised, so a later call with a live
// context retries.
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

// fillExact stamps the shared exact reference value and the resulting
// relative error onto a report.
func (p *Problem) fillExact(ctx context.Context, rep *Report) error {
	exact, err := p.ExactValue(ctx)
	if err != nil {
		return err
	}
	rep.ExactValue = exact
	rep.RelativeError = graph.RelativeError(rep.FlowValue, exact)
	return nil
}
