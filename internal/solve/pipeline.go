package solve

import (
	"context"
	"sync"
	"sync/atomic"

	"analogflow/internal/core"
	"analogflow/internal/decompose"
	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
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
// graph itself when the prune removes nothing), the exact reference value
// that the backends without an optimality certificate read is one Dinic
// solve of the same core, and the two analog backends share one
// core.Prepared built from the same prune result.
type pipeline struct {
	pruneOnce sync.Once
	prune     *graph.PruneResult // nil when pruning is disabled
	coreG     *graph.Graph

	prepOnce  sync.Once
	prep      *core.Prepared
	prepErr   error
	prepBuilt atomic.Pointer[core.Prepared] // set inside prepOnce; lock-free "is it built yet" probe

	exactMu   sync.Mutex
	exactDone bool
	exact     float64

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
// graph is returned with a nil mapping.
func (p *Problem) STCore() (*graph.Graph, *graph.PruneResult) {
	p.pipe.pruneOnce.Do(func() {
		if !p.params.PruneGraph {
			p.pipe.coreG = p.g
			return
		}
		p.pipe.prune = graph.PruneToSTCore(p.g)
		p.pipe.coreG = p.pipe.prune.Graph
	})
	return p.pipe.coreG, p.pipe.prune
}

// Prepared returns the quantize stage's output: the substrate preprocessing
// bundle of internal/core (prune + voltage quantization + fused re-prune),
// built once from the shared prune artifact and reused by both analog
// backends and by every cached warm instance.
func (p *Problem) Prepared() (*core.Prepared, error) {
	p.pipe.prepOnce.Do(func() {
		_, pr := p.STCore()
		p.pipe.prep, p.pipe.prepErr = core.PrepareWithCore(p.g, pr, p.params)
		if p.pipe.prep != nil {
			// Publish the bundle BEFORE the seed check: together with the
			// post-compute re-check in ExactValue, the exactMu ordering then
			// guarantees that whichever of {this seed check, a concurrent
			// pipeline-memo computation} runs second sees the other's work,
			// so the two memos can never both stay cold.
			p.pipe.prepBuilt.Store(p.pipe.prep)
			p.pipe.exactMu.Lock()
			if p.pipe.exactDone {
				p.pipe.prep.SeedExactValue(p.pipe.exact)
			}
			p.pipe.exactMu.Unlock()
		}
	})
	return p.pipe.prep, p.pipe.prepErr
}

// ExactValue returns the exact maximum flow of the instance, computed once
// with Dinic's algorithm on the s-t core (which has the same max-flow value
// as the original by construction) and then shared by the relative-error
// reporting of every backend that does not certify its own optimum (see
// cpuSolver).  The pipeline memo and the core.Prepared
// bundle's memo (which the analog finalize step reads) seed each other, so
// the whole problem runs at most one reference solve — without the pure-CPU
// backends ever forcing the quantize stage just to reach a memo.  A
// cancelled computation is not memoised, so a later call with a live context
// retries.
func (p *Problem) ExactValue(ctx context.Context) (float64, error) {
	if prep := p.pipe.prepBuilt.Load(); prep != nil {
		// The analog bundle exists; use (and share) its memo.
		return prep.ExactValue(ctx)
	}
	p.pipe.exactMu.Lock()
	defer p.pipe.exactMu.Unlock()
	if p.pipe.exactDone {
		return p.pipe.exact, nil
	}
	coreG, _ := p.STCore()
	v, err := maxflow.OptimalValueContext(ctx, coreG)
	if err != nil {
		return 0, err
	}
	p.pipe.exact, p.pipe.exactDone = v, true
	// Re-check under the lock: if the bundle appeared while we computed,
	// its seed check ran before our memoisation (exactMu orders the two),
	// so it is on us to hand the value over.
	if prep := p.pipe.prepBuilt.Load(); prep != nil {
		prep.SeedExactValue(v)
	}
	return v, nil
}

// seedExact records an exact maximum flow a backend just computed (always a
// Dinic value bit-identical to what the memos would derive), so neither memo
// ever re-runs the reference solve.
func (p *Problem) seedExact(v float64) {
	p.pipe.exactMu.Lock()
	if !p.pipe.exactDone {
		p.pipe.exact, p.pipe.exactDone = v, true
	}
	p.pipe.exactMu.Unlock()
	if prep := p.pipe.prepBuilt.Load(); prep != nil {
		prep.SeedExactValue(v)
	}
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
