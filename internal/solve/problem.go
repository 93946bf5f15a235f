package solve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"

	"analogflow/internal/core"
	"analogflow/internal/decompose"
	"analogflow/internal/graph"
)

// ValidationError is the typed error every Problem constructor returns for a
// structurally invalid instance or configuration.  It wraps the underlying
// cause (e.g. graph.ErrSameSourceSink), so errors.Is works through it.
type ValidationError struct {
	// Reason is a short description of what was invalid.
	Reason string
	// Err is the underlying cause, when one exists.
	Err error
}

func (e *ValidationError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("solve: invalid problem: %s: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("solve: invalid problem: %s", e.Reason)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *ValidationError) Unwrap() error { return e.Err }

// invalid builds a ValidationError.
func invalid(reason string, err error) *ValidationError {
	return &ValidationError{Reason: reason, Err: err}
}

// Problem is one validated max-flow instance plus the configuration every
// backend shares.  A Problem owns the staged preprocessing pipeline (see
// pipeline.go): its artifacts are computed lazily, exactly once, and shared
// by all backends that solve the problem.
//
// A Problem is immutable after construction and safe for concurrent use.
type Problem struct {
	g      *graph.Graph
	params core.Params
	dec    decompose.Options
	budget Budget

	pipe pipeline
}

// Option configures a Problem at construction time.
type Option func(*Problem)

// WithParams sets the analog-substrate parameters (quantization scheme,
// variation profile, crossbar, pruning flag).  The mode field is ignored:
// each analog backend forces its own mode.
func WithParams(p core.Params) Option {
	return func(pr *Problem) { pr.params = p }
}

// WithDecomposeOptions sets the options used by the "decompose" backend and
// by sharded (planner-routed) solves.
func WithDecomposeOptions(o decompose.Options) Option {
	return func(pr *Problem) { pr.dec = o }
}

// WithBudget sets the problem's substrate budget.  A non-zero budget makes
// the partition planner decide monolithic-vs-sharded execution for this
// problem: the decompose backend honours it directly, and the batch service
// routes any backend through the planner when the instance exceeds it.
func WithBudget(b Budget) Option {
	return func(pr *Problem) { pr.budget = b }
}

// NewProblem validates g and the configuration and returns the problem.
// All structural defects — a nil graph, a graph whose source equals its sink
// (graph.ErrSameSourceSink), out-of-range endpoints, negative capacities,
// inconsistent parameters — surface here as a *ValidationError, so backends
// can assume a well-formed instance.
func NewProblem(g *graph.Graph, opts ...Option) (*Problem, error) {
	p := &Problem{
		g:      g,
		params: core.DefaultParams(),
		dec:    decompose.DefaultOptions(),
	}
	for _, opt := range opts {
		opt(p)
	}
	if g == nil {
		return nil, invalid("nil graph", nil)
	}
	if err := g.Validate(); err != nil {
		return nil, invalid("graph validation failed", err)
	}
	if err := p.params.Validate(); err != nil {
		return nil, invalid("substrate parameters", err)
	}
	if err := p.dec.Validate(); err != nil {
		return nil, invalid("decompose options", err)
	}
	if err := p.budget.Validate(); err != nil {
		return nil, invalid("substrate budget", err)
	}
	return p, nil
}

// WithUpdate derives the problem that results from applying a validated
// capacity-only update to this one.  The receiver is never mutated: the graph
// is cloned (one allocation pass) and patched, so in-flight solves of the old
// problem stay valid and a session can keep a whole chain of problems alive.
//
// Three artifacts are carried over instead of recomputed:
//
//   - The fingerprint is chained — hash(base fingerprint, update) — so
//     deriving it costs O(|update|) instead of re-hashing the whole edge
//     list.  Two identical chains share a fingerprint; a chained problem
//     deliberately does not alias the fingerprint of a from-scratch problem
//     with equal content, which keeps a warm update chain's cache entries
//     separate from cold solves of the same instance.
//
//   - When no capacity crossed zero, the s-t core of the base problem is
//     structurally valid for the update (pruning depends on capacities only
//     through positivity), so the prune stage is seeded with a
//     capacity-patched copy of the base core instead of re-running the
//     reachability passes.  When the base core is the base graph itself
//     (nothing was pruned), the patched clone is already that copy and
//     seeds the core directly.
//
//   - The memoised partitions are inherited unconditionally: a capacity
//     update never changes adjacency, so BFS partitions are identical by
//     construction, and for the capacity-aware cluster partitioner the
//     inheritance deliberately freezes the chain's decomposition — a warm
//     sharded update chain keeps the region structure its cached per-region
//     instances were built for instead of re-clustering on drifted
//     capacities every step.
func (p *Problem) WithUpdate(u graph.CapacityUpdate) (*Problem, error) {
	if err := u.Validate(p.g); err != nil {
		return nil, invalid("capacity update", err)
	}
	g2 := p.g.Clone()
	rec, err := g2.ApplyCapacityUpdate(u)
	if err != nil {
		return nil, invalid("capacity update", err)
	}
	p2 := &Problem{g: g2, params: p.params, dec: p.dec, budget: p.budget}

	// Chained fingerprint.
	base := p.Fingerprint()
	h := sha256.New()
	h.Write([]byte(base))
	var buf [8]byte
	order := make([]int, len(u.Edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return u.Edges[order[a]] < u.Edges[order[b]] })
	for _, k := range order {
		binary.LittleEndian.PutUint64(buf[:], uint64(u.Edges[k]))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(u.Capacities[k]))
		h.Write(buf[:])
	}
	fp := hex.EncodeToString(h.Sum(nil)[:16])
	p2.pipe.fpOnce.Do(func() { p2.pipe.fp = fp })

	// Prune-stage reuse: positivity unchanged ⇒ the core's vertex and edge
	// sets are unchanged, only capacity values moved.
	if !rec.PositivityChanged && p.params.PruneGraph {
		_, pr := p.STCore()
		if pr != nil {
			core2 := g2
			if pr.Graph != p.g {
				newCaps := make([]float64, len(pr.EdgeMap))
				for i, orig := range pr.EdgeMap {
					newCaps[i] = g2.Edge(orig).Capacity
				}
				if core2, err = pr.Graph.WithCapacities(newCaps); err != nil {
					return nil, invalid("capacity update", err)
				}
			}
			pr2 := &graph.PruneResult{
				Graph:           core2,
				EdgeMap:         pr.EdgeMap,
				VertexMap:       pr.VertexMap,
				RemovedEdges:    pr.RemovedEdges,
				RemovedVertices: pr.RemovedVertices,
			}
			p2.pipe.pruneOnce.Do(func() {
				p2.pipe.prune = pr2
				p2.pipe.coreG = core2
			})
		}
	}

	// Partition inheritance (see the doc comment above).  Partitions are
	// immutable once memoised, so sharing the values is safe; the map is
	// copied so the two problems' memos grow independently.
	p.pipe.partMu.Lock()
	if len(p.pipe.parts) > 0 {
		p2.pipe.parts = make(map[partKey]decompose.Partition, len(p.pipe.parts))
		for k, v := range p.pipe.parts {
			p2.pipe.parts[k] = v
		}
	}
	p.pipe.partMu.Unlock()
	return p2, nil
}

// WithStructuralUpdate derives the problem that results from applying a
// validated topology update — edge insertions and removals — to this one.
// Like WithUpdate, the receiver is never mutated: the graph is cloned and
// patched, so in-flight solves of the old problem stay valid and a session can
// keep a whole chain of problems alive.
//
// Removals park their edges (capacity 0, slot resident); insertions reclaim a
// parked slot with matching endpoints when one exists and append a genuinely
// new edge otherwise (see graph.ApplyStructuralUpdate).  Two artifacts are
// carried over:
//
//   - The fingerprint is chained — hash(base fingerprint, update) — exactly
//     like WithUpdate's, under a distinct domain tag so a structural step can
//     never alias a capacity step of equal bytes.
//
//   - The memoised partitions are inherited: partitions assign vertices to
//     regions and a structural update never adds vertices, so every inherited
//     partition remains a valid cover.  This deliberately freezes the chain's
//     decomposition — the regions owning touched edges rebuild cold inside the
//     claimed oracle (Stats.RegionColdRebuilds) while every untouched region
//     keeps its warm instance and consensus state, which is the selective
//     invalidation sharded structural steps need.
//
// The prune stage is NOT seeded: topology moved, so the s-t core must be
// recomputed from scratch (a park can strand a branch, an insertion can revive
// one).
func (p *Problem) WithStructuralUpdate(u graph.StructuralUpdate) (*Problem, error) {
	if err := u.Validate(p.g); err != nil {
		return nil, invalid("structural update", err)
	}
	g2 := p.g.Clone()
	if _, err := g2.ApplyStructuralUpdate(u); err != nil {
		return nil, invalid("structural update", err)
	}
	p2 := &Problem{g: g2, params: p.params, dec: p.dec, budget: p.budget}

	// Chained fingerprint.  Removals are order-insensitive (sorted);
	// insertions are hashed in order, because append order decides the new
	// edges' indices.
	base := p.Fingerprint()
	h := sha256.New()
	h.Write([]byte(base))
	h.Write([]byte("|structural"))
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	removed := append([]int(nil), u.RemoveEdges...)
	sort.Ints(removed)
	writeInt(len(removed))
	for _, e := range removed {
		writeInt(e)
	}
	writeInt(len(u.AddEdges))
	for _, e := range u.AddEdges {
		writeInt(e.From)
		writeInt(e.To)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Capacity))
		h.Write(buf[:])
	}
	fp := hex.EncodeToString(h.Sum(nil)[:16])
	p2.pipe.fpOnce.Do(func() { p2.pipe.fp = fp })

	// Partition inheritance (see the doc comment above).
	p.pipe.partMu.Lock()
	if len(p.pipe.parts) > 0 {
		p2.pipe.parts = make(map[partKey]decompose.Partition, len(p.pipe.parts))
		for k, v := range p.pipe.parts {
			p2.pipe.parts[k] = v
		}
	}
	p.pipe.partMu.Unlock()
	return p2, nil
}

// StructuralSlack returns the number of parked edge slots the problem's graph
// currently carries — the pool of structurally resident positions a future
// insertion can reclaim as a pure value-level update.  An insertion whose
// endpoints match no parked slot appends instead, which warm circuit state
// cannot absorb (ErrSlackExhausted → one cold rebuild).
func (p *Problem) StructuralSlack() int { return p.g.NumParked() }

// FromDIMACS is the parse stage of the pipeline for on-the-wire instances:
// it reads a DIMACS max-flow instance and validates it into a Problem.
func FromDIMACS(r io.Reader, opts ...Option) (*Problem, error) {
	g, err := graph.ReadDIMACS(r)
	if err != nil {
		return nil, invalid("DIMACS parse failed", err)
	}
	return NewProblem(g, opts...)
}

// Graph returns the problem's graph.  Callers must not mutate it.
func (p *Problem) Graph() *graph.Graph { return p.g }

// Params returns the analog-substrate parameters.
func (p *Problem) Params() core.Params { return p.params }

// DecomposeOptions returns the decomposition backend's options.
func (p *Problem) DecomposeOptions() decompose.Options { return p.dec }

// Budget returns the problem's substrate budget (zero when unset).
func (p *Problem) Budget() Budget { return p.budget }

// fingerprintNonce makes problems carrying non-content-hashable
// configuration (function-valued hooks) unique instead of wrongly shared.
var fingerprintNonce atomic.Int64

// Fingerprint returns a content hash identifying the problem for instance
// caching: two problems with the same graph (vertices, terminals, edge list
// with capacities) and the same configuration share a fingerprint.  The
// configuration part hashes the rendered parameter struct, so it is stable
// within a process — which is all the in-memory instance cache needs.
// Function-valued hooks (builder.Options.PerturbResistance) have no
// comparable content; a problem carrying one gets a process-unique
// fingerprint so the warm-instance cache can never alias two different
// perturbation closures.
func (p *Problem) Fingerprint() string {
	p.pipe.fpOnce.Do(func() {
		h := sha256.New()
		var buf [8]byte
		writeInt := func(v int) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		writeFloat := func(f float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
		writeInt(p.g.NumVertices())
		writeInt(p.g.Source())
		writeInt(p.g.Sink())
		writeInt(p.g.NumEdges())
		for i := 0; i < p.g.NumEdges(); i++ {
			e := p.g.Edge(i)
			writeInt(e.From)
			writeInt(e.To)
			writeFloat(e.Capacity)
		}
		// Parked slots are structurally resident but carry no flow; a parked
		// edge and an ordinary capacity-0 edge hash identically above, yet
		// their instances differ (the slot survives pruning and reserves a
		// pattern position), so the parked set joins the hash.
		if np := p.g.NumParked(); np > 0 {
			writeInt(np)
			for _, i := range p.g.ParkedEdges() {
				writeInt(i)
			}
		}
		params := p.params
		// The mode field is ignored by WithParams (each analog backend
		// forces its own); hashing it would fragment the warm-instance
		// cache between otherwise identical problems.
		params.Mode = core.ModeBehavioral
		if params.Builder.PerturbResistance != nil {
			// %+v would render the closure as a heap address, which both
			// defeats sharing and — worse — could alias after reuse.
			params.Builder.PerturbResistance = nil
			fmt.Fprintf(h, "|uniq:%d", fingerprintNonce.Add(1))
		}
		fmt.Fprintf(h, "|params:%+v", params)
		// Workers is excluded: the serial==concurrent identity makes it
		// result-invisible, so hashing it would only fragment the cache.
		fmt.Fprintf(h, "|dec:%d:%g:%g:%d", p.dec.MaxIterations, p.dec.StepSize, p.dec.Tolerance,
			p.dec.NumRegions())
		if p.dec.Oracle != nil {
			// A custom oracle is function-valued configuration with no
			// comparable content; like PerturbResistance, it gets a
			// process-unique fingerprint so the warm-instance cache can never
			// alias two different oracles.
			fmt.Fprintf(h, "|oracle-uniq:%d", fingerprintNonce.Add(1))
		}
		fmt.Fprintf(h, "|budget:%d:%d:%s", p.budget.MaxVertices, p.budget.MaxRegions, p.budget.Partitioner)
		p.pipe.fp = hex.EncodeToString(h.Sum(nil)[:16])
	})
	return p.pipe.fp
}
