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
	"analogflow/internal/rmat"
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
	// spec is the domain-tagged input of the generator that built g (see
	// FromRMAT and FromSegmentationGrid), which Fingerprint hashes in place
	// of the edge list; "" keys the problem by content.  A derived problem
	// never carries it.
	spec string

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

// NewProblem validates the configuration and returns the problem over g.
// The graph is valid by construction: graph.New, graph.FromEdges and every
// mutator reject a bad endpoint, a self loop, a negative or non-finite
// capacity and equal terminals as they build, so NewProblem checks only
// what construction cannot rule out — a nil graph and the zero value
// graph.Graph{}.  Those and inconsistent parameters surface here as a
// *ValidationError, so backends can assume a well-formed instance.
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
	if g.NumVertices() < 2 {
		return nil, invalid("graph validation failed", g.Validate())
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
// is cloned (graph.Graph.Clone copies the edge list and shares the frozen
// adjacency) and patched, so in-flight solves of the old problem stay valid
// and a session can keep a whole chain of problems alive.
//
// Three artifacts are carried over instead of recomputed:
//
//   - The fingerprint is chained — hash(base fingerprint, update) — so
//     deriving it costs O(|update|) instead of re-hashing the whole edge
//     list.  Two identical chains share a fingerprint; a chained problem
//     does not alias the fingerprint of a from-scratch problem with equal
//     content, so a one-shot solve of a derived problem keeps a cache entry
//     of its own.  (Update chains key their warm state by problem, not by
//     fingerprint.)
//
//   - The prune stage is seeded with the base's s-t core
//     (graph.PruneToSTCoreFrom).  Pruning depends on capacities only
//     through positivity, so when no capacity crossed zero the core keeps
//     its vertices and edges and is re-stamped with the new capacities
//     without the reachability passes; otherwise the passes run, and the
//     core is still re-stamped rather than rebuilt when they keep the same
//     vertices and edges.  When the base core is the base graph itself
//     (nothing was pruned), the derived core is the derived graph.
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

	p2.seedPrune(p, !rec.PositivityChanged)
	p2.inheritPartitions(p)
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
// new edge otherwise (see graph.ApplyStructuralUpdate).  Three artifacts are
// carried over:
//
//   - The fingerprint is chained — hash(base fingerprint, update) — exactly
//     like WithUpdate's, under a distinct domain tag so a structural step can
//     never alias a capacity step of equal bytes.
//
//   - A step that appends no edge only moves capacities and parked flags,
//     so its prune stage is seeded with the base's s-t core like a
//     WithUpdate step whose capacities crossed zero: the reachability passes
//     run (a park can strand a branch, a reclaim can revive one), and the
//     core is re-stamped rather than rebuilt when they keep the same
//     vertices and edges.  A step that appends prunes from scratch.
//
//   - The memoised partitions are inherited: partitions assign vertices to
//     regions and a structural update never adds vertices, so every inherited
//     partition remains a valid cover.  This deliberately freezes the chain's
//     decomposition — the regions owning touched edges rebuild cold inside the
//     chain's oracle (analogflow_region_cold_rebuilds_total) while every
//     untouched region keeps its warm instance and consensus state, which is
//     the selective invalidation sharded structural steps need.
func (p *Problem) WithStructuralUpdate(u graph.StructuralUpdate) (*Problem, error) {
	if err := u.Validate(p.g); err != nil {
		return nil, invalid("structural update", err)
	}
	g2 := p.g.Clone()
	rec, err := g2.ApplyStructuralUpdate(u)
	if err != nil {
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

	if len(rec.Appended) == 0 {
		p2.seedPrune(p, false)
	}
	p2.inheritPartitions(p)
	return p2, nil
}

// seedPrune hands base's prune result to p's prune stage, which p derives
// from base by value-level steps; keepsSeed reports that no capacity
// crossed zero (see graph.PruneToSTCoreFrom).
func (p *Problem) seedPrune(base *Problem, keepsSeed bool) {
	if p.params.PruneGraph {
		_, p.pipe.seed = base.STCore()
		p.pipe.keepsSeed = keepsSeed
	}
}

// inheritPartitions copies base's memoised partitions into p.  Partitions are
// immutable once memoised, so sharing the values is safe; the map is copied
// so the two problems' memos grow independently.
func (p *Problem) inheritPartitions(base *Problem) {
	base.pipe.partMu.Lock()
	defer base.pipe.partMu.Unlock()
	if len(base.pipe.parts) > 0 {
		p.pipe.parts = make(map[partKey]decompose.Partition, len(base.pipe.parts))
		for k, v := range base.pipe.parts {
			p.pipe.parts[k] = v
		}
	}
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

// specTag opens every spec key.  Read as the leading little-endian vertex
// count of a content hash's input, its first eight bytes exceed any graph
// that fits in memory, so a spec key and a content hash never share an
// input.
const specTag = "analogflow/spec|"

// FromRMAT generates the R-MAT instance p describes (rmat.Generate) into a
// Problem.  The generator is deterministic, so the problem's fingerprint
// keys it by p — every field — instead of hashing the generated edge list.
func FromRMAT(p rmat.Params, opts ...Option) (*Problem, error) {
	g, err := rmat.Generate(p)
	if err != nil {
		return nil, invalid("R-MAT generation failed", err)
	}
	return withSpec(g, fmt.Sprintf("rmat:%#v", p), opts)
}

// FromSegmentationGrid builds graph.SegmentationGrid(width, height, eight,
// seed) into a Problem whose fingerprint is keyed by those four inputs
// instead of the generated edge list.
func FromSegmentationGrid(width, height int, eight bool, seed int64, opts ...Option) (*Problem, error) {
	g, err := graph.SegmentationGrid(width, height, eight, seed)
	if err != nil {
		return nil, invalid("grid generation failed", err)
	}
	return withSpec(g, fmt.Sprintf("grid:%d:%d:%t:%d", width, height, eight, seed), opts)
}

// withSpec is NewProblem for a generator-built graph keyed by spec.
func withSpec(g *graph.Graph, spec string, opts []Option) (*Problem, error) {
	p, err := NewProblem(g, opts...)
	if err != nil {
		return nil, err
	}
	p.spec = specTag + spec
	return p, nil
}

// Graph returns the problem's graph.  Callers must not mutate it.
func (p *Problem) Graph() *graph.Graph { return p.g }

// Params returns the analog-substrate parameters.
func (p *Problem) Params() core.Params { return p.params }

// DecomposeOptions returns the decomposition backend's options.
func (p *Problem) DecomposeOptions() decompose.Options { return p.dec }

// Budget returns the problem's substrate budget (zero when unset).
func (p *Problem) Budget() Budget { return p.budget }

// fingerprintChunk is the block size Fingerprint feeds to SHA-256, a
// multiple of both the 8-byte word and the 64-byte hash block.
const fingerprintChunk = 32 << 10

// fingerprintNonce makes problems carrying non-content-hashable
// configuration (function-valued hooks) unique instead of wrongly shared.
var fingerprintNonce atomic.Int64

// Fingerprint returns a hash identifying the problem for the one-shot
// instance cache.  It covers the instance and the configuration.  The
// instance part is the generator's input for a problem built by FromRMAT or
// FromSegmentationGrid (the generators are deterministic, so equal input
// means an equal graph), and the content — vertices, terminals, edge list
// with capacities, parked slots — for every other problem.  Two problems
// keyed the same way with the same instance and configuration share a
// fingerprint; a spec-built problem never shares one with a content-keyed
// problem over an equal graph, and a derived problem carries a chained one
// instead (see WithUpdate).  The configuration part hashes the rendered
// parameter struct, so it is stable within a process — which is all the
// in-memory instance cache needs.
// Function-valued hooks (builder.Options.PerturbResistance) have no
// comparable content; a problem carrying one gets a process-unique
// fingerprint so the warm-instance cache can never alias two different
// perturbation closures.
func (p *Problem) Fingerprint() string {
	p.pipe.fpOnce.Do(func() {
		h := sha256.New()
		if p.spec != "" {
			io.WriteString(h, p.spec)
		} else {
			p.hashContent(h)
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

// hashContent writes the graph's content to h as little-endian words, in
// fingerprintChunk-byte blocks rather than one word at a time.
func (p *Problem) hashContent(h io.Writer) {
	buf := make([]byte, 0, fingerprintChunk)
	put := func(v uint64) {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	put(uint64(p.g.NumVertices()))
	put(uint64(p.g.Source()))
	put(uint64(p.g.Sink()))
	put(uint64(p.g.NumEdges()))
	for i := 0; i < p.g.NumEdges(); i++ {
		e := p.g.Edge(i)
		put(uint64(e.From))
		put(uint64(e.To))
		put(math.Float64bits(e.Capacity))
	}
	// Parked slots are structurally resident but carry no flow; a parked
	// edge and an ordinary capacity-0 edge hash identically above, yet
	// their instances differ (the slot survives pruning and reserves a
	// pattern position), so the parked set joins the hash.
	if np := p.g.NumParked(); np > 0 {
		put(uint64(np))
		for _, i := range p.g.ParkedEdges() {
			put(uint64(i))
		}
	}
	h.Write(buf)
}
