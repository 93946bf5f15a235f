// Package decompose implements the dual-decomposition scheme of Section 6.4
// of the paper, which lets a bounded-size substrate solve instances larger
// than its crossbar by splitting the problem into overlapping subproblems and
// iterating to consensus on the shared variables.
//
// Following the paper (and Strandmark & Kahl, which it cites), the graph's
// vertices are split into N overlapping regions; each region keeps the edges
// between its vertices, the capacity of an edge shared by several regions is
// divided between the copies, and a Lagrange multiplier per overlap *vertex*
// prices flow imbalance between the copies.  Each outer iteration solves the
// N region subproblems independently — on the analog substrate in a real
// deployment, with any max-flow oracle here — and updates the multipliers by
// (sub)gradient ascent until the shared quantities agree.
//
// Region subproblems are independent within one iteration, so they fan out
// across the bounded worker pool of internal/parallel; the result is
// identical for any worker count, including the serial limit of one.
package decompose

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/parallel"
)

// Oracle solves max-flow subproblems, one per region.  The production
// substrate would be an analog solver (core.Session via the registry adapter
// in internal/solve); the tests also use the exact combinatorial solver.
//
// The region index is stable across outer iterations, so implementations can
// keep warm per-region state (a residual network, a programmed crossbar, a
// factorised circuit) and absorb the iteration-to-iteration capacity
// retargeting incrementally.  SolveRegion may be called concurrently for
// distinct regions; calls for the same region are serialised by the outer
// loop.
//
// The contract extends across Solve calls: a caller that re-solves the same
// graph under the same partition after a capacity-only mutation (the dynamic
// update chains of internal/solve) may hand the same Oracle to the next
// SolveContext call, and each region's first solve of the new run is a
// capacity-only delta against its last solve of the previous run.  An
// implementation holding warm state must therefore key it by region index
// and diff against the incoming region graph, never assume a fresh oracle
// per run — and the caller, in turn, must not share one Oracle between two
// concurrent runs (the same-region serialisation above holds only within a
// run).
type Oracle interface {
	SolveRegion(ctx context.Context, region int, g *graph.Graph) (*graph.Flow, error)
}

// OracleFunc adapts a plain function to the Oracle interface.
type OracleFunc func(ctx context.Context, region int, g *graph.Graph) (*graph.Flow, error)

// SolveRegion implements Oracle.
func (f OracleFunc) SolveRegion(ctx context.Context, region int, g *graph.Graph) (*graph.Flow, error) {
	return f(ctx, region, g)
}

// ExactOracle returns the default subproblem solver (Dinic's algorithm,
// context-bound).
func ExactOracle() Oracle {
	return OracleFunc(func(ctx context.Context, _ int, g *graph.Graph) (*graph.Flow, error) {
		return maxflow.SolveDinicContext(ctx, g)
	})
}

// Options configures the decomposition.
type Options struct {
	// MaxIterations bounds the outer multiplier-update loop.
	MaxIterations int
	// StepSize is the fraction of the overlap disagreement a consensus
	// update closes per iteration.
	StepSize float64
	// Tolerance is the consensus tolerance on the overlap imbalance and the
	// region-value spread, relative to the current flow value.
	Tolerance float64
	// Oracle solves the subproblems; nil selects ExactOracle.
	Oracle Oracle
	// Regions is the region count used when a partition is derived from the
	// options (the solve-layer planner and the N-region partitioners); <= 0
	// selects 2.  Solve itself takes an explicit Partition and ignores it.
	Regions int
	// Workers bounds the number of concurrently solved regions per outer
	// iteration; <= 0 selects the internal/parallel default (GOMAXPROCS).
	// The result is identical for every worker count.
	Workers int
	// WarmState seeds the outer loop with the consensus state a previous run
	// over the same graph structure and partition exported (Result.State);
	// see the WarmState type for the contract, including the caller's
	// escalation obligation under capacity increases.  Incompatible state is
	// ignored region by region.
	WarmState *WarmState
	// CarryState exports the final consensus state as Result.State.
	CarryState bool
}

// DefaultOptions returns a configuration that converges on the evaluation
// workloads within a few tens of iterations.  The 5% consensus tolerance
// matches the accuracy class of the analog substrate the subproblems target
// (quantization alone costs a few percent).
func DefaultOptions() Options {
	return Options{MaxIterations: 60, StepSize: 0.5, Tolerance: 0.05, Regions: 2}
}

// NumRegions returns the configured region count, defaulting to 2.
func (o Options) NumRegions() int {
	if o.Regions <= 0 {
		return 2
	}
	return o.Regions
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.MaxIterations < 1 {
		return fmt.Errorf("decompose: need at least one iteration")
	}
	if o.StepSize <= 0 || o.StepSize > 1 {
		return fmt.Errorf("decompose: step size must be in (0, 1], got %g", o.StepSize)
	}
	if o.Tolerance <= 0 {
		return fmt.Errorf("decompose: tolerance must be positive")
	}
	return nil
}

// Result is the outcome of the decomposition.
type Result struct {
	// FlowValue is the consensus flow value: the final iterate's smallest
	// region reading (each region subproblem starts as a relaxation of the
	// full problem, so the smallest reading is the working estimate).
	FlowValue float64
	// Iterations is the number of outer iterations used.
	Iterations int
	// Converged reports whether the overlap imbalance and the region value
	// spread both fell below tolerance.
	Converged bool
	// Imbalance is the final relative overlap imbalance.
	Imbalance float64
	// Regions is the number of regions actually solved.
	Regions int
	// SubproblemSizes reports |V| of each region subproblem (virtual
	// terminals included), to verify that each fits the substrate.
	SubproblemSizes []int
	// History records the flow-value estimate per iteration.
	History []float64
	// WarmStarted reports whether a compatible Options.WarmState seeded at
	// least one region.
	WarmStarted bool
	// RegionSolves and RegionSkips count, across all outer iterations, the
	// region subproblems the oracle actually solved versus the clean regions
	// whose cached flow was replayed because their subproblem capacities had
	// not moved since their last solve.
	RegionSolves int
	RegionSkips  int
	// State is the exported consensus state when Options.CarryState is set;
	// hand it to the next run's Options.WarmState to warm-start it.
	State *WarmState
}

// WarmState is the consensus state of one decomposition run over a given
// graph structure and partition, exported via Result.State (Options.CarryState)
// and accepted back through Options.WarmState to seed the next run.
//
// Graphs[r] is region r's subproblem graph as last solved: its split and
// virtual edge capacities ARE the consensus boundary allowances, its owned
// edge capacities record what the flow was computed against.  Flows[r] is the
// flow of that solve — the region's last boundary reading.  Seeding re-imposes
// the carried allowances on the freshly stamped regions and replays Flows[r]
// for every region whose subproblem is bit-identical to its last solve, so an
// update chain's next step re-solves only the regions the capacity delta
// actually touched.
//
// A WarmState also carries the run's region layout: everything about the
// decomposition that capacities cannot change — edge ownership, the
// consensus groups, each region's vertex maps and a frozen template of its
// subproblem graph.  The next run reuses the layout when the graph's vertex
// count, terminals, edge endpoints and parked edges and the partition
// (compared by content) all match, and then re-stamps each region's
// capacities onto its template instead of rebuilding it; a region whose
// boundary wiring flips under the new capacities is rebuilt alone.  A
// topology change, a park or reclaim, or another partition rebuilds the
// whole layout.  Unseeded keeps the layout without the consensus seed.
//
// The carried allowances are BINDING at the previous consensus: they remain a
// valid relaxation under capacity decreases, but a capacity increase can make
// a warm run converge below the new optimum.  A caller that cannot rule out
// increases must validate the warm result against a reference and fall back
// to a run without WarmState when it falls short (the solve layer's sharded
// update path escalates exactly this way).
//
// State from a different graph structure or partition is ignored region by
// region — an unseedable region simply starts cold.  A WarmState must not be
// mutated, and must not be fed into two concurrent runs that also share the
// Oracle.
type WarmState struct {
	Graphs []*graph.Graph
	Flows  []*graph.Flow
	layout *layout
}

// Unseeded returns a state that keeps w's region layout but no consensus
// seed: a run given it starts from the structural relaxation exactly as a
// run without WarmState does, and only skips rebuilding the layout when it
// still fits.  A nil state gives nil.
func (w *WarmState) Unseeded() *WarmState {
	if w == nil {
		return nil
	}
	return &WarmState{layout: w.layout}
}

// sameStructure reports whether two graphs share their topology (vertex
// count, terminals, and edge endpoints in identical order), capacities aside.
func sameStructure(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() ||
		a.Source() != b.Source() || a.Sink() != b.Sink() {
		return false
	}
	for i, m := 0, a.NumEdges(); i < m; i++ {
		if e, o := a.Edge(i), b.Edge(i); e.From != o.From || e.To != o.To {
			return false
		}
	}
	return true
}

// sameCapacities reports whether g carries bit-identical capacities to ref.
func sameCapacities(g, ref *graph.Graph) bool {
	if ref == nil {
		return false
	}
	if g == ref {
		return true
	}
	if g.NumEdges() != ref.NumEdges() {
		return false
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i).Capacity != ref.Edge(i).Capacity {
			return false
		}
	}
	return true
}

// layout is the capacity-independent part of a decomposition of one graph
// topology under one partition, built once and reused by every run whose
// graph and partition it fits (see WarmState).  It is never written after
// the run that built it returns: a run that must rebuild a region of a
// carried layout rebuilds it into a copy, so every WarmState holding a
// layout stays valid.
type layout struct {
	// What the layout was built for: the vertex count, the terminals, the
	// edge endpoints, the parked edges and a private copy of the partition.
	n, source, sink int
	ends            [][2]int
	parked          []int
	part            Partition

	owner   []int // owner[ei] is the region materialising edge ei, or -1
	groups  []overlapGroup
	regions []*regionLayout
}

// regionLayout is one region's share of a layout.  The vertex maps and the
// owned edges follow from the topology and the partition alone; the wiring,
// the handles and the template are those of the region's last build (see
// buildRegion), which holds until the boundary wiring flips.
type regionLayout struct {
	localOf []int // localOf[global] = local in-node index or -1
	overlap []int // global ids of overlap vertices present in this region
	// splits lists the split overlap vertices; splits[i] is split by
	// region-local edge i, and splitOf inverts that.  The split edge's
	// capacity is the consensus throughput bound at the vertex.  The
	// out-halves are the region's last len(splits) nodes, in that order.
	splits  []int
	splitOf map[int]int
	// owned lists the edges the region materialises, ascending: global edge
	// owned[j] is region-local edge len(splits)+j.  parked lists the local
	// indices of the parked ones.
	owned  []int
	parked []int
	// nLocal counts the region's nodes; src and sink are its terminals, real
	// or virtual.
	nLocal, src, sink       int
	hasRealSrc, hasRealSink bool

	// wiring[i] is the virtual terminal edge overlap[i] gets in the template
	// (wireNone, wireOutlet or wireInlet); the virtual edges follow the owned
	// ones in overlap order.
	wiring []uint8
	// handles are the region-local edges the consensus update retargets: the
	// split edge of every split vertex, the virtual terminal edge of an
	// overlap terminal (which is never split).
	handles []handle
	// tmpl is the region's frozen subproblem graph as last built; runs
	// re-stamp their capacities onto it, sharing its adjacency.
	tmpl *graph.Graph
}

// handle is one consensus retarget handle: region-local edge edge carries
// the allowance at overlap vertex ov.
type handle struct{ ov, edge int }

// Boundary wiring of an overlap vertex in one region (see buildRegion).
const (
	wireNone   uint8 = iota
	wireOutlet       // ov_out -> sink node
	wireInlet        // source node -> ov_in
)

// region is one region's subproblem in the current run: its layout and its
// graph as currently retargeted.
type region struct {
	*regionLayout
	graph *graph.Graph
}

// newLayout builds the layout of g under part.  Partition.Validate runs
// here, once per layout; the templates are built by the first stamp.
func newLayout(g *graph.Graph, part Partition) (*layout, error) {
	if err := part.Validate(g); err != nil {
		return nil, err
	}
	n, m := g.NumVertices(), g.NumEdges()
	lay := &layout{
		n: n, source: g.Source(), sink: g.Sink(),
		ends:   make([][2]int, m),
		parked: g.ParkedEdges(),
		part:   part.clone(),
		owner:  part.edgeOwners(g),
	}
	for i := range lay.ends {
		e := g.Edge(i)
		lay.ends[i] = [2]int{e.From, e.To}
	}
	shared := make([]int, n)
	for _, in := range part.In {
		for v, b := range in {
			if b {
				shared[v]++
			}
		}
	}
	lay.groups = part.overlapGroups(shared)
	lay.regions = make([]*regionLayout, part.NumRegions())
	for r := range lay.regions {
		lay.regions[r] = newRegionLayout(g, part.In[r], r, lay.owner, shared)
	}
	return lay, nil
}

// fits reports whether l was built for g's topology and parked edges and
// for a partition with part's content.
func (l *layout) fits(g *graph.Graph, part Partition) bool {
	if l == nil || l.n != g.NumVertices() || l.source != g.Source() || l.sink != g.Sink() ||
		len(l.ends) != g.NumEdges() || len(l.parked) != g.NumParked() || !l.part.equal(part) {
		return false
	}
	for i, ends := range l.ends {
		if e := g.Edge(i); e.From != ends[0] || e.To != ends[1] {
			return false
		}
	}
	for _, ei := range l.parked {
		if !g.ParkedEdge(ei) {
			return false
		}
	}
	return true
}

// newRegionLayout lays out region r (membership in) of g: its local nodes,
// its split vertices and the edges it owns.
func newRegionLayout(g *graph.Graph, in []bool, r int, owner, shared []int) *regionLayout {
	n := g.NumVertices()
	rl := &regionLayout{
		localOf:     make([]int, n),
		splitOf:     make(map[int]int),
		hasRealSrc:  in[g.Source()],
		hasRealSink: in[g.Sink()],
	}
	for v := 0; v < n; v++ {
		rl.localOf[v] = -1
		if in[v] {
			rl.localOf[v] = rl.nLocal
			rl.nLocal++
			if shared[v] > 1 {
				rl.overlap = append(rl.overlap, v)
			}
		}
	}
	// A region that lacks a terminal gets a virtual one appended; split
	// overlap vertices get their out-half after that.
	rl.src, rl.sink = rl.localOf[g.Source()], rl.localOf[g.Sink()]
	if rl.src < 0 {
		rl.src = rl.nLocal
		rl.nLocal++
	}
	if rl.sink < 0 {
		rl.sink = rl.nLocal
		rl.nLocal++
	}
	for _, ov := range rl.overlap {
		if ov == g.Source() || ov == g.Sink() {
			continue
		}
		rl.nLocal++
		rl.splitOf[ov] = len(rl.splits)
		rl.splits = append(rl.splits, ov)
	}
	for ei, o := range owner {
		if o != r {
			continue
		}
		if g.ParkedEdge(ei) {
			rl.parked = append(rl.parked, len(rl.splits)+len(rl.owned))
		}
		rl.owned = append(rl.owned, ei)
	}
	return rl
}

// localOut returns the local node edges leaving global vertex v depart
// from: the ov_out half of a split overlap vertex, localOf[v] otherwise.
func (rl *regionLayout) localOut(v int) int {
	if i, ok := rl.splitOf[v]; ok {
		return rl.nLocal - len(rl.splits) + i
	}
	return rl.localOf[v]
}

// stamp walks region r's edges in g once and returns this run's capacities
// in region edge order — split edges, owned edges, then the virtual edges —
// and the boundary wiring that order assumes.  The capacity and wiring
// rules are buildRegion's.  A parked owned edge carries capacity 0.
func (rl *regionLayout) stamp(g *graph.Graph, owner []int, r int, capFloor, capClamp float64) ([]float64, []uint8) {
	nFixed := len(rl.splits) + len(rl.owned)
	caps := make([]float64, nFixed, nFixed+len(rl.overlap))
	for j, ei := range rl.owned {
		if !g.ParkedEdge(ei) {
			caps[len(rl.splits)+j] = g.Edge(ei).Capacity
		}
	}
	// Boundary wiring: every incident edge the region does not own — cross
	// edges and edges materialised in another region alike — contributes
	// inlet/outlet capacity; the ownership-orientation rule picks the one
	// side to wire.
	wiring := make([]uint8, len(rl.overlap))
	split := 0
	for i, ov := range rl.overlap {
		var totIn, totOut, inletCap, outletCap, ownedIn, ownedOut float64
		for _, ei := range g.InEdges(ov) {
			c := g.Edge(ei).Capacity
			totIn += c
			if owner[ei] == r {
				ownedIn += c
			} else {
				inletCap += c
			}
		}
		for _, ei := range g.OutEdges(ov) {
			c := g.Edge(ei).Capacity
			totOut += c
			if owner[ei] == r {
				ownedOut += c
			} else {
				outletCap += c
			}
		}
		if ov != g.Source() && ov != g.Sink() {
			caps[split] = math.Max(math.Min(math.Min(totIn, totOut), capClamp), capFloor)
			split++
		}
		wireIn, wireOut := false, false
		switch {
		case ov == g.Source():
			wireOut = true
		case ov == g.Sink():
			wireIn = true
		case ownedIn == 0 && ownedOut == 0:
			// A pure-relay vertex (the region owns none of its capacity):
			// wire the side with more external capacity.
			wireOut = outletCap > inletCap
			wireIn = !wireOut
		case ownedIn > ownedOut:
			wireOut = true
		default:
			wireIn = true
		}
		// Virtual wiring must never touch a REAL terminal: an outlet edge in
		// a region holding the real sink would dump boundary pass-through
		// straight into t (counting flow that in truth leaves the region
		// AWAY from the sink as delivered), and an inlet edge in a region
		// holding the real source would draw fake supply from s.  A region
		// holding a real terminal therefore degenerates to the classic
		// one-sided construction — every boundary vertex an inlet when the
		// sink is real, every one an outlet when the source is real — and
		// the ownership orientation only decides the wiring of middle
		// regions.
		switch {
		case rl.hasRealSrc && rl.hasRealSink:
			wireIn, wireOut = false, false
		case rl.hasRealSink:
			wireOut = false
			wireIn = inletCap > 0
		case rl.hasRealSrc:
			wireIn = false
			wireOut = outletCap > 0
		default:
			// The chosen side may carry no external capacity (a boundary
			// vertex whose cross edges all point the other way); fall back
			// to the live side rather than leaving the vertex stranded.
			if wireOut && !wireIn && outletCap == 0 {
				wireIn, wireOut = true, false
			} else if wireIn && !wireOut && inletCap == 0 {
				wireIn, wireOut = false, true
			}
		}
		if wireOut && outletCap > 0 && ov != g.Sink() {
			wiring[i] = wireOutlet
			caps = append(caps, math.Min(outletCap, capClamp))
		}
		if wireIn && inletCap > 0 && ov != g.Source() {
			wiring[i] = wireInlet
			caps = append(caps, math.Min(inletCap, capClamp))
		}
	}
	return caps, wiring
}

// sameParked reports whether g parks exactly the template's parked edges.
func (rl *regionLayout) sameParked(g *graph.Graph) bool {
	if g.NumParked() != len(rl.parked) {
		return false
	}
	for _, i := range rl.parked {
		if !g.ParkedEdge(i) {
			return false
		}
	}
	return true
}

// buildRegion returns a copy of rl whose template is the region's subproblem
// graph for one stamp of g: the capacities caps and the boundary wiring
// wiring that stamp computed.  The template is frozen (graph.FromEdges)
// and is never written afterwards.
//
// Every edge of g is materialised in exactly one region — its owner, the
// lowest-index region containing both endpoints — at its full capacity; in
// every other region the edge only contributes boundary capacity to the
// virtual terminal wiring of its endpoints.  Owning edges uniquely keeps the
// global capacity conserved: the paper's E_M / E_N split divides a shared
// edge's capacity between its copies, which silently undercounts the flow
// value whenever a min-cut edge lands in the overlap (with hub-heavy cluster
// partitions that is the common case, not the corner case).
//
// Every non-terminal overlap vertex is split into an in-half and an out-half
// joined by one split edge (the vertex-capacity gadget of the dual
// decomposition literature): incoming edges — owned and virtual inlet alike
// — enter ov_in, outgoing edges leave ov_out, so the split edge's capacity is
// a hard bound on the region's throughput at ov.  That bound is the
// per-overlap-vertex consensus variable: the multiplier update retargets
// exactly the split edges, which makes the regions' readings genuinely
// converge (a bound on virtual edges alone cannot constrain throughput that
// arrives over owned edges).  The split edge starts at the most the vertex
// could ever carry, min(total in-capacity, total out-capacity) in the full
// graph.
//
// Boundary wiring: an overlap vertex with incident edges the region does not
// own gets a virtual inlet (source node -> ov_in, external in-capacity) or a
// virtual outlet (ov_out -> sink node, external out-capacity), so flow
// crossing the region boundary has somewhere to come from and go to — but
// only ONE of the two per region: a vertex wired on both sides of the
// terminal pair would open a source→vertex→sink short circuit that saturates
// its split edge identically in every incident region, and a disagreement
// signal that is identical everywhere freezes the consensus update.
//
// The orientation follows edge ownership, which already encodes the flow
// direction of the handoff: a region that owns an overlap vertex's incoming
// capacity carries flow TO the vertex and must drain it (outlet), a region
// that owns its outgoing capacity carries flow FROM the vertex and must be
// fed there (inlet).  On BFS bands this reduces exactly to the two-region
// construction (the upstream band owns the boundary's in-edges, the
// downstream band its out-edges); on cluster partitions it orients a
// duplicated vertex as an outlet in the region it was copied into and an
// inlet at home, without any appeal to graph depth.
//
// The global source and sink are never split (flow originates and terminates
// there); when they appear as overlap vertices their virtual edges take the
// split edge's place as the retarget handle.
func (rl *regionLayout) buildRegion(g *graph.Graph, caps []float64, wiring []uint8) (*regionLayout, error) {
	nSplit := len(rl.splits)
	edges := make([]graph.Edge, len(caps))
	handles := make([]handle, nSplit, nSplit+2)
	// Split edges first: one per split overlap vertex, capacity = the
	// vertex's global throughput bound (floored so a later retarget can
	// never flip the edge's positivity).
	for i, ov := range rl.splits {
		edges[i] = graph.Edge{From: rl.localOf[ov], To: rl.localOut(ov), Capacity: caps[i]}
		handles[i] = handle{ov: ov, edge: i}
	}
	// Owned edges: tail's out-half -> head's in-half.  A parked edge stays
	// structurally resident in its owning region — the slot carries no
	// capacity, but keeping it in the region graph means the region's own
	// prune and fingerprint see the same structural-slack pool the parent
	// instance does.
	for j, ei := range rl.owned {
		e := g.Edge(ei)
		edges[nSplit+j] = graph.Edge{From: rl.localOut(e.From), To: rl.localOf[e.To], Capacity: caps[nSplit+j]}
	}
	// Boundary wiring: the virtual terminal edges stamp chose, in overlap
	// order.
	idx := nSplit + len(rl.owned)
	for i, ov := range rl.overlap {
		switch wiring[i] {
		case wireOutlet:
			edges[idx] = graph.Edge{From: rl.localOut(ov), To: rl.sink, Capacity: caps[idx]}
			if ov == g.Source() {
				// Unsplit terminal: the virtual edge is the retarget handle.
				handles = append(handles, handle{ov: ov, edge: idx})
			}
		case wireInlet:
			edges[idx] = graph.Edge{From: rl.src, To: rl.localOf[ov], Capacity: caps[idx]}
			if ov == g.Sink() {
				handles = append(handles, handle{ov: ov, edge: idx})
			}
		default:
			continue
		}
		idx++
	}
	tmpl, err := graph.FromEdges(rl.nLocal, rl.src, rl.sink, edges)
	if err != nil {
		return nil, err
	}
	if len(rl.parked) > 0 {
		if _, err := tmpl.ApplyStructuralUpdate(graph.StructuralUpdate{RemoveEdges: rl.parked}); err != nil {
			return nil, err
		}
	}
	built := *rl
	built.wiring, built.handles, built.tmpl = wiring, handles, tmpl
	return &built, nil
}

// withRegions returns a copy of l with a region slice of its own, for a run
// that rebuilds a region of a carried layout.
func (l *layout) withRegions() *layout {
	c := *l
	c.regions = slices.Clone(l.regions)
	return &c
}

// withCapacities returns base itself when it carries caps bit for bit, and
// otherwise a copy of base with caps, which shares base's frozen adjacency.
func withCapacities(base *graph.Graph, caps []float64) (*graph.Graph, error) {
	same := len(caps) == base.NumEdges()
	for i := 0; same && i < len(caps); i++ {
		same = math.Float64bits(base.Edge(i).Capacity) == math.Float64bits(caps[i])
	}
	if same {
		return base, nil
	}
	return base.WithCapacities(caps)
}

// stamped is a run's starting point: the layout it runs on, each region's
// subproblem graph, and the consensus state seeded from a WarmState.
type stamped struct {
	lay     *layout
	regions []*region
	flows   []*graph.Flow
	solved  []*graph.Graph
	warm    bool
}

// stampRegions prepares a run over g and part: it takes the layout ws
// carries when it fits and builds one otherwise, stamps this run's
// capacities onto every region (rebuilding a region alone when its wiring
// flipped), and seeds each region whose carried graph still has the stamped
// structure with ws's consensus allowances and flow.  ws may be nil, and
// is never written.
func stampRegions(g *graph.Graph, part Partition, ws *WarmState, capFloor, capClamp float64) (*stamped, error) {
	var carried *layout
	if ws != nil {
		carried = ws.layout
	}
	lay := carried
	if !lay.fits(g, part) {
		var err error
		if lay, err = newLayout(g, part); err != nil {
			return nil, err
		}
	}
	k := len(lay.regions)
	st := &stamped{regions: make([]*region, k), flows: make([]*graph.Flow, k), solved: make([]*graph.Graph, k)}
	seed := ws != nil && len(ws.Graphs) == k && len(ws.Flows) == k
	for r := 0; r < k; r++ {
		rl := lay.regions[r]
		caps, wiring := rl.stamp(g, lay.owner, r, capFloor, capClamp)
		if rl.tmpl == nil || !bytes.Equal(wiring, rl.wiring) {
			built, err := rl.buildRegion(g, caps, wiring)
			if err != nil {
				return nil, err
			}
			if lay == carried {
				lay = lay.withRegions()
			}
			lay.regions[r], rl = built, built
		}
		base := rl.tmpl
		if seed {
			wg, wf := ws.Graphs[r], ws.Flows[r]
			if wg != nil && wf != nil && len(wf.Edge) == wg.NumEdges() && sameStructure(wg, rl.tmpl) {
				// Re-impose the carried consensus allowances: owned and
				// structural boundary capacities come from g, the retarget
				// handles from the carried state.
				for _, h := range rl.handles {
					caps[h.edge] = wg.Edge(h.edge).Capacity
				}
				st.flows[r], st.solved[r], st.warm = wf, wg, true
				if rl.sameParked(wg) {
					base = wg
				}
			}
		}
		rg, err := withCapacities(base, caps)
		if err != nil {
			return nil, err
		}
		st.regions[r] = &region{regionLayout: rl, graph: rg}
	}
	st.lay = lay
	return st, nil
}

// capBounds returns g's two capacity bounds.  capFloor is the smallest
// capacity a consensus retarget may assign to a split or virtual edge (see
// the target update in SolveContext).
//
// valueScale bounds the true max-flow from above by structure alone
// (everything leaves the source and enters the sink).  It caps the
// convergence denominator — an inflated early estimate must not widen its
// own tolerance band — and clamps every split and virtual capacity: no
// boundary can carry more than the whole flow, and without the clamp the
// summed boundary capacities blow up the dynamic range an analog region
// oracle has to quantize.
func capBounds(g *graph.Graph) (capFloor, valueScale float64) {
	var srcCap, sinkCap float64
	for _, ei := range g.OutEdges(g.Source()) {
		srcCap += g.Edge(ei).Capacity
	}
	for _, ei := range g.InEdges(g.Sink()) {
		sinkCap += g.Edge(ei).Capacity
	}
	return g.MaxCapacity() * 1e-9, math.Min(srcCap, sinkCap)
}

// Solve runs the dual decomposition of g under the given partition.
func Solve(g *graph.Graph, part Partition, opts Options) (*Result, error) {
	return SolveContext(context.Background(), g, part, opts)
}

// SolveContext is Solve with cooperative cancellation: the context is checked
// once per outer multiplier-update iteration and between region solves, and
// is passed into the oracle so that cancellation also lands inside a long
// subproblem solve.
func SolveContext(ctx context.Context, g *graph.Graph, part Partition, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// Graphs are valid by construction (graph.New, graph.FromEdges and every
	// mutator check what they add), so only nil and the zero value
	// graph.Graph{} are refused, the latter with Validate's own error.  The
	// partition is caller input: newLayout validates it whenever it builds a
	// layout, and a carried layout fits only a partition equal to the one it
	// was built for.
	if g == nil {
		return nil, errors.New("decompose: nil graph")
	}
	if g.NumVertices() < 2 {
		return nil, g.Validate()
	}
	oracle := opts.Oracle
	if oracle == nil {
		oracle = ExactOracle()
	}

	capFloor, valueScale := capBounds(g)
	st, err := stampRegions(g, part, opts.WarmState, capFloor, valueScale)
	if err != nil {
		return nil, err
	}
	k := len(st.regions)
	res := &Result{Regions: k, SubproblemSizes: make([]int, k), WarmStarted: st.warm}
	for r, reg := range st.regions {
		res.SubproblemSizes[r] = reg.graph.NumVertices()
	}
	// Overlap bookkeeping: the consensus groups — overlap vertices sharing
	// one set of incident regions — in deterministic order.  The update
	// walks these groups, so the imbalance accumulation order (and hence the
	// floating-point result) is independent of how the region solves were
	// scheduled.
	regions, groups := st.regions, st.lay.groups
	// solved[r] is region r's graph as last solved: flows[r] was computed
	// against exactly its capacities.  A region whose current capacities equal
	// its last-solved ones is clean — its reading cannot have changed — and
	// the scheduler replays flows[r] instead of calling the oracle.  The pair
	// (solved, flows) is also the carried consensus state (Result.State).
	flows, solved := st.flows, st.solved
	// bestEstimate is the largest min-over-regions reading seen.  Iteration
	// one's readings are pure relaxations (every boundary still carries its
	// structural maximum), so this is a stable upper-side anchor for the
	// boundary aggregates below.
	bestEstimate := 0.0
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Iterations = iter
		// Active-region scheduling: a region is dirty when its capacities
		// moved since its last solve — owned-edge deltas on a warm-started
		// entry, retargeted consensus allowances between iterations.  Clean
		// regions keep their cached flow: the subproblem is bit-identical, so
		// re-solving it could only reproduce the same reading.  On a warm
		// start whose replayed readings already agree within tolerance, the
		// convergence check below exits after this first, mostly-replayed
		// iteration.
		dirty := make([]bool, k)
		for r := range regions {
			dirty[r] = flows[r] == nil || !sameCapacities(regions[r].graph, solved[r])
			if dirty[r] {
				res.RegionSolves++
			} else {
				res.RegionSkips++
			}
		}
		// Fan the region solves over the bounded pool.  Each slot is written
		// by exactly one worker; ForEachLimit returns the lowest-index error,
		// so the reported failure does not depend on the worker count either.
		err := parallel.ForEachLimit(k, opts.Workers, func(r int) (err error) {
			// A panicking oracle fails its region, not the process: the
			// decomposition is the failure-domain boundary for raw oracles
			// (the solve service adds its own typed recovery one level in).
			defer func() {
				if rec := recover(); rec != nil {
					err = fmt.Errorf("decompose: region %d: oracle panicked: %v", r, rec)
				}
			}()
			if !dirty[r] {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			f, err := oracle.SolveRegion(ctx, r, regions[r].graph)
			if err != nil {
				return fmt.Errorf("decompose: region %d: %w", r, err)
			}
			if len(f.Edge) != regions[r].graph.NumEdges() {
				return fmt.Errorf("decompose: region %d: oracle returned %d edge flows for %d edges",
					r, len(f.Edge), regions[r].graph.NumEdges())
			}
			flows[r] = f
			solved[r] = regions[r].graph
			return nil
		})
		if err != nil {
			return nil, err
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, f := range flows {
			lo = math.Min(lo, f.Value)
			hi = math.Max(hi, f.Value)
		}
		// The smallest region reading is the iterate's estimate.  It is NOT
		// monotone: tightening the boundary of a region that was re-routing
		// can transiently undershoot before the next solve rebalances, so
		// the running result is the current iterate, not the minimum ever
		// seen (which would lock the transient in).
		res.History = append(res.History, lo)
		res.FlowValue = lo
		bestEstimate = math.Max(bestEstimate, lo)

		if k == 1 {
			// A single region is the monolithic problem: one exact reading.
			res.Converged = true
			res.Imbalance = 0
			break
		}

		// Consensus update, one group at a time.  Each overlap vertex's
		// allowance moves a StepSize fraction toward the smallest throughput
		// any incident region sustained there — the classic per-vertex pull
		// — but never below a protection floor derived from the group's
		// AGGREGATE consensus: vertHi_i * (aggregateTarget / hiT).  The
		// protection matters when a boundary has redundant vertices: two
		// regions routing the same total through different vertices disagree
		// at every vertex (readings {x, 0} both places) even though they
		// agree perfectly on the total, and the bare per-vertex pull would
		// strangle the whole boundary to zero; with the protection, a vertex
		// some region actively uses keeps its capacity for as long as the
		// group totals agree.
		var imbalance float64
		targets := make(map[int]float64)
		estimate := bestEstimate
		for _, grp := range groups {
			loT, hiT := math.Inf(1), math.Inf(-1)
			vertLo := make([]float64, len(grp.verts))
			vertHi := make([]float64, len(grp.verts))
			for i := range vertLo {
				vertLo[i] = math.Inf(1)
			}
			for _, r := range grp.regions {
				var total float64
				for i, ov := range grp.verts {
					t := regions[r].throughput(ov, g.Sink(), flows[r])
					total += t
					vertLo[i] = math.Min(vertLo[i], t)
					vertHi[i] = math.Max(vertHi[i], t)
				}
				loT = math.Min(loT, total)
				hiT = math.Max(hiT, total)
			}
			imbalance += hiT - loT
			ratio := 1.0
			if hiT > 0 {
				ratio = (loT + (1-opts.StepSize)*(hiT-loT)) / hiT
			}
			var groupSum float64
			groupTargets := make([]float64, len(grp.verts))
			for i := range grp.verts {
				pull := vertLo[i] + (1-opts.StepSize)*(vertHi[i]-vertLo[i])
				groupTargets[i] = math.Max(pull, vertHi[i]*ratio)
				groupSum += groupTargets[i]
			}
			// Anchor: a boundary of the (layered) decomposition must carry
			// the full consensus flow, so the group's aggregate allowance
			// never tightens below the current global estimate — without
			// this, two regions disagreeing about WHERE flow crosses keep
			// strangling each other's preferred vertices until the whole
			// boundary (and with it the estimate) collapses to zero.
			if groupSum > 0 && groupSum < estimate {
				scale := estimate / groupSum
				for i := range groupTargets {
					groupTargets[i] *= scale
				}
			}
			for i, ov := range grp.verts {
				// The capFloor keeps every retargeted capacity strictly
				// positive: a capacity that reaches exactly zero flips the
				// edge's positivity, which changes the subproblem's s-t core
				// and costs a warm region oracle its residual structure.
				// The value contribution of the floored capacities is orders
				// of magnitude below every convergence tolerance.
				targets[ov] = math.Max(groupTargets[i], capFloor)
			}
		}
		denominator := math.Max(math.Min(lo, valueScale), 1)
		res.Imbalance = imbalance / denominator
		// A collapsed plateau (readings far below the best estimate seen)
		// can satisfy the relative criteria trivially; it is a consensus
		// failure, not a consensus, so it never sets Converged.
		collapsed := lo < 0.5*bestEstimate || (lo == 0 && hi > 0)
		if hi-lo <= opts.Tolerance*denominator && res.Imbalance <= opts.Tolerance && !collapsed {
			res.Converged = true
			break
		}
		for _, reg := range regions {
			reg.retargetVirtual(targets)
		}
	}
	if opts.CarryState {
		res.State = &WarmState{Graphs: solved, Flows: flows, layout: st.lay}
	}
	return res, nil
}

// throughput is the flow region r pushes through overlap vertex ov: the flow
// on the split edge for split vertices; for an unsplit terminal, the total
// outgoing flow at the source or the total incoming flow at the sink (the
// sink absorbs flow instead of forwarding it — reading its out-flow would
// always be zero and the consensus update would strangle its virtual inlets).
func (r *region) throughput(ov, globalSink int, f *graph.Flow) float64 {
	if ei, ok := r.splitOf[ov]; ok {
		return f.Edge[ei]
	}
	var through float64
	edges := r.graph.OutEdges(r.localOf[ov])
	if ov == globalSink {
		edges = r.graph.InEdges(r.localOf[ov])
	}
	for _, ei := range edges {
		through += f.Edge[ei]
	}
	return through
}

// retargetVirtual rewrites the region's virtual-terminal edge capacities to
// the given per-overlap-vertex targets.  Writes that would not change a
// capacity are skipped, and a region none of whose handles moved keeps its
// graph object — the active-region scheduler depends on converged or
// untouched regions staying bit-identical (hence clean) across iterations.
func (r *region) retargetVirtual(targets map[int]float64) {
	var caps []float64
	for _, h := range r.handles {
		target, ok := targets[h.ov]
		if !ok || r.graph.Edge(h.edge).Capacity == target {
			continue
		}
		if caps == nil {
			caps = make([]float64, r.graph.NumEdges())
			for i := range caps {
				caps[i] = r.graph.Edge(i).Capacity
			}
		}
		caps[h.edge] = target
	}
	if caps == nil {
		return
	}
	// WithCapacities copies, so the previous iterate's graph — which a warm
	// oracle may still reference for diffing — stays untouched.
	if adjusted, err := r.graph.WithCapacities(caps); err == nil {
		r.graph = adjusted
	}
}

// --- partitions --------------------------------------------------------------

// Partition splits the vertex set into N overlapping regions.
type Partition struct {
	// In[r][v] marks membership of vertex v in region r; overlap vertices
	// belong to two or more regions.
	In [][]bool
	// Home[v] optionally names vertex v's primary region (the one it was
	// assigned to before overlap duplication).  Edge ownership prefers the
	// home regions of an edge's endpoints; nil falls back to the
	// lowest-index region containing both.
	Home []int
}

// NumRegions returns the number of regions.
func (p Partition) NumRegions() int { return len(p.In) }

// regionsOf counts the regions containing vertex v.
func (p Partition) regionsOf(v int) int {
	k := 0
	for _, in := range p.In {
		if in[v] {
			k++
		}
	}
	return k
}

// edgeOwners returns, per edge, the one region that materialises the edge —
// or -1 for pure cross edges, which no region materialises.  The owner is
// the first region containing both endpoints, trying the endpoints' home
// regions first (when the partition carries them): without that preference,
// a vertex pair duplicated into several regions would always be owned by the
// lowest-index one, systematically starving high-index regions of their own
// interior structure.
func (p Partition) edgeOwners(g *graph.Graph) []int {
	owner := make([]int, g.NumEdges())
	contains := func(r, u, v int) bool {
		return r >= 0 && r < len(p.In) && p.In[r][u] && p.In[r][v]
	}
	for ei := range owner {
		e := g.Edge(ei)
		owner[ei] = -1
		if p.Home != nil {
			if h := p.Home[e.From]; contains(h, e.From, e.To) {
				owner[ei] = h
				continue
			}
			if h := p.Home[e.To]; contains(h, e.From, e.To) {
				owner[ei] = h
				continue
			}
		}
		for r := range p.In {
			if contains(r, e.From, e.To) {
				owner[ei] = r
				break
			}
		}
	}
	return owner
}

// overlapGroup is one consensus group: the overlap vertices shared by
// exactly the same set of regions, which must agree on the aggregate
// throughput across them.
type overlapGroup struct {
	regions []int // ascending incident region indices
	verts   []int // ascending overlap vertex ids with that signature
}

// overlapGroups partitions the overlap vertices by their incident-region
// signature, in deterministic (first-vertex) order.  shared[v] counts the
// regions containing v.  The signature key is the membership bitmap, looked
// up without allocating; only a new group's key is copied into the index.
func (p Partition) overlapGroups(shared []int) []overlapGroup {
	index := make(map[string]int)
	var groups []overlapGroup
	key := make([]byte, (len(p.In)+7)/8)
	for v, s := range shared {
		if s < 2 {
			continue
		}
		clear(key)
		for r, in := range p.In {
			if in[v] {
				key[r/8] |= 1 << (r % 8)
			}
		}
		gi, ok := index[string(key)]
		if !ok {
			rs := make([]int, 0, s)
			for r, in := range p.In {
				if in[v] {
					rs = append(rs, r)
				}
			}
			gi = len(groups)
			index[string(key)] = gi
			groups = append(groups, overlapGroup{regions: rs})
		}
		groups[gi].verts = append(groups[gi].verts, v)
	}
	return groups
}

// equal reports whether p and q mark the same memberships and homes.
func (p Partition) equal(q Partition) bool {
	if len(p.In) != len(q.In) || !slices.Equal(p.Home, q.Home) {
		return false
	}
	for r := range p.In {
		if !slices.Equal(p.In[r], q.In[r]) {
			return false
		}
	}
	return true
}

// clone returns a copy of p that shares no slice with it.
func (p Partition) clone() Partition {
	c := Partition{In: make([][]bool, len(p.In)), Home: slices.Clone(p.Home)}
	for r, in := range p.In {
		c.In[r] = slices.Clone(in)
	}
	return c
}

// ErrDegeneratePartition marks partitions the decomposition rejects: an empty
// region, regions that cannot communicate, or full duplication of the vertex
// set.
var ErrDegeneratePartition = errors.New("decompose: degenerate partition")

// Validate checks that the partition covers every vertex, that no region is
// empty, and — for two or more regions — that the regions overlap somewhere
// without *every* vertex being shared (an all-overlap "partition" duplicates
// the whole instance into each region, which the shared-capacity split would
// silently undercount).
func (p Partition) Validate(g *graph.Graph) error {
	n := g.NumVertices()
	if len(p.In) == 0 {
		return fmt.Errorf("%w: no regions", ErrDegeneratePartition)
	}
	for r, in := range p.In {
		if len(in) != n {
			return fmt.Errorf("decompose: region %d marks %d of %d vertices", r, len(in), n)
		}
		empty := true
		for _, b := range in {
			if b {
				empty = false
				break
			}
		}
		if empty {
			return fmt.Errorf("%w: region %d is empty", ErrDegeneratePartition, r)
		}
	}
	overlap, private := 0, 0
	for v := 0; v < n; v++ {
		switch p.regionsOf(v) {
		case 0:
			return fmt.Errorf("decompose: vertex %d not covered by any region", v)
		case 1:
			private++
		default:
			overlap++
		}
	}
	if p.NumRegions() > 1 {
		if overlap == 0 {
			return fmt.Errorf("%w: regions do not overlap", ErrDegeneratePartition)
		}
		if private == 0 {
			return fmt.Errorf("%w: every vertex is shared (all-overlap)", ErrDegeneratePartition)
		}
	}
	return nil
}

// Partitioner produces an N-region overlapping partition of a graph.  A
// partitioner may return fewer regions than asked for when the graph cannot
// support the requested count (shallow BFS structure, fewer vertices than
// regions); the result always passes Partition.Validate.
type Partitioner interface {
	// Name identifies the partitioner in plans and reports.
	Name() string
	// Partition splits g into up to the given number of regions.
	Partition(g *graph.Graph, regions int) (Partition, error)
}

// PartitionerByName resolves the built-in partitioners: "bfs" (BFS level
// bands, the default) and "cluster" (capacity-aware greedy islands of
// internal/cluster).
func PartitionerByName(name string) (Partitioner, error) {
	switch name {
	case "", BFSPartitioner{}.Name():
		return BFSPartitioner{}, nil
	case ClusterPartitioner{}.Name():
		return ClusterPartitioner{}, nil
	default:
		return nil, fmt.Errorf("decompose: unknown partitioner %q (known: bfs, cluster)", name)
	}
}

// BisectByBFS builds the balanced two-region partition with a one-ring
// overlap the Section 6.4 evaluation uses: vertices are levelled by BFS
// distance from the source and split at the median level; the boundary level
// belongs to both regions.
func BisectByBFS(g *graph.Graph) Partition {
	p, err := BFSPartitioner{}.Partition(g, 2)
	if err != nil {
		// The BFS partitioner cannot fail on a validated graph; collapse to
		// the whole-graph partition to keep the legacy signature total.
		return singleRegion(g.NumVertices())
	}
	return p
}

// singleRegion is the trivial one-region partition (monolithic solve).
func singleRegion(n int) Partition {
	in := make([]bool, n)
	for v := range in {
		in[v] = true
	}
	return Partition{In: [][]bool{in}}
}

// bfsLevels labels every vertex with its BFS distance from the source;
// unreachable vertices get level -1.  The second return is the largest level.
func bfsLevels(g *graph.Graph) ([]int, int) {
	n := g.NumVertices()
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[g.Source()] = 0
	queue := []int{g.Source()}
	maxLevel := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, ei := range g.OutEdges(v) {
			e := g.Edge(ei)
			if level[e.To] < 0 {
				level[e.To] = level[v] + 1
				if level[e.To] > maxLevel {
					maxLevel = level[e.To]
				}
				queue = append(queue, e.To)
			}
		}
	}
	return level, maxLevel
}

// BFSPartitioner splits the graph into up to N bands of consecutive BFS
// levels with a one-ring overlap: each band boundary level belongs to both
// adjacent bands.  Two regions reproduce the original bisection.
type BFSPartitioner struct{}

// Name implements Partitioner.
func (BFSPartitioner) Name() string { return "bfs" }

// Partition implements Partitioner.
func (BFSPartitioner) Partition(g *graph.Graph, regions int) (Partition, error) {
	n := g.NumVertices()
	if regions < 1 {
		return Partition{}, fmt.Errorf("decompose: need at least one region, got %d", regions)
	}
	level, maxLevel := bfsLevels(g)
	// Bands need k-1 distinct interior split levels; a shallow graph supports
	// fewer regions than asked for.
	k := regions
	if k > maxLevel {
		k = maxLevel
	}
	if k < 2 {
		return singleRegion(n), nil
	}
	// Interior split levels, strictly increasing by construction (k <=
	// maxLevel).  splits[i] is the boundary between band i and band i+1 and
	// belongs to both.
	splits := make([]int, k-1)
	for i := range splits {
		splits[i] = (i + 1) * maxLevel / k
	}
	p := Partition{In: make([][]bool, k)}
	for r := range p.In {
		p.In[r] = make([]bool, n)
	}
	bandLo := func(r int) int {
		if r == 0 {
			return 0
		}
		return splits[r-1]
	}
	bandHi := func(r int) int {
		if r == k-1 {
			return maxLevel
		}
		return splits[r]
	}
	for v := 0; v < n; v++ {
		l := level[v]
		if l < 0 {
			// Unreachable vertices cannot carry s-t flow; park them in the
			// first band so every vertex is covered.
			p.In[0][v] = true
			continue
		}
		for r := 0; r < k; r++ {
			if l >= bandLo(r) && l <= bandHi(r) {
				p.In[r][v] = true
			}
		}
	}
	// The terminals must belong to their natural ends even if BFS placed
	// them oddly (e.g. an unreachable sink).
	p.In[0][g.Source()] = true
	p.In[k-1][g.Sink()] = true
	// A boundary vertex's home is the lower of its two bands.
	p.Home = make([]int, n)
	for v := 0; v < n; v++ {
		for r := 0; r < k; r++ {
			if p.In[r][v] {
				p.Home[v] = r
				break
			}
		}
	}
	return p, nil
}
