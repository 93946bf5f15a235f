package graph

import "fmt"

// CapacityUpdate is a validated batch of capacity-only edge mutations: edge
// Edges[k] receives the new capacity Capacities[k].  Capacity updates never
// change the topology of a graph — the edge list, the adjacency structure and
// the terminals all survive — which is exactly the property the incremental
// re-solve pipeline exploits: the MNA sparsity pattern of the analog circuit
// and the residual-network structure of the combinatorial solvers both key on
// topology, so a capacity-only mutation can be absorbed by value-level
// re-stamping instead of a rebuild.
type CapacityUpdate struct {
	// Edges are the indices of the mutated edges (no duplicates).
	Edges []int
	// Capacities[k] is the new capacity of edge Edges[k] (finite and
	// non-negative).
	Capacities []float64
}

// Validate checks the update against a target graph: the index and value
// slices must pair up, every index must name an existing edge exactly once,
// and every new capacity must be finite and non-negative.
func (u CapacityUpdate) Validate(g *Graph) error {
	if g == nil {
		return fmt.Errorf("graph: capacity update on a nil graph")
	}
	if len(u.Edges) != len(u.Capacities) {
		return fmt.Errorf("graph: capacity update pairs %d edges with %d capacities", len(u.Edges), len(u.Capacities))
	}
	if len(u.Edges) == 0 {
		return fmt.Errorf("graph: empty capacity update")
	}
	seen := make(map[int]bool, len(u.Edges))
	for k, e := range u.Edges {
		if e < 0 || e >= g.NumEdges() {
			return fmt.Errorf("graph: capacity update names edge %d, graph has %d edges", e, g.NumEdges())
		}
		if seen[e] {
			return fmt.Errorf("graph: capacity update names edge %d twice", e)
		}
		seen[e] = true
		if err := checkCapacity(u.Capacities[k]); err != nil {
			return fmt.Errorf("graph: capacity update sets edge %d to %g: %w", e, u.Capacities[k], err)
		}
	}
	return nil
}

// UpdateRecord describes an applied capacity update with enough detail for
// callers to invalidate (or keep) state derived from the previous capacities.
type UpdateRecord struct {
	// Previous[k] is the capacity edge Edges[k] carried before the update.
	Previous []float64
	// PositivityChanged reports whether any edge crossed zero in either
	// direction.  The s-t core of a graph depends on capacities only through
	// their positivity, so an update with PositivityChanged == false is
	// guaranteed to leave the pruned core structurally unchanged.
	PositivityChanged bool
	// Changed counts the edges whose capacity actually changed value.
	Changed int
}

// StructuralUpdate is a validated batch of topology mutations: edge removals
// and edge insertions.  Unlike CapacityUpdate it may change which edges exist,
// but it is engineered so a bounded number of mutations stay value-level:
//
//   - A removal parks the edge: capacity drops to 0 and the edge stays
//     resident (index, adjacency, circuit widgets, residual arcs all
//     survive).  The s-t-core prune keeps parked edges, so downstream solver
//     state remains index-compatible.
//
//   - An insertion first tries to reclaim a parked edge with the same
//     endpoints (a slot freed by an earlier removal, or pre-declared via
//     Graph.AddParkedEdge): the slot is unparked and re-capacitated — a pure
//     value-level change.  Only when no slot matches is a genuinely new edge
//     appended, which consumes one unit of the consumer's structural slack.
type StructuralUpdate struct {
	// AddEdges are the edges to insert; each needs in-range endpoints, no
	// self loop, and a finite positive capacity (inserting a dead edge is a
	// no-op the update rejects as a likely caller bug).
	AddEdges []Edge
	// RemoveEdges are the indices of edges to remove (park).  No duplicates;
	// already-parked edges cannot be removed again.
	RemoveEdges []int
}

// Validate checks the update against a target graph.
func (u StructuralUpdate) Validate(g *Graph) error {
	if g == nil {
		return fmt.Errorf("graph: structural update on a nil graph")
	}
	if len(u.AddEdges) == 0 && len(u.RemoveEdges) == 0 {
		return fmt.Errorf("graph: empty structural update")
	}
	seen := make(map[int]bool, len(u.RemoveEdges))
	for _, e := range u.RemoveEdges {
		if e < 0 || e >= g.NumEdges() {
			return fmt.Errorf("graph: structural update removes edge %d, graph has %d edges", e, g.NumEdges())
		}
		if seen[e] {
			return fmt.Errorf("graph: structural update removes edge %d twice", e)
		}
		if g.ParkedEdge(e) {
			return fmt.Errorf("graph: structural update removes edge %d, which is already parked", e)
		}
		seen[e] = true
	}
	n := g.NumVertices()
	for k, e := range u.AddEdges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("graph: structural update add %d: %w", k, ErrVertexRange)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: structural update add %d: %w", k, ErrSelfLoop)
		}
		if !finite(e.Capacity) {
			return fmt.Errorf("graph: structural update add %d: %w", k, ErrNonFiniteCapacity)
		}
		if e.Capacity <= 0 {
			return fmt.Errorf("graph: structural update add %d needs positive capacity, got %g", k, e.Capacity)
		}
	}
	return nil
}

// StructuralRecord describes an applied structural update.
type StructuralRecord struct {
	// Parked are the edge indices the removals parked.
	Parked []int
	// Reclaimed are the previously parked edge indices the insertions
	// reclaimed (value-level absorption).
	Reclaimed []int
	// Appended are the freshly appended edge indices (each consumes one unit
	// of the consumer's structural slack).
	Appended []int
	// AddIndex[k] is the edge index AddEdges[k] ended up at, whether
	// reclaimed or appended.
	AddIndex []int
}

// ApplyStructuralUpdate validates u and applies it to g in place: removals
// park their edges (capacity 0, parked flag set), insertions reclaim a parked
// edge with matching endpoints when one exists and append otherwise.  Within
// one update, removals apply first, so an insertion can reclaim a slot the
// same batch freed.  On a validation error the graph is untouched.
func (g *Graph) ApplyStructuralUpdate(u StructuralUpdate) (*StructuralRecord, error) {
	if err := u.Validate(g); err != nil {
		return nil, err
	}
	rec := &StructuralRecord{AddIndex: make([]int, len(u.AddEdges))}
	for _, e := range u.RemoveEdges {
		g.edges[e].Capacity = 0
		g.setParked(e, true)
		rec.Parked = append(rec.Parked, e)
	}
	for k, e := range u.AddEdges {
		idx := -1
		for p, parked := range g.parked {
			if pe := g.edges[p]; parked && pe.From == e.From && pe.To == e.To {
				idx = p
				break
			}
		}
		if idx >= 0 {
			g.edges[idx].Capacity = e.Capacity
			g.setParked(idx, false)
			rec.Reclaimed = append(rec.Reclaimed, idx)
		} else {
			var err error
			idx, err = g.AddEdge(e.From, e.To, e.Capacity)
			if err != nil {
				return nil, err
			}
			rec.Appended = append(rec.Appended, idx)
		}
		rec.AddIndex[k] = idx
	}
	return rec, nil
}

// ApplyCapacityUpdate validates u and applies it to g in place, returning a
// record of what changed.  On a validation error the graph is untouched.
func (g *Graph) ApplyCapacityUpdate(u CapacityUpdate) (*UpdateRecord, error) {
	if err := u.Validate(g); err != nil {
		return nil, err
	}
	rec := &UpdateRecord{Previous: make([]float64, len(u.Edges))}
	for k, e := range u.Edges {
		old := g.edges[e].Capacity
		rec.Previous[k] = old
		next := u.Capacities[k]
		if old == next {
			continue
		}
		rec.Changed++
		if (old > 0) != (next > 0) {
			rec.PositivityChanged = true
		}
		g.edges[e].Capacity = next
	}
	return rec, nil
}
