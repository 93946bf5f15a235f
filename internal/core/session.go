package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"analogflow/internal/builder"
	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/mna"
)

// Errors of the incremental-update path.
var (
	// ErrSessionNotUpdatable is returned by Rebind on a session created with
	// NewSession/NewSessionPrepared (their circuit builds share clamp
	// sources between same-level edges, which an update cannot re-stamp).
	ErrSessionNotUpdatable = errors.New("core: session was not created updatable")
	// ErrIncompatibleUpdate is returned by Rebind when the new instance is
	// not a capacity-only mutation of the session's current one (the work
	// graph or a prune mapping changed), so the warm state cannot absorb it.
	ErrIncompatibleUpdate = errors.New("core: update changes the instance structure; warm state cannot absorb it")
)

// Session binds one parameter set to one problem instance and caches every
// reusable artifact across repeated solves: the preprocessing front half
// (prune + quantization) and, in circuit mode, the constructed circuit and
// its MNA engine.  Because an Engine keeps its frozen sparsity pattern and
// cached symbolic LU for its lifetime, every solve after the first runs on
// the numeric-only refactorization path of internal/mna — this is the warm
// path the batch service of internal/solve keeps per cached fingerprint.
//
// Unlike Solver.Solve, whose RNG state advances across calls, a Session
// draws a fresh RNG (seeded from Params.Seed) for every solve, so repeated
// Session solves of the same instance are bit-identical and independent of
// how many solves ran before — the determinism contract concurrent batch
// evaluation needs.
//
// A Session serialises its solves internally and is safe for concurrent use.
type Session struct {
	params Params

	mu     sync.Mutex
	prep   *Prepared
	circ   *builder.Circuit
	eng    *mna.Engine
	solves int

	// Incremental-update state (updatable sessions only, see Rebind).
	updatable bool
	// lastX is the previous circuit operating point, the Newton warm start
	// after a capacity re-stamp.
	lastX []float64
	// refNet is the warm exact-reference residual network on the s-t core;
	// it absorbs capacity updates incrementally so the reference Dinic solve
	// of every re-solve is an incremental re-augmentation, not a cold run.
	refNet *maxflow.Network
}

// NewSession validates the parameters, runs the preprocessing front half on
// g and returns a session bound to the pair.
func NewSession(p Params, g *graph.Graph) (*Session, error) {
	prep, err := Prepare(g, p)
	if err != nil {
		return nil, err
	}
	return NewSessionPrepared(p, prep)
}

// NewSessionPrepared builds a session around an externally prepared
// instance (from Prepare / PrepareWithCore).  The caller must have prepared
// with the same PruneGraph and Quantization settings as p; the session trusts
// the artifact.
func NewSessionPrepared(p Params, prep *Prepared) (*Session, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if prep == nil || prep.original == nil {
		return nil, fmt.Errorf("core: nil prepared instance")
	}
	if n := prep.original.NumVertices(); n > p.Crossbar.Rows || n > p.Crossbar.Cols {
		return nil, fmt.Errorf("core: graph with %d vertices exceeds the %dx%d crossbar",
			n, p.Crossbar.Rows, p.Crossbar.Cols)
	}
	return &Session{params: p, prep: prep}, nil
}

// NewUpdatableSessionPrepared is NewSessionPrepared for a session that will
// absorb capacity-only updates through Rebind.  Updatable sessions differ
// from plain ones in two value-level ways: the circuit is built with one
// private clamp source per edge (so clamp levels are re-stampable element
// values), and the exact-reference solve runs on a warm residual network that
// updates re-augment instead of re-solving.  Flow values and errors agree
// with plain sessions to solver tolerance; they are not bit-identical,
// because the private-clamp circuit has a few more MNA unknowns and the warm
// Newton iteration starts from the previous operating point.
func NewUpdatableSessionPrepared(p Params, prep *Prepared) (*Session, error) {
	sess, err := NewSessionPrepared(p, prep)
	if err != nil {
		return nil, err
	}
	sess.updatable = true
	return sess, nil
}

// Updatable reports whether the session accepts Rebind.
func (sess *Session) Updatable() bool { return sess.updatable }

// Rebind absorbs a capacity-only update: prep must be a Prepared of the same
// instance structure (Prepared.StructurallyCompatible) with possibly
// different capacities, quantization values and clamp levels.  The warm
// artifacts survive: the cached circuit gets its clamp sources re-stamped in
// place (pattern-frozen, so the engine's cached symbolic LU stays valid), the
// previous operating point becomes the next Newton warm start, and the
// reference residual network drains/extends to the new capacities.  A
// structural change returns ErrIncompatibleUpdate and leaves the session
// untouched; the caller then builds a fresh session.
func (sess *Session) Rebind(prep *Prepared) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.checkRebindLocked(prep); err != nil {
		return err
	}
	if !sess.prep.StructurallyCompatible(prep) {
		return ErrIncompatibleUpdate
	}
	return sess.rebindValueLocked(prep)
}

// RebindStructural is Rebind for updates that may also change the instance
// structure through park/unpark and bounded edge insertion.
//
// Two shapes are absorbable warm:
//
//   - Same-shape updates (StructurallyCompatible), which is what park/unpark
//     produces: a removed edge stays structurally resident with a 0 V clamp
//     and capacity 0, an unpark restores positive values in place.  These take
//     the exact Rebind path — clamp re-stamp, warm Newton start, reference
//     network drain — so the cached circuit and its frozen sparsity pattern
//     survive, including for circuit-mode sessions.
//   - Structural extensions (StructurallyExtends), produced by insertions that
//     append edges.  The warm reference network splices fresh arcs in
//     (maxflow.Network.StructureTo) and re-augments; the Newton operating
//     point is dropped because the circuit would need new widgets.  Circuit
//     sessions that already built their engine cannot absorb an appended
//     widget and return ErrIncompatibleUpdate — the solve layer then rebuilds
//     the circuit cold while keeping everything else warm.
//
// Anything else returns ErrIncompatibleUpdate and leaves the session
// untouched.
func (sess *Session) RebindStructural(prep *Prepared) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.checkRebindLocked(prep); err != nil {
		return err
	}
	if sess.prep.StructurallyCompatible(prep) {
		return sess.rebindValueLocked(prep)
	}
	if !sess.prep.StructurallyExtends(prep) {
		return ErrIncompatibleUpdate
	}
	if sess.eng != nil {
		// The cached circuit has no widgets for the appended edges; a
		// re-stamp cannot create them.
		return ErrIncompatibleUpdate
	}
	if sess.refNet != nil {
		// Splice the appended edges into the warm reference network and apply
		// the capacity deltas; the next solve re-augments incrementally.  A
		// failure only costs the warm reference — drop it and rebuild cold.
		if err := sess.refNet.StructureTo(prep.core); err != nil {
			sess.refNet = nil
		}
	}
	// The operating point indexes the old circuit's unknown vector; after a
	// structural extension it no longer lines up.
	sess.lastX = nil
	sess.prep = prep
	return nil
}

// parkStateChanged reports whether any work edge switched between parked
// (clamp 0) and active between two same-shape prepared instances.
func parkStateChanged(a, b *Prepared) bool {
	if len(a.clamps) != len(b.clamps) {
		return true
	}
	for i := range a.clamps {
		if (a.clamps[i] == 0) != (b.clamps[i] == 0) {
			return true
		}
	}
	return false
}

// checkRebindLocked validates the common Rebind preconditions.
func (sess *Session) checkRebindLocked(prep *Prepared) error {
	if !sess.updatable {
		return ErrSessionNotUpdatable
	}
	if prep == nil || prep.original == nil {
		return fmt.Errorf("core: nil prepared instance")
	}
	return nil
}

// rebindValueLocked absorbs a same-shape (capacity/clamp-level only) update
// into the warm artifacts.
func (sess *Session) rebindValueLocked(prep *Prepared) error {
	if sess.circ != nil && !prep.Empty() {
		if err := sess.circ.SetClampVoltages(prep.clamps); err != nil {
			return err
		}
	}
	if parkStateChanged(sess.prep, prep) {
		// A park or unpark moves the equilibrium discontinuously (a clamp
		// band collapses to [0,0] or reopens); the previous operating point
		// is then a misleading Newton start that costs far more iterations
		// than the homotopy's cold ramp.  The engine and its cached symbolic
		// LU stay — only the guess resets.
		sess.lastX = nil
	}
	if sess.refNet != nil {
		// Drain/extend the warm reference network; the next solve
		// re-augments it.  A failure here only costs the warm reference —
		// drop it and let the next solve rebuild cold.
		if err := sess.refNet.UpdateTo(prep.core); err != nil {
			sess.refNet = nil
		}
	}
	sess.prep = prep
	return nil
}

// ensureReferenceLocked keeps the warm exact reference of an updatable
// session: the first call builds the residual network of the s-t core and
// solves it; after a Rebind the same network only re-augments.  Either way
// the resulting exact value seeds the instance's memo, so finalize never
// runs a cold reference solve.  Callers hold sess.mu.
func (sess *Session) ensureReferenceLocked(ctx context.Context) error {
	prep := sess.prep
	if prep.core == nil || prep.core.NumEdges() == 0 {
		return nil
	}
	if sess.refNet == nil {
		if prep.exact.Done() {
			// Someone already paid for the reference (a cold Dinic through
			// the memo); building a warm network now would duplicate it.
			// The next Rebind starts the warm network from the new core.
			return nil
		}
		net, err := maxflow.NewNetwork(prep.core)
		if err != nil {
			return err
		}
		sess.refNet = net
	}
	f, err := sess.refNet.Solve(ctx, maxflow.Dinic)
	if err != nil {
		// Per the Network.Solve contract a failed solve poisons the warm
		// state; drop it so the next attempt rebuilds from the core.
		sess.refNet = nil
		return err
	}
	prep.exact.Seed(f.Value)
	return nil
}

// Params returns the session's parameters.
func (sess *Session) Params() Params { return sess.params }

// Prepared returns the cached preprocessing artifacts.
func (sess *Session) Prepared() *Prepared { return sess.prep }

// circuitBytesPerEdge estimates the heap a circuit-mode session's circuit
// and MNA engine hold per work edge once built, most of it the sparse LU
// factors: 4.8–7.9 KiB per work edge was measured on paths, segmentation
// grids and sparse R-MAT instances of 7 to 460 work edges.
const circuitBytesPerEdge = 6 << 10

// HeapBytes estimates the heap a solved session holds: its prepared bundle
// and, in circuit mode, the circuit and engine of its work graph.  An
// updatable session's warm reference network and operating point are not
// counted.
func (sess *Session) HeapBytes() int64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	b := sess.prep.HeapBytes()
	if sess.params.Mode == ModeCircuit && !sess.prep.Empty() {
		b += circuitBytesPerEdge * int64(sess.prep.work.NumEdges())
	}
	return b
}

// Solves returns how many solves the session has completed.
func (sess *Session) Solves() int {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.solves
}

// EngineStats returns the cumulative linear-algebra counters of the cached
// circuit engine.  The second return is false until the first circuit-mode
// solve has built the engine (and always for behavioral sessions).
func (sess *Session) EngineStats() (mna.Stats, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.eng == nil {
		return mna.Stats{}, false
	}
	return sess.eng.Stats(), true
}

// Solve runs one solve on the session's cached artifacts.  Concurrent calls
// are serialised (the cached engine is single-threaded by design); each call
// re-seeds the stochastic models so the result does not depend on the
// session's history.
func (sess *Session) Solve(ctx context.Context) (*Result, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A fresh Solver per solve resets the RNG; construction is a couple of
	// allocations, far below the cost of any solve.
	solver, err := NewSolver(sess.params)
	if err != nil {
		return nil, err
	}
	if sess.updatable {
		// Keep the warm exact-reference memo ahead of the mode dispatch, so
		// finalize reads the incrementally maintained value.
		if err := sess.ensureReferenceLocked(ctx); err != nil {
			return nil, err
		}
	}
	var res *Result
	switch sess.params.Mode {
	case ModeCircuit:
		res, err = sess.solveCircuitLocked(ctx, solver)
	default:
		res, err = solver.solveBehavioralPrepared(ctx, sess.prep)
	}
	if err != nil {
		return nil, err
	}
	sess.solves++
	return res, nil
}

// solveCircuitLocked is the circuit-mode path with the engine cache.
func (sess *Session) solveCircuitLocked(ctx context.Context, solver *Solver) (*Result, error) {
	prep := sess.prep
	if prep.Empty() {
		empty := solver.emptyResult(prep, ModeCircuit)
		if err := solver.finalizeEmpty(ctx, empty, prep); err != nil {
			return nil, err
		}
		return empty, nil
	}
	if sess.eng == nil {
		// A parked edge's widget stamps at all its coordinates (a 0 V clamp
		// changes element values, not element presence), so unparking stays
		// on the engine's numeric-only refactorization path.
		c, eng, err := solver.buildCircuitOpts(prep.work, prep.clamps, sess.updatable)
		if err != nil {
			return nil, err
		}
		sess.circ, sess.eng = c, eng
	}
	if !sess.updatable {
		return solver.solveCircuitWith(ctx, prep, sess.circ, sess.eng)
	}
	res, sol, err := solver.solveCircuitWithGuess(ctx, prep, sess.circ, sess.eng, sess.lastX)
	if err != nil {
		return nil, err
	}
	sess.lastX = append(sess.lastX[:0], sol.X...)
	return res, nil
}
