package core

import (
	"context"
	"errors"
	"fmt"

	"analogflow/internal/builder"
	"analogflow/internal/circuit"
	"analogflow/internal/graph"
	"analogflow/internal/mna"
	"analogflow/internal/variation"
)

// solveCircuitPrepared runs the full MNA circuit emulation: build the
// Section 2 circuit for the quantized instance, find its DC steady state
// (direct Newton first, source-stepping homotopy as a fallback), read the
// edge-node voltages back and de-quantize them into flows.
func (s *Solver) solveCircuitPrepared(ctx context.Context, prep *Prepared) (*Result, error) {
	if prep.Empty() {
		empty := s.emptyResult(prep, ModeCircuit)
		if err := s.finalizeEmpty(ctx, empty, prep); err != nil {
			return nil, err
		}
		return empty, nil
	}
	c, eng, err := s.buildCircuit(prep.work, prep.clamps)
	if err != nil {
		return nil, err
	}
	return s.solveCircuitWith(ctx, prep, c, eng)
}

// PoorConvergenceRetryThreshold is the relative error above which a converged
// circuit operating point is considered "poor" and re-attempted once with the
// finer homotopy schedule below.  The substrate's intrinsic quantization and
// gain error sit around 10-15% on the worked examples; an operating point off
// by more than this threshold is a spurious equilibrium of the perturbed
// constraint network (docs/solver.md, "circuit-mode fragility"), which a
// slower quasi-static ramp sometimes avoids.
const PoorConvergenceRetryThreshold = 0.25

// poorRetryHomotopySteps is the finer source-stepping schedule of the retry
// (the standard fallback uses 8 levels).
const poorRetryHomotopySteps = 64

// solveCircuitWith runs the circuit emulation on an already-built circuit and
// engine.  It is the reusable back half behind both one-shot solves and
// Session, whose cached engine makes repeated solves hit the numeric-only
// refactorization path of internal/mna.  The context is threaded into the
// Newton iteration through the engine interrupt hook.
func (s *Solver) solveCircuitWith(ctx context.Context, prep *Prepared, c *builder.Circuit, eng *mna.Engine) (*Result, error) {
	res, _, err := s.solveCircuitWithGuess(ctx, prep, c, eng, nil)
	return res, err
}

// solveCircuitWithGuess is solveCircuitWith with an optional Newton warm
// start (the previous operating point of an updatable session) and the solved
// raw operating point returned alongside, so the caller can keep it as the
// next warm start.
func (s *Solver) solveCircuitWithGuess(ctx context.Context, prep *Prepared, c *builder.Circuit, eng *mna.Engine, guess []float64) (*Result, *mna.Solution, error) {
	work := prep.work
	eng.SetInterrupt(ctx.Err)
	defer eng.SetInterrupt(nil)

	sol, waves, err := s.solveOperatingPointWarm(eng, guess)
	if err != nil {
		if isContextError(err) {
			// A cancelled or expired context is the caller's decision, not a
			// convergence failure; surface it undisguised.
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("core: circuit solve failed (the ideal-negative-resistance substrate is "+
			"numerically fragile on general graphs; see docs/solver.md): %w", err)
	}

	// readout converts a solved operating point into a finalized result.
	readout := func(sol *mna.Solution, waves int) (*Result, error) {
		res := &Result{Mode: ModeCircuit, Quantization: prep.qres}
		res.CircuitDescription = c.Describe()
		res.EdgeVoltages = c.EdgeVoltages(sol.Voltage)
		readFlow := graph.NewFlow(work)
		saturated := 0
		for i, v := range res.EdgeVoltages {
			if v < 0 {
				v = 0
			}
			if clamp := prep.clampOf(i); v > clamp {
				v = clamp
			}
			readFlow.Edge[i] = prep.qres.ToFlowUnits(v)
			if v >= prep.clampOf(i)*0.999 {
				saturated++
			}
		}
		res.FlowValue = prep.qres.ToFlowUnits(c.FlowValueVolts(sol.Voltage))
		readFlow.RecomputeValue(work)
		res.ConvergenceTime, _ = s.convergenceTimeModel(work, saturated)
		res.Waves = waves
		if err := s.finalize(ctx, res, prep, readFlow); err != nil {
			return nil, err
		}
		return res, nil
	}

	res, err := readout(sol, waves)
	if err != nil {
		return nil, nil, err
	}
	if res.RelativeError > PoorConvergenceRetryThreshold {
		// The point converged but reads far off the optimum: a spurious
		// equilibrium of the fragile constraint network.  Retry once with a
		// finer quasi-static ramp; keep whichever operating point reads
		// closer to the optimum, so a failed rescue still reports the
		// original honest result.
		res.HomotopyRetries = 1
		if hres, rerr := eng.OperatingPointHomotopy(0, poorRetryHomotopySteps); rerr == nil {
			res2, rerr2 := readout(hres.Solution, hres.TotalNewtonIterations)
			if rerr2 != nil {
				if isContextError(rerr2) {
					return nil, nil, rerr2
				}
			} else if res2.RelativeError < res.RelativeError {
				res2.HomotopyRetries = 1
				res, sol = res2, hres.Solution
			}
		} else if isContextError(rerr) {
			return nil, nil, rerr
		}
	}
	return res, sol, nil
}

// buildCircuit constructs the quantized-domain circuit for a (pruned) graph.
func (s *Solver) buildCircuit(pruned *graph.Graph, clampVoltages []float64) (*builder.Circuit, *mna.Engine, error) {
	return s.buildCircuitOpts(pruned, clampVoltages, false)
}

// buildCircuitOpts is buildCircuit with the clamp-source layout exposed:
// updatable sessions build with one private clamp source per edge so that a
// later capacity update is a pure element-value re-stamp (see
// builder.Options.PrivateClampSources).
func (s *Solver) buildCircuitOpts(pruned *graph.Graph, clampVoltages []float64, privateClamps bool) (*builder.Circuit, *mna.Engine, error) {
	opts := s.params.Builder
	opts.PrivateClampSources = privateClamps
	// Parked edges (structurally resident slots of removed or pre-declared
	// edges) carry a 0 V clamp: physically present, pinned to zero flow.
	opts.AllowZeroClamp = privateClamps || pruned.NumParked() > 0
	opts.VflowVoltage = s.vflowVoltage(pruned)
	if s.params.Variation.MismatchSigma > 0 || s.params.Variation.GlobalSigma > 0 || s.params.Variation.ParasiticResistance > 0 {
		profile := s.params.Variation
		if s.params.MatchedLayout || s.params.PostFabTuning {
			profile.MismatchSigma = variation.EffectiveMismatch(profile, s.params.MatchedLayout, s.params.PostFabTuning, s.params.Tuning)
		}
		profile.Seed = s.params.Seed
		sampler, err := variation.NewSampler(profile)
		if err != nil {
			return nil, nil, err
		}
		opts.PerturbResistance = sampler.PerturbFunc()
	}
	c, err := builder.BuildMaxFlow(pruned, clampVoltages, opts)
	if err != nil {
		return nil, nil, err
	}
	eng, err := mna.NewEngine(c.Netlist, mna.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	return c, eng, nil
}

// solveOperatingPointWarm is solveOperatingPoint with an optional warm start:
// when a previous operating point is supplied (an updatable session after a
// capacity-only re-stamp), the Newton iteration starts there — the analog
// analogue of the substrate keeping its node voltages while the clamp levels
// are re-programmed.  A failed warm start falls back to the cold sequence.
func (s *Solver) solveOperatingPointWarm(eng *mna.Engine, guess []float64) (*mna.Solution, int, error) {
	if guess != nil {
		sol, err := eng.OperatingPointWithGuess(0, guess)
		if err == nil {
			return sol, sol.NewtonIterations, nil
		}
		if isContextError(err) {
			return nil, 0, err
		}
	}
	return s.solveOperatingPoint(eng)
}

// solveOperatingPoint finds the DC steady state, falling back to source
// stepping when the direct Newton solve does not converge.  It returns the
// solution and the total Newton iteration count (a proxy for the number of
// constraint-activation waves).
func (s *Solver) solveOperatingPoint(eng *mna.Engine) (*mna.Solution, int, error) {
	sol, err := eng.OperatingPoint(0)
	if err == nil {
		return sol, sol.NewtonIterations, nil
	}
	if isContextError(err) {
		// The direct solve was aborted by cancellation, not by the
		// numerics; starting the homotopy fallback would just burn time
		// until its own first interrupt poll.
		return nil, 0, err
	}
	hres, err := eng.OperatingPointHomotopy(0, 8)
	if err != nil {
		return nil, 0, err
	}
	return hres.Solution, hres.TotalNewtonIterations, nil
}

// isContextError reports whether err stems from context cancellation or an
// expired deadline (possibly wrapped by the engine layers).
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// WaveformResult is the outcome of a transient emulation of the compute
// phase (Section 3.2): Vflow steps up at t=0 and the node voltages settle
// toward the max-flow solution, reproducing Figure 5c.
type WaveformResult struct {
	// Times are the recorded simulation times.
	Times []float64
	// EdgeVoltages[i] is the waveform of edge node x_i (volts, quantized
	// domain), indexed [edge][time].
	EdgeVoltages [][]float64
	// FlowValueSeries is the de-quantized net source outflow over time.
	FlowValueSeries []float64
	// ConvergenceTime is the measured time at which the flow value settles
	// within 0.1% of its final value (the paper's definition), or -1.
	ConvergenceTime float64
	// FinalFlowValue is the settled flow value in capacity units.
	FinalFlowValue float64
	// CircuitDescription summarises the simulated netlist.
	CircuitDescription string
}

// SimulateWaveform runs a full transient of the substrate's compute phase on
// g and records the edge-node waveforms.  Intended for small instances (the
// paper's Figure 5); the cost grows with both circuit size and the number of
// time steps.
func (s *Solver) SimulateWaveform(g *graph.Graph, duration float64, steps int) (*WaveformResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if duration <= 0 || steps < 10 {
		return nil, fmt.Errorf("core: waveform needs a positive duration and at least 10 steps")
	}
	prep, err := s.prepare(g)
	if err != nil {
		return nil, err
	}
	if prep.Empty() {
		return nil, fmt.Errorf("core: instance has no s-t structure to simulate")
	}
	work := prep.work
	opts := s.params.Builder
	// The waveform study uses the terminal-level negative-resistance model
	// with the parasitic capacitance attached to the edge nodes only: the
	// internal widget nodes are driven by op-amp outputs in the real
	// substrate, so their settling is not limited by the wire parasitics.
	// (The full op-amp expansion is available through builder.NegResOpAmp
	// for DC studies; its conditional NIC stability makes long transients
	// fragile, which docs/solver.md discusses.)
	opts.NegResMode = builder.NegResIdeal
	opts.ParasiticOnEdgeNodesOnly = true
	opts.VflowVoltage = s.vflowVoltage(work)
	opts.VflowWaveform = circuit.Step{Initial: 0, Final: opts.VflowVoltage, T0: 0, RiseTime: duration / 100}
	c, err := builder.BuildMaxFlow(work, prep.clamps, opts)
	if err != nil {
		return nil, err
	}
	eng, err := mna.NewEngine(c.Netlist, mna.DefaultOptions())
	if err != nil {
		return nil, err
	}
	spec := mna.TransientSpec{
		Stop:                 duration,
		Step:                 duration / float64(steps),
		Monitor:              func(sol *mna.Solution) float64 { return c.FlowValueVolts(sol.Voltage) },
		ConvergenceTolerance: 1e-3,
	}
	tr, err := eng.Transient(spec)
	if err != nil {
		return nil, err
	}
	out := &WaveformResult{
		Times:              tr.Times,
		ConvergenceTime:    tr.ConvergenceTime,
		FinalFlowValue:     prep.qres.ToFlowUnits(tr.FinalMonitorValue),
		CircuitDescription: c.Describe(),
	}
	out.EdgeVoltages = make([][]float64, work.NumEdges())
	for i := 0; i < work.NumEdges(); i++ {
		out.EdgeVoltages[i] = tr.VoltageSeries(c.EdgeNode[i])
	}
	out.FlowValueSeries = make([]float64, len(tr.MonitorValues))
	for i, v := range tr.MonitorValues {
		out.FlowValueSeries[i] = prep.qres.ToFlowUnits(v)
	}
	return out, nil
}
