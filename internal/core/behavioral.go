package core

import (
	"context"
	"math"

	"analogflow/internal/graph"
	"analogflow/internal/maxflow"
	"analogflow/internal/variation"
)

// solveBehavioralPrepared runs the fast substrate model.
//
// The model rests on two observations the paper itself makes:
//
//  1. Under ideal components the steady state of the circuit is the optimum
//     of the max-flow LP on the *quantized* capacities (Section 2 proof +
//     Section 4.1 quantization), and
//  2. the circuit solution depends only on resistance ratios (Section 4.3.1),
//     so mismatch between nominally equal resistors perturbs the effective
//     capacities and conservation weights multiplicatively.
//
// The behavioural solver therefore: quantizes the capacities, perturbs them
// with the residual mismatch left after the enabled mitigations (matching,
// tuning) plus the finite op-amp gain error, solves the perturbed LP exactly,
// and finally adds per-edge readout noise.  Convergence time, programming
// time, power and energy come from the same analytical models the paper uses.
func (s *Solver) solveBehavioralPrepared(ctx context.Context, prep *Prepared) (*Result, error) {
	if prep.Empty() {
		empty := s.emptyResult(prep, ModeBehavioral)
		if err := s.finalizeEmpty(ctx, empty, prep); err != nil {
			return nil, err
		}
		return empty, nil
	}
	res := &Result{Mode: ModeBehavioral, Quantization: prep.qres}
	work := prep.work

	// Residual mismatch after the enabled mitigations, combined with the
	// negative-resistor gain error of Section 4.2.
	sigma := variation.EffectiveMismatch(s.params.Variation, s.params.MatchedLayout, s.params.PostFabTuning, s.params.Tuning)
	gainError := s.params.Builder.OpAmp.NegativeResistorPrecision(
		s.params.Builder.WidgetResistance, s.params.Builder.WidgetResistance/2)
	sigmaEff := math.Sqrt(sigma*sigma + gainError*gainError)

	// Perturb the (quantized) work-graph capacities: each clamp level is
	// realised through a resistive divider whose ratio error is sigmaEff.
	perturbed := make([]float64, work.NumEdges())
	for i := 0; i < work.NumEdges(); i++ {
		factor := 1.0
		if sigmaEff > 0 {
			factor = math.Exp(s.rng.NormFloat64() * sigmaEff)
		}
		perturbed[i] = work.Edge(i).Capacity * factor
	}
	pGraph, err := work.WithCapacities(perturbed)
	if err != nil {
		return nil, err
	}

	// The steady state of the (perturbed, quantized) substrate.
	flow, err := maxflow.SolveDinicContext(ctx, pGraph)
	if err != nil {
		return nil, err
	}

	// Per-edge readout: each edge-node voltage is sensed with relative noise
	// ReadoutNoiseSigma of the supply, then mapped back to flow units.  This
	// is the "reading out individual flow values" capability the paper lists
	// as future work (Section 6.1, item 3).
	voltsPerUnit := prep.qres.VoltsPerUnit()
	readFlow := graph.NewFlow(work)
	res.EdgeVoltages = make([]float64, work.NumEdges())
	saturated := 0
	for i := 0; i < work.NumEdges(); i++ {
		v := flow.Edge[i] * voltsPerUnit
		if s.params.ReadoutNoiseSigma > 0 {
			v += s.rng.NormFloat64() * s.params.ReadoutNoiseSigma * s.params.Quantization.Vdd
		}
		if v < 0 {
			v = 0
		}
		if clamp := prep.clampOf(i); v > clamp {
			v = clamp
		}
		res.EdgeVoltages[i] = v
		readFlow.Edge[i] = prep.qres.ToFlowUnits(v)
		if math.Abs(flow.Edge[i]-pGraph.Edge(i).Capacity) < 1e-9 && flow.Edge[i] > 0 {
			saturated++
		}
	}
	readFlow.RecomputeValue(work)

	// Flow-value readout: the paper measures the objective once, through the
	// current of the Vflow source (Equation 7a), so the value sees a single
	// measurement-noise term rather than one per edge.
	flow.RecomputeValue(work)
	value := flow.Value
	if s.params.ReadoutNoiseSigma > 0 {
		value *= 1 + s.rng.NormFloat64()*s.params.ReadoutNoiseSigma
	}
	if value < 0 {
		value = 0
	}
	res.FlowValue = value

	res.ConvergenceTime, res.Waves = s.convergenceTimeModel(work, saturated)
	if err := s.finalize(ctx, res, prep, readFlow); err != nil {
		return nil, err
	}
	return res, nil
}

// finalizeEmpty fills the reference value, from the instance's memo, for
// instances with nothing to map onto the substrate.
func (s *Solver) finalizeEmpty(ctx context.Context, res *Result, prep *Prepared) error {
	exact, err := prep.ExactValue(ctx)
	if err != nil {
		return err
	}
	res.ExactValue = exact
	res.RelativeError = graph.RelativeError(res.FlowValue, exact)
	return nil
}
