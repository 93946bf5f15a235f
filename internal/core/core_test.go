package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

func TestModeString(t *testing.T) {
	if ModeBehavioral.String() != "behavioral" || ModeCircuit.String() != "circuit" {
		t.Errorf("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Errorf("unknown mode should stringify")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Mode = Mode(9) },
		func(p *Params) { p.Crossbar.Rows = 1 },
		func(p *Params) { p.Quantization.Levels = 0 },
		func(p *Params) { p.Builder.WidgetResistance = 0 },
		func(p *Params) { p.VflowMultiplier = 0 },
		func(p *Params) { p.Variation.GlobalSigma = -1 },
		func(p *Params) { p.Tuning.MaxIterations = 0 },
		func(p *Params) { p.ReadoutNoiseSigma = -1 },
		func(p *Params) { p.SettleCyclesPerWave = 0 },
		func(p *Params) { p.Power.StaticOverhead = -1 },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := NewSolver(Params{}); err == nil {
		t.Errorf("zero params accepted")
	}
}

func TestParamsHelpers(t *testing.T) {
	p := DefaultParams()
	if p.GBW() != p.Builder.OpAmp.GBW {
		t.Errorf("GBW accessor wrong")
	}
	if p.WithGBW(50e9).Builder.OpAmp.GBW != 50e9 {
		t.Errorf("WithGBW did not apply")
	}
	if p.WithLevels(40).Quantization.Levels != 40 {
		t.Errorf("WithLevels did not apply")
	}
	// The originals are unchanged (value semantics).
	if p.Builder.OpAmp.GBW == 50e9 || p.Quantization.Levels == 40 {
		t.Errorf("With* helpers mutated the receiver")
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	s, err := NewSolver(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(nil); err == nil {
		t.Errorf("nil graph accepted")
	}
	p := DefaultParams()
	p.Crossbar.Rows, p.Crossbar.Cols = 4, 4
	small, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Solve(graph.PaperFigure5()); err == nil {
		t.Errorf("graph larger than the crossbar accepted")
	}
}

// TestPrepareZeroValueGraph carries maxflow's TestSolveZeroValueGraph over
// to the preprocessing front half: PrepareWithCore no longer runs
// Graph.Validate, so it must still refuse nil and the zero-value graph, the
// latter with Validate's own error, whether or not pruning is on.
func TestPrepareZeroValueGraph(t *testing.T) {
	zero := &graph.Graph{}
	want := zero.Validate()
	noPrune := DefaultParams()
	noPrune.PruneGraph = false
	for _, p := range []Params{DefaultParams(), noPrune} {
		if _, err := Prepare(nil, p); err == nil {
			t.Errorf("prune %v: Prepare accepted a nil graph", p.PruneGraph)
		}
		if _, err := Prepare(zero, p); err == nil || err.Error() != want.Error() {
			t.Errorf("prune %v: Prepare of the zero-value graph: %v, want %v", p.PruneGraph, err, want)
		}
		if _, err := PrepareWithCore(zero, nil, new(ExactMemo), p); err == nil || err.Error() != want.Error() {
			t.Errorf("prune %v: PrepareWithCore of the zero-value graph: %v, want %v", p.PruneGraph, err, want)
		}
	}
}

func TestBehavioralFigure5(t *testing.T) {
	s, err := NewSolver(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.PaperFigure5()
	res, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeBehavioral {
		t.Errorf("mode %v", res.Mode)
	}
	if res.ExactValue != graph.PaperFigure5MaxFlow {
		t.Errorf("exact value %g", res.ExactValue)
	}
	// The paper reports ~5 % deviation for this instance at N=20 levels;
	// allow up to 15 % (quantization pushes both unit edges down to 0.9).
	if res.RelativeError > 0.15 {
		t.Errorf("relative error %.3f too large", res.RelativeError)
	}
	if res.FlowValue <= 0 {
		t.Errorf("flow value %g", res.FlowValue)
	}
	// Convergence time lands in the paper's sub-10-microsecond band.
	if res.ConvergenceTime <= 0 || res.ConvergenceTime > 1e-4 {
		t.Errorf("convergence time %g outside expected band", res.ConvergenceTime)
	}
	// Power: (|V| + |E|) * 500 µW = 10 * 500 µW.
	if math.Abs(res.SubstratePower-10*500e-6) > 1e-9 {
		t.Errorf("substrate power %g", res.SubstratePower)
	}
	if res.Energy <= 0 || res.Energy > res.SubstratePower*1e-3 {
		t.Errorf("energy %g inconsistent", res.Energy)
	}
	if res.ProgrammingTime != 5*s.params.Crossbar.CycleTime {
		t.Errorf("programming time %g", res.ProgrammingTime)
	}
	// Flow is feasible on the original graph within quantization slack.
	rep := res.Flow.CheckFeasibility(g)
	if rep.MaxCapacityViolation > 0.01 || rep.MaxNegativeFlow > 0.01 {
		t.Errorf("behavioural flow violates capacities: %v", rep)
	}
	if len(res.EdgeVoltages) != g.NumEdges() {
		t.Errorf("edge voltages length %d", len(res.EdgeVoltages))
	}
	if res.Quantization == nil || res.Waves <= 0 {
		t.Errorf("missing metadata")
	}
}

func TestBehavioralGBWSpeedup(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(128, 5))
	slow, err := NewSolver(DefaultParams().WithGBW(10e9))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewSolver(DefaultParams().WithGBW(50e9))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := slow.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fast.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rs.ConvergenceTime / rf.ConvergenceTime
	// 5x GBW should give roughly 5x faster settling (the RC term makes it
	// slightly less).
	if ratio < 3 || ratio > 6 {
		t.Errorf("GBW speedup ratio %g, want ~5", ratio)
	}
}

func TestBehavioralQuantizationLevelsReduceError(t *testing.T) {
	g := rmat.MustGenerate(rmat.DefaultParams(96, 400, 11))
	coarseParams := DefaultParams().WithLevels(4)
	coarseParams.ReadoutNoiseSigma = 0
	fineParams := DefaultParams().WithLevels(64)
	fineParams.ReadoutNoiseSigma = 0
	coarse, _ := NewSolver(coarseParams)
	fine, _ := NewSolver(fineParams)
	rc, err := coarse.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fine.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if rf.RelativeError > rc.RelativeError+0.02 {
		t.Errorf("finer quantization should not be much worse: N=4 err %.3f vs N=64 err %.3f",
			rc.RelativeError, rf.RelativeError)
	}
}

func TestBehavioralErrorBandOnRMATSweep(t *testing.T) {
	// The headline claim reproduced from Figure 10: relative error stays in
	// the single-digit percent range on R-MAT instances.
	var worst, sum float64
	n := 0
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		g := rmat.MustGenerate(rmat.SparseParams(192, seed))
		s, err := NewSolver(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExactValue == 0 {
			continue
		}
		sum += res.RelativeError
		n++
		if res.RelativeError > worst {
			worst = res.RelativeError
		}
	}
	if n == 0 {
		t.Fatal("no instances evaluated")
	}
	mean := sum / float64(n)
	t.Logf("behavioural relative error: mean %.2f%%, worst %.2f%%", 100*mean, 100*worst)
	if mean > 0.10 {
		t.Errorf("mean relative error %.2f%% exceeds 10%%", 100*mean)
	}
	if worst > 0.20 {
		t.Errorf("worst relative error %.2f%% exceeds 20%%", 100*worst)
	}
}

func TestBehavioralNoPathInstance(t *testing.T) {
	g := graph.MustNew(4, 0, 3)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(2, 3, 5)
	s, _ := NewSolver(DefaultParams())
	res, err := s.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowValue != 0 || res.ExactValue != 0 {
		t.Errorf("no-path instance should give zero flow: %+v", res)
	}
}

func TestBehavioralDeterminism(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(96, 3))
	s1, _ := NewSolver(DefaultParams())
	s2, _ := NewSolver(DefaultParams())
	r1, err := s1.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FlowValue != r2.FlowValue || r1.ConvergenceTime != r2.ConvergenceTime {
		t.Errorf("same seed produced different results")
	}
	p3 := DefaultParams()
	p3.Seed = 99
	s3, _ := NewSolver(p3)
	r3, err := s3.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if r3.FlowValue == r1.FlowValue && r3.EdgeVoltages[0] == r1.EdgeVoltages[0] {
		t.Logf("different seeds produced identical readings (possible but unlikely)")
	}
}

func TestCircuitModeFigure5(t *testing.T) {
	p := DefaultParams()
	p.Mode = ModeCircuit
	p.Variation = DefaultCleanVariation()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.PaperFigure5()
	res, err := s.Solve(g)
	if err != nil {
		t.Fatalf("circuit mode failed on Figure 5: %v", err)
	}
	if res.Mode != ModeCircuit {
		t.Errorf("mode %v", res.Mode)
	}
	// Quantization plus circuit non-idealities: allow 15 %.
	if res.RelativeError > 0.15 {
		t.Errorf("circuit-mode relative error %.3f", res.RelativeError)
	}
	if res.CircuitDescription == "" {
		t.Errorf("missing circuit description")
	}
	rep := res.Flow.CheckFeasibility(g)
	if rep.MaxCapacityViolation > 0.05 {
		t.Errorf("circuit flow violates capacities: %v", rep)
	}
}

func TestCircuitModeMatchesBehavioralOnFigure15(t *testing.T) {
	g := graph.PaperFigure15()
	pc := DefaultParams()
	pc.Mode = ModeCircuit
	pc.Variation = DefaultCleanVariation()
	pb := DefaultParams()
	pb.ReadoutNoiseSigma = 0
	sc, _ := NewSolver(pc)
	sb, _ := NewSolver(pb)
	rc, err := sc.Solve(g)
	if err != nil {
		t.Fatalf("circuit mode: %v", err)
	}
	rb, err := sb.Solve(g)
	if err != nil {
		t.Fatalf("behavioural mode: %v", err)
	}
	if math.Abs(rc.FlowValue-rb.FlowValue) > 0.25*rb.ExactValue {
		t.Errorf("modes disagree: circuit %.3f vs behavioural %.3f (exact %g)",
			rc.FlowValue, rb.FlowValue, rb.ExactValue)
	}
}

func TestSimulateWaveformFigure5(t *testing.T) {
	p := DefaultParams()
	p.Variation = DefaultCleanVariation()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.PaperFigure5()
	wf, err := s.SimulateWaveform(g, 25e-9, 250)
	if err != nil {
		t.Fatalf("SimulateWaveform: %v", err)
	}
	if len(wf.Times) == 0 || len(wf.EdgeVoltages) != g.NumEdges() {
		t.Fatalf("waveform shape wrong")
	}
	// The flow value rises from zero toward its final value.
	first := wf.FlowValueSeries[0]
	last := wf.FinalFlowValue
	if first > 0.2 {
		t.Errorf("flow should start near zero, got %g", first)
	}
	if last < 1.0 || last > 2.5 {
		t.Errorf("final flow %g outside the plausible range around 2", last)
	}
	// Edge voltages never exceed the supply by more than a diode drop.
	for i := range wf.EdgeVoltages {
		for _, v := range wf.EdgeVoltages[i] {
			if v > s.params.Quantization.Vdd+0.1 || v < -0.1 {
				t.Fatalf("edge %d voltage %g outside [0, Vdd]", i, v)
			}
		}
	}
	if wf.CircuitDescription == "" {
		t.Errorf("missing circuit description")
	}
	// Bad arguments are rejected.
	if _, err := s.SimulateWaveform(g, 0, 100); err == nil {
		t.Errorf("zero duration accepted")
	}
	if _, err := s.SimulateWaveform(g, 1e-9, 2); err == nil {
		t.Errorf("too few steps accepted")
	}
}

// Property: the behavioural solver always produces a flow that is feasible
// for the original instance (within quantization slack) and never reports a
// flow value above the exact optimum by more than the readout noise allows.
func TestBehavioralInvariants(t *testing.T) {
	f := func(seed int64) bool {
		n := 16 + int(uint64(seed)%48)
		g, err := rmat.Generate(rmat.DefaultParams(n, 4*n, seed))
		if err != nil {
			return false
		}
		p := DefaultParams()
		p.Seed = seed
		s, err := NewSolver(p)
		if err != nil {
			return false
		}
		res, err := s.Solve(g)
		if err != nil {
			return false
		}
		if res.Flow == nil || len(res.Flow.Edge) != g.NumEdges() {
			return false
		}
		rep := res.Flow.CheckFeasibility(g)
		step := res.ExactValue*0.0 + g.MaxCapacity()/float64(p.Quantization.Levels)
		if rep.MaxCapacityViolation > step+3*p.ReadoutNoiseSigma*g.MaxCapacity() {
			return false
		}
		// The reading cannot exceed the true optimum by more than the
		// quantization step times the cut size plus readout noise; use a
		// generous bound.  (The floor quantizer under-approximates, so the
		// reading is normally below the optimum.)
		if res.FlowValue > res.ExactValue*1.3+1 {
			return false
		}
		// A positive reading implies the substrate actually settled.
		if res.FlowValue > 0 && res.ConvergenceTime <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestExactMemo pins the memo's contract: a cancelled computation leaves it
// empty, the first value recorded wins, and Prepare gives each bundle a
// private memo while PrepareWithCore shares the one it is handed.
func TestExactMemo(t *testing.T) {
	g := graph.PaperFigure5()
	var m ExactMemo
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Value(cancelled, g); err == nil || m.Done() {
		t.Fatalf("cancelled computation: err %v, done %v; want an error and an empty memo", err, m.Done())
	}
	if v, err := m.Value(context.Background(), g); err != nil || v != graph.PaperFigure5MaxFlow || !m.Done() {
		t.Fatalf("Value = %v, %v (done %v); want %v", v, err, m.Done(), graph.PaperFigure5MaxFlow)
	}
	m.Seed(-1)
	if v, _ := m.Value(context.Background(), g); v != graph.PaperFigure5MaxFlow {
		t.Fatalf("a later seed replaced the value: %v", v)
	}

	var shared ExactMemo
	shared.Seed(42) // a value Dinic would never give here: proves who reads it
	a, err := PrepareWithCore(g, nil, &shared, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	private, err := Prepare(g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := a.ExactValue(context.Background()); v != 42 {
		t.Errorf("bundle over the shared memo reads %v, want the seeded 42", v)
	}
	if v, _ := private.ExactValue(context.Background()); v != graph.PaperFigure5MaxFlow {
		t.Errorf("private bundle reads %v, want %v", v, graph.PaperFigure5MaxFlow)
	}
}
