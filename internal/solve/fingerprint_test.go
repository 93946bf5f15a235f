package solve

import (
	"reflect"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// TestFingerprintGolden pins the bytes Fingerprint hashes: the hex digests of
// fixed problems, recorded before the hash input was buffered into chunks.
// The grids span many 32 KiB chunks, one problem carries parked edges past
// its last chunk boundary and one a budget.  The spec-built problems pin the
// generator keys of FromSegmentationGrid and FromRMAT.  A change to the
// rendered configuration (core.Params, decompose.Options, Budget)
// legitimately moves every golden; a change to how the edge list is fed to
// the hash must not.
func TestFingerprintGolden(t *testing.T) {
	parked := graph.MustSegmentationGrid(64, 64, false, 7)
	for i := 0; i < 5; i++ {
		if _, err := parked.AddParkedEdge(2+i, 3+i); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		g    *graph.Graph
		opts []Option
		want string
	}{
		{"figure5", graph.PaperFigure5(), nil, "3dd91d4032902a1c5426329fd06269ed"},
		{"grid-128", graph.MustSegmentationGrid(128, 128, false, 3), nil, "23c90f3ee1fed309b1a118261ca6537c"},
		{"grid-64-eight", graph.MustSegmentationGrid(64, 64, true, 0), nil, "1d6fcb76864a76ed0f7150cb01f063dd"},
		{"rmat-dense-960", rmat.MustGenerate(rmat.DenseParams(960, 5)), nil, "35cf544a720501d10f7a78bdef456966"},
		{"parked", parked, nil, "a10a8f8160af57d44992f63001f7f67f"},
		{"budget", rmat.MustGenerate(rmat.SparseParams(128, 9)), []Option{WithBudget(Budget{MaxVertices: 40, MaxRegions: 2, Partitioner: "cluster"})}, "fe54bcf6e3ab3d428e5dedfba78c1a0b"},
	}
	for _, tc := range cases {
		p, err := NewProblem(tc.g, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
	// Spec-keyed problems: the same instances built by the spec
	// constructors hash the generator's input instead.
	budget := WithBudget(Budget{MaxVertices: 40, MaxRegions: 2, Partitioner: "cluster"})
	specCases := []struct {
		name  string
		build func() (*Problem, error)
		want  string
	}{
		{"spec-grid-128", func() (*Problem, error) { return FromSegmentationGrid(128, 128, false, 3) }, "eaefcbb973b41cfd3c377879799219b4"},
		{"spec-grid-64-eight", func() (*Problem, error) { return FromSegmentationGrid(64, 64, true, 0) }, "22f391387447b5c404c07d831d77741b"},
		{"spec-rmat-dense-960", func() (*Problem, error) { return FromRMAT(rmat.DenseParams(960, 5)) }, "333fc64e783a23e067b5c5eaea49d2c5"},
		{"spec-budget", func() (*Problem, error) { return FromRMAT(rmat.SparseParams(128, 9), budget) }, "361051a0c7783a445a6469a5e6f454df"},
	}
	for _, tc := range specCases {
		p, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSpecFingerprint pins what a spec key covers: every generator input and
// the configuration, and nothing that would let it alias a content key or a
// derived problem.
func TestSpecFingerprint(t *testing.T) {
	grid := func(w, h int, eight bool, seed int64, opts ...Option) *Problem {
		t.Helper()
		p, err := FromSegmentationGrid(w, h, eight, seed, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fromRMAT := func(rp rmat.Params) *Problem {
		t.Helper()
		p, err := FromRMAT(rp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	params := core.DefaultParams()
	params.Quantization.Levels++
	gridBase := grid(16, 12, false, 3)
	dense := rmat.DenseParams(256, 5)
	rmatBase := fromRMAT(dense)
	if grid(16, 12, false, 3).Fingerprint() != gridBase.Fingerprint() || fromRMAT(dense).Fingerprint() != rmatBase.Fingerprint() {
		t.Fatal("the same spec and configuration gave two fingerprints")
	}

	// Each variant changes one input; the quadrant probabilities must sum
	// to 1, so their variants move mass from or to D (A for D itself).
	shift := func(f func(*rmat.Params)) *Problem {
		rp := dense
		f(&rp)
		return fromRMAT(rp)
	}
	rmatVariants := map[string]*Problem{
		"Vertices":      shift(func(p *rmat.Params) { p.Vertices++ }),
		"Edges":         shift(func(p *rmat.Params) { p.Edges++ }),
		"A":             shift(func(p *rmat.Params) { p.A += 0.01; p.D -= 0.01 }),
		"B":             shift(func(p *rmat.Params) { p.B += 0.01; p.D -= 0.01 }),
		"C":             shift(func(p *rmat.Params) { p.C += 0.01; p.D -= 0.01 }),
		"D":             shift(func(p *rmat.Params) { p.D += 0.01; p.A -= 0.01 }),
		"MinCapacity":   shift(func(p *rmat.Params) { p.MinCapacity++ }),
		"MaxCapacity":   shift(func(p *rmat.Params) { p.MaxCapacity++ }),
		"Seed":          shift(func(p *rmat.Params) { p.Seed++ }),
		"AllowParallel": shift(func(p *rmat.Params) { p.AllowParallel = true }),
		"EnsurePath":    shift(func(p *rmat.Params) { p.EnsurePath = false }),
	}
	for i, typ := 0, reflect.TypeOf(rmat.Params{}); i < typ.NumField(); i++ {
		if _, ok := rmatVariants[typ.Field(i).Name]; !ok {
			t.Errorf("no variant changes rmat.Params.%s", typ.Field(i).Name)
		}
	}
	rmatVariants["sparse preset"] = fromRMAT(rmat.SparseParams(256, 5))
	gridVariants := map[string]*Problem{
		"width":  grid(17, 12, false, 3),
		"height": grid(16, 13, false, 3),
		"eight":  grid(16, 12, true, 3),
		"seed":   grid(16, 12, false, 4),
		"params": grid(16, 12, false, 3, WithParams(params)),
		"budget": grid(16, 12, false, 3, WithBudget(Budget{MaxVertices: 64})),
	}
	for base, variants := range map[*Problem]map[string]*Problem{gridBase: gridVariants, rmatBase: rmatVariants} {
		seen := map[string]string{base.Fingerprint(): "base"}
		for name, p := range variants {
			fp := p.Fingerprint()
			if other, ok := seen[fp]; ok {
				t.Errorf("changing %s gives the fingerprint of %s", name, other)
			}
			seen[fp] = name
		}
	}

	// A spec key never equals the content key of an equal graph.
	for name, tc := range map[string]struct {
		spec *Problem
		g    *graph.Graph
	}{
		"grid": {gridBase, graph.MustSegmentationGrid(16, 12, false, 3)},
		"rmat": {rmatBase, rmat.MustGenerate(dense)},
	} {
		content, err := NewProblem(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(content.Graph(), tc.spec.Graph()) {
			t.Errorf("%s: the spec constructor built a different graph", name)
		}
		if content.Fingerprint() == tc.spec.Fingerprint() {
			t.Errorf("%s: spec and content keys coincide", name)
		}
	}

	// A derived problem keeps its chained fingerprint and never the spec.
	upd := graph.CapacityUpdate{Edges: []int{0}, Capacities: []float64{5}}
	derived := []*Problem{}
	for i := 0; i < 2; i++ {
		d, err := gridBase.WithUpdate(upd)
		if err != nil {
			t.Fatal(err)
		}
		derived = append(derived, d)
	}
	s, err := gridBase.WithStructuralUpdate(graph.StructuralUpdate{RemoveEdges: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(derived, s) {
		if d.spec != "" || d.Fingerprint() == gridBase.Fingerprint() {
			t.Errorf("derived problem carries spec %q and fingerprint %s (base %s)", d.spec, d.Fingerprint(), gridBase.Fingerprint())
		}
	}
	if derived[0].Fingerprint() != derived[1].Fingerprint() || s.Fingerprint() == derived[0].Fingerprint() {
		t.Error("equal derivations must share a chained fingerprint, and different ones must not")
	}
}
