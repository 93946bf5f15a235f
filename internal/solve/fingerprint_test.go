package solve

import (
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// TestFingerprintGolden pins the bytes Fingerprint hashes: the hex digests of
// fixed problems, recorded before the hash input was buffered into chunks.
// The grids span many 32 KiB chunks, one problem carries parked edges past
// its last chunk boundary and one a budget.  A change to the rendered
// configuration (core.Params, decompose.Options, Budget) legitimately moves
// every golden; a change to how the edge list is fed to the hash must not.
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
}
