package graph_test

import (
	"bytes"
	"strings"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// BenchmarkReadDIMACS reads the dense R-MAT preset at 960 vertices (7,200
// arcs, ~86 KB of text), the largest DIMACS instance the rmat-oneshot
// workload sends.
func BenchmarkReadDIMACS(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteDIMACS(&buf, rmat.MustGenerate(rmat.DenseParams(960, 1))); err != nil {
		b.Fatal(err)
	}
	text := buf.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := graph.ReadDIMACS(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
