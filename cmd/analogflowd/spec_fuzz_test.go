package main

import (
	"encoding/json"
	"strings"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/solve"
)

// Fuzzed specs are built only under these sizes, so one input cannot make
// the fuzzer allocate what a real request may.
const (
	fuzzMaxVertices = 4096
	fuzzMaxEdges    = 1 << 16
)

// rmatPathEdges is how many edges past its declared count an R-MAT instance
// may carry: the s-t path the generator ensures has at most five arcs.
const rmatPathEdges = 5

// FuzzProblemSpec drives one problem spec through the request boundary the
// way the handlers do: strict JSON decoding, the declared-size check, and —
// under the fuzz caps — the build.  No input may panic, and a build that
// succeeds must match the size specSize declared for it, which is what the
// per-problem and per-batch caps are checked against.
func FuzzProblemSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		var spec problemSpec
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		vertices, edges, err := specSize(spec)
		if err != nil || vertices > fuzzMaxVertices || edges > fuzzMaxEdges {
			return
		}
		p, err := buildProblem(spec, nil)
		if err != nil {
			return
		}
		g := p.Graph()
		if spec.RMAT != nil {
			edges += rmatPathEdges
		}
		if g.NumVertices() != vertices || g.NumEdges() > edges {
			t.Fatalf("spec declared %d vertices and %d edges, built %d and %d",
				vertices, edges, g.NumVertices(), g.NumEdges())
		}
	})
}

// FuzzStepSpec drives one session step through both wire forms — the bare
// array of {"edge","capacity"} mutations and the object form with
// "updates", "add_edges" and "remove_edges" — into stepSpec.step(), then
// derives the stepped problem from a small base the way Service.Update does.
// No input may panic: every defect must come back as an error.
func FuzzStepSpec(f *testing.F) {
	base, err := solve.NewProblem(graph.PaperFigure5())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var sp stepSpec
		if err := json.Unmarshal([]byte(body), &sp); err != nil {
			return
		}
		st, err := sp.step()
		if err != nil {
			return
		}
		p := base
		if st.structural == nil || len(st.capacity.Edges) > 0 {
			if p, err = p.WithUpdate(st.capacity); err != nil {
				return
			}
		}
		if st.structural != nil {
			_, _ = p.WithStructuralUpdate(*st.structural)
		}
	})
}
