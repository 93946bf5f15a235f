package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
	"analogflow/internal/solve"
)

// Fuzzed specs are built only under these sizes, so one input cannot make
// the fuzzer allocate what a real request may.
const (
	fuzzMaxVertices = 4096
	fuzzMaxEdges    = 1 << 16
)

// FuzzProblemSpec drives one problem spec through the request boundary the
// way the handlers do: strict JSON decoding, the declared-size check, and —
// under the fuzz caps — the build.  No input may panic, and a build that
// succeeds must match the size specSize declared for it, which is what the
// per-problem and per-batch caps are checked against.  The built graph and
// its s-t core must pass Graph.Validate: the solve path no longer re-checks
// them, so validity must hold by construction.
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
		if g.NumVertices() != vertices || g.NumEdges() > edges {
			t.Fatalf("spec declared %d vertices and %d edges, built %d and %d",
				vertices, edges, g.NumVertices(), g.NumEdges())
		}
		checkValid(t, p)
	})
}

// checkValid asserts that a problem's graph and its s-t core pass
// Graph.Validate.
func checkValid(t *testing.T, p *solve.Problem) {
	t.Helper()
	if err := p.Graph().Validate(); err != nil {
		t.Fatalf("built graph is invalid: %v", err)
	}
	core, _ := p.STCore()
	if err := core.Validate(); err != nil {
		t.Fatalf("s-t core is invalid: %v", err)
	}
}

// TestRMATPresetEdgeBound pins the R-MAT edge bound specSize relies on in
// place of a per-problem edge cap: at every power-of-two vertex count up to
// the vertex cap, both presets declare at most maxVertices +
// rmat.MaxPathEdges edges.  A preset that grows fails here.
func TestRMATPresetEdgeBound(t *testing.T) {
	for v := 2; v <= maxVertices; v *= 2 {
		for _, sparse := range []bool{false, true} {
			_, edges, err := specSize(problemSpec{RMAT: &rmatSpec{Vertices: v, Sparse: sparse}})
			if err != nil {
				t.Fatal(err)
			}
			if edges > maxVertices+rmat.MaxPathEdges {
				t.Errorf("%d vertices, sparse %v: declares %d edges, above %d", v, sparse, edges, maxVertices+rmat.MaxPathEdges)
			}
		}
	}
}

// TestSpecSizeCountsRMATPathEdges pins the R-MAT declaration to an upper
// bound: specSize declares the preset's edges plus the rmat.MaxPathEdges the
// generator may add for an s-t path.  A batch whose declared edges reach the
// aggregate budget exactly without those path edges is therefore refused
// before anything is built.
func TestSpecSizeCountsRMATPathEdges(t *testing.T) {
	r := &rmatSpec{Vertices: 2, Sparse: true, Seed: 1}
	if _, edges, err := specSize(problemSpec{RMAT: r}); err != nil || edges != r.params().Edges+rmat.MaxPathEdges {
		t.Fatalf("specSize declares %d edges (%v), want the preset's %d plus %d",
			edges, err, r.params().Edges, rmat.MaxPathEdges)
	}
	// A bare problem line declares the rest of the budget.
	dimacs := fmt.Sprintf("p max 2 %d\n", maxBatchEdges-r.params().Edges)
	srv := newServer(solve.NewService(solve.Config{Workers: 1}), serverConfig{})
	_, err := srv.buildProblems([]problemSpec{{DIMACS: dimacs}, {RMAT: r}, {RMAT: r}}, nil)
	if err == nil || !strings.Contains(err.Error(), "aggregate size budget") || !strings.Contains(err.Error(), "at problem 2") {
		t.Fatalf("batch at the edge budget: %v, want the aggregate budget refusal at problem 2", err)
	}
}

// FuzzStepSpec drives one session step through both wire forms — the bare
// array of {"edge","capacity"} mutations and the object form with
// "updates", "add_edges" and "remove_edges" — into stepSpec.step(), then
// derives the stepped problem from a small base the way Service.Update does.
// No input may panic: every defect must come back as an error, and every
// derived problem's graph and s-t core must pass Graph.Validate.
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
			checkValid(t, p)
		}
		if st.structural != nil {
			if p, err = p.WithStructuralUpdate(*st.structural); err == nil {
				checkValid(t, p)
			}
		}
	})
}
