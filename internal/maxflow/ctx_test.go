package maxflow

import (
	"context"
	"errors"
	"testing"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// TestContextVariantsAbortWhenCancelled pins that every algorithm's Context
// variant — and Network.Solve, the path every service and session solve
// takes — returns the context's error instead of a flow once the context is
// cancelled.  The checks live inside the augmenting-path / discharge loops,
// guarded by a cheap upfront check so even tiny instances observe it.
func TestContextVariantsAbortWhenCancelled(t *testing.T) {
	g := rmat.MustGenerate(rmat.SparseParams(96, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{PushRelabel, Dinic, EdmondsKarp} {
		if _, err := SolveContext(ctx, g, alg); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: want context.Canceled, got %v", alg, err)
		}
		net, err := NewNetwork(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Solve(ctx, alg); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: Network.Solve: want context.Canceled, got %v", alg, err)
		}
	}
	if _, err := OptimalValueContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimalValueContext: want context.Canceled, got %v", err)
	}
}

// TestContextVariantsMatchPlainSolve pins that a live context changes
// nothing: the Context variants produce the same flow value and the same
// per-edge flows as the plain entry points.
func TestContextVariantsMatchPlainSolve(t *testing.T) {
	for _, g := range []*graph.Graph{graph.PaperFigure5(), rmat.MustGenerate(rmat.SparseParams(64, 8))} {
		for _, alg := range []Algorithm{PushRelabel, Dinic, EdmondsKarp} {
			plain, err := Solve(g, alg)
			if err != nil {
				t.Fatal(err)
			}
			withCtx, err := SolveContext(context.Background(), g, alg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Value != withCtx.Value {
				t.Errorf("%v: value differs with context: %g vs %g", alg, plain.Value, withCtx.Value)
			}
			for i := range plain.Edge {
				if plain.Edge[i] != withCtx.Edge[i] {
					t.Errorf("%v: edge %d flow differs: %g vs %g", alg, i, plain.Edge[i], withCtx.Edge[i])
					break
				}
			}
		}
	}
}
