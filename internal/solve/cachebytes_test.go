package solve

import (
	"context"
	"runtime"
	"testing"

	"analogflow/internal/core"
	"analogflow/internal/graph"
	"analogflow/internal/rmat"
)

// cacheBytes reads the one-shot cache's byte gauge.
func cacheBytes(t *testing.T, svc *Service) float64 {
	t.Helper()
	return MetricValue(t, svc, "analogflow_cache_bytes", "cache", "instance")
}

// readyBytes sums the bytes of the cache's ready entries.
func readyBytes(svc *Service) int64 {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	var sum int64
	for _, e := range svc.cache {
		if e.ready {
			sum += e.bytes
		}
	}
	return sum
}

// liveHeap is the heap still reachable after two collections (the second
// empties the sync.Pool victim caches the first one filled).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// cleanPath is a circuit-solvable instance: a 12-vertex path whose one
// bottleneck edge moves with i, so each i has its own fingerprint.
func cleanPath(i int) (*Problem, error) {
	const n = 12
	g := graph.MustNew(n, 0, n-1)
	for v := 0; v < n-1; v++ {
		capacity := 10.0
		if v == 1+i {
			capacity = 4
		}
		g.MustAddEdge(v, v+1, capacity)
	}
	params := core.DefaultParams()
	params.Variation = core.DefaultCleanVariation()
	return NewProblem(g, WithParams(params))
}

// TestCacheBytesTrackHeap checks that each kind of one-shot cache entry
// reports about the heap it retains: the gauge over n distinct cached
// entries must lie within a factor of two of the live-heap growth they
// caused.
func TestCacheBytesTrackHeap(t *testing.T) {
	for _, c := range []struct {
		name, solver string
		n            int
		problem      func(i int) (*Problem, error)
	}{
		{"cpu answer", "push-relabel", 8, func(i int) (*Problem, error) {
			return FromSegmentationGrid(48, 48, false, int64(i+1))
		}},
		{"behavioral session", "behavioral", 8, func(i int) (*Problem, error) {
			return FromRMAT(rmat.SparseParams(512, int64(i+1)))
		}},
		{"circuit session", "circuit", 8, cleanPath},
	} {
		t.Run(c.name, func(t *testing.T) {
			solve := func(svc *Service, i int) {
				p, err := c.problem(i)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := svc.Solve(context.Background(), Request{Solver: c.solver, Problem: p}); err != nil {
					t.Fatal(err)
				}
			}
			// One uncached-size solve first, so pooled scratch the kind
			// draws on already exists.
			solve(NewService(Config{Workers: 1}), c.n)
			svc := NewService(Config{Workers: 1})
			before := liveHeap()
			for i := 0; i < c.n; i++ {
				solve(svc, i)
			}
			grown := liveHeap() - before
			reported := cacheBytes(t, svc)
			runtime.KeepAlive(svc)
			ratio := reported / float64(grown)
			t.Logf("%d entries: %.0f bytes reported, heap grew %d (ratio %.2f)", c.n, reported, grown, ratio)
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("reported %.0f bytes for a heap growth of %d: ratio %.2f, want within [0.5, 2]", reported, grown, ratio)
			}
		})
	}
}

// TestCacheBytesGauge pins the gauge to the cache: it equals the summed
// bytes of the ready entries, each CPU answer is 8 bytes per original edge,
// and the gauge returns to 0 once every entry is evicted.
func TestCacheBytesGauge(t *testing.T) {
	svc := NewService(Config{Workers: 2})
	var want int64
	for i := 0; i < 4; i++ {
		p, err := FromRMAT(rmat.DenseParams(256, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		for _, solver := range []string{"dinic", "behavioral"} {
			if _, err := svc.Solve(context.Background(), Request{Solver: solver, Problem: p}); err != nil {
				t.Fatal(err)
			}
		}
		want += 8 * int64(p.Graph().NumEdges())
		prep, err := p.Prepared()
		if err != nil {
			t.Fatal(err)
		}
		want += prep.HeapBytes()
	}
	if got := cacheBytes(t, svc); got != float64(want) || got != float64(readyBytes(svc)) {
		t.Fatalf("gauge reads %g bytes; the entries hold %d, %d expected", got, readyBytes(svc), want)
	}
	svc.mu.Lock()
	svc.maxBytes = 0
	svc.evictLocked(nil)
	svc.mu.Unlock()
	if got := cacheBytes(t, svc); got != 0 {
		t.Fatalf("gauge reads %g bytes with every entry evicted", got)
	}
	if got := MetricValue(t, svc, "analogflow_cached_instances"); got != 0 {
		t.Fatalf("%g entries survived a zero-byte ceiling", got)
	}
}

// TestCacheEvictsByBytes lowers the byte ceiling to three CPU answers and
// checks that the cache evicts least-recently-used entries by bytes while
// the entry count stays far under Config.MaxCachedInstances.
func TestCacheEvictsByBytes(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	grid := func(i int) *Problem {
		p, err := FromSegmentationGrid(24, 24, false, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	entry := 8 * int64(grid(0).Graph().NumEdges())
	svc.maxBytes = 3 * entry
	solve := func(i int) {
		if _, err := svc.Solve(context.Background(), Request{Solver: "push-relabel", Problem: grid(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		solve(i)
	}
	solve(0) // grid 0 is now the most recently used
	solve(3) // evicts grid 1, the least recently used
	solve(4) // evicts grid 2
	cached := func(i int) bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		_, ok := svc.cache[grid(i).Fingerprint()+"|push-relabel"]
		return ok
	}
	for i, want := range []bool{true, false, false, true, true} {
		if got := cached(i); got != want {
			t.Errorf("grid %d cached %v, want %v", i, got, want)
		}
	}
	if got := cacheBytes(t, svc); got != float64(3*entry) {
		t.Errorf("gauge reads %g bytes, want three answers of %d", got, entry)
	}
	if got := MetricValue(t, svc, "analogflow_cached_instances"); got != 3 {
		t.Errorf("%g entries cached under an entry bound of %d, want 3", got, svc.maxCached)
	}
}
