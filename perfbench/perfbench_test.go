package main

import (
	"bytes"
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"analogflow/internal/experiments"
	"analogflow/internal/maxflow"
	"analogflow/internal/rmat"
	"analogflow/internal/solve"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},  // rank ceil(5) = 5
		{ten, 90, 9},  // rank 9
		{ten, 91, 10}, // rank ceil(9.1) = 10
		{ten, 100, 10},
		{ten, 0, 1}, // rank clamps to the smallest sample
		{[]float64{3, 1, 2, 4}, 50, 2},
		{[]float64{3, 1, 2, 4}, 25, 1},
		{[]float64{3, 1, 2, 4}, 26, 2},
		{[]float64{42}, 90, 42},
		{nil, 50, 0},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestQuieterHalf(t *testing.T) {
	for _, tc := range []struct {
		xs, steal, want []float64
	}{
		{[]float64{10, 20, 30, 40}, []float64{5, 0.1, 9, 0.2}, []float64{20, 40}},
		{[]float64{10, 20, 30, 40}, []float64{1, 1, 1, 1}, []float64{10, 20}}, // ties keep the earlier parts
		{[]float64{10, 20, 30}, []float64{3, 2, 1}, []float64{30, 20}},
		{[]float64{7}, []float64{50}, []float64{7}},
	} {
		got := quieter(tc.xs, tc.steal)
		if len(got) != len(tc.want) {
			t.Fatalf("quieter(%v, %v) = %v, want %v", tc.xs, tc.steal, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("quieter(%v, %v) = %v, want %v", tc.xs, tc.steal, got, tc.want)
			}
		}
	}
}

// sequence renders a workload's priming requests and first n timed requests
// as bytes, in order.
func sequence(t *testing.T, workload string, seed int64, n int) [][]byte {
	t.Helper()
	gen, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	prime, err := gen.prime()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, req := range prime {
		out = append(out, req.body)
	}
	for i := 0; i < n; i++ {
		req, err := gen.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, req.body)
	}
	return out
}

func TestRequestSequenceDeterministic(t *testing.T) {
	for _, w := range []string{"rmat-oneshot", "grid-oneshot", "session-churn"} {
		t.Run(w, func(t *testing.T) {
			a, b := sequence(t, w, 7, 12), sequence(t, w, 7, 12)
			if len(a) != len(b) {
				t.Fatalf("lengths %d and %d", len(a), len(b))
			}
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("request %d differs between two generations of seed 7", i)
				}
			}
			c := sequence(t, w, 8, 12)
			if bytes.Equal(a[len(a)-1], c[len(c)-1]) {
				t.Error("seeds 7 and 8 sent the same last request")
			}
		})
	}
}

// TestRMATCacheStructure pins the construction behind instance_hit_ratio =
// 0.25: each timed request carries exactly one repeat, of a problem the same
// backend solved in its previous request, and every fresh problem was last
// used so many cache inserts ago that the 64-entry LRU instance cache has
// evicted it.  The margins leave room for the server solving a batch's
// items in either order.
func TestRMATCacheStructure(t *testing.T) {
	g, err := newRMATGen(3)
	if err != nil {
		t.Fatal(err)
	}
	const cacheEntries = 64
	lastUse := map[*instance]int{} // instance → cache inserts before its last use
	inserts := 0                   // one per fresh problem
	for r := 0; r < 400; r++ {
		req := g.request(r)
		repeats := 0
		for i, in := range req.items {
			at, seen := lastUse[in]
			lastUse[in] = inserts
			if req.repeat[i] {
				repeats++
				prev := g.request(r - len(rmatBackends))
				if prev.solver != req.solver || prev.items[0] != in {
					t.Fatalf("request %d: repeat is not the first problem of request %d", r, r-3)
				}
				if inserts-at > cacheEntries/2 {
					t.Fatalf("request %d: repeat last used %d inserts ago", r, inserts-at)
				}
				continue
			}
			if seen && inserts-at < cacheEntries+cacheEntries/2 {
				t.Fatalf("request %d: fresh problem last used only %d inserts ago", r, inserts-at)
			}
			inserts++
		}
		want := 1
		if r < len(rmatBackends) {
			want = 0
		}
		if repeats != want {
			t.Fatalf("request %d: %d repeats, want %d", r, repeats, want)
		}
	}
}

func TestNormalizedSize(t *testing.T) {
	a := []byte(`{"report":{"flow_value":3,"wall_time_ns":123456}}` + "\n" + `{"report":{"wall_time_ns":9}}`)
	b := []byte(`{"report":{"flow_value":3,"wall_time_ns":7}}` + "\n" + `{"report":{"wall_time_ns":100000000}}`)
	if normalizedSize(a) != normalizedSize(b) {
		t.Errorf("sizes %d and %d differ only in wall_time_ns digits", normalizedSize(a), normalizedSize(b))
	}
	if got, want := normalizedSize(a), len(a)-5; got != want {
		t.Errorf("normalizedSize = %d, want %d", got, want)
	}
}

func TestUnion(t *testing.T) {
	sp := func(start, dur int64) span { return span{StartNS: start, DurNS: dur} }
	for _, tc := range []struct {
		spans []span
		want  time.Duration
	}{
		{nil, 0},
		{[]span{sp(0, 10)}, 10},
		{[]span{sp(0, 10), sp(20, 5)}, 15},
		{[]span{sp(0, 10), sp(5, 10)}, 15},
		{[]span{sp(5, 10), sp(0, 30), sp(40, 1)}, 31},
	} {
		if got := union(tc.spans); got != tc.want {
			t.Errorf("union(%v) = %v, want %v", tc.spans, got, tc.want)
		}
	}
}

func TestGCTraceParse(t *testing.T) {
	var g gcTrace
	line := "gc 7 @0.512s 3%: 0.021+1.2+0.004 ms clock, 0.042+0.30/0.95/0.10+0.009 ms cpu, 4->5->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P\n"
	// Split mid-line: the parser must wait for the newline.
	if _, err := g.Write([]byte(line[:40])); err != nil {
		t.Fatal(err)
	}
	if g.snapshot() != 0 {
		t.Fatal("counted a partial line")
	}
	if _, err := g.Write([]byte(line[40:] + "unrelated stderr line\n")); err != nil {
		t.Fatal(err)
	}
	if got, want := g.snapshot(), 0.042+0.30+0.95+0.10+0.009; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("gc cpu %g ms, want %g", got, want)
	}
}

// TestCountMetricsRepeat builds analogflowd, runs a short traced replay of
// every workload twice on one seed, and requires the count-type per-layer
// metrics to repeat exactly.  It also requires the service's self time to
// be above 0: the service always does some work of its own beyond the
// kernel, so a value at or below 0 means the replay charged a stage the
// service does not run.  Like the benchmark, the test needs both CPUs to
// itself: with both busy elsewhere the timed stages are preempted, and
// session-churn read -1.2 to -2.1 ms.
func TestCountMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs analogflowd")
	}
	bin := filepath.Join(t.TempDir(), "analogflowd")
	if out, err := exec.Command("go", "build", "-o", bin, "analogflow/cmd/analogflowd").CombinedOutput(); err != nil {
		t.Fatalf("build analogflowd: %v\n%s", err, out)
	}
	counts := []string{"solve.instance_hit_ratio", "solve.update_warm_ratio",
		"decompose.outer_iterations_per_step", "decompose.region_solves_per_step",
		"decompose.region_skips_per_step", "decompose.escalation_ratio", "analogflowd.response_kb"}
	for _, w := range []string{"rmat-oneshot", "grid-oneshot", "session-churn"} {
		t.Run(w, func(t *testing.T) {
			newGen := func() (generator, error) {
				gen, err := newGenerator(w, 5)
				if g, ok := gen.(*gridGen); ok {
					g.primeN = 2 // keep the test's server small
				}
				return gen, err
			}
			var first map[string]metric
			for run := 0; run < 2; run++ {
				res, err := tracedRun(context.Background(), options{workload: w, seed: 5, server: bin, traceRequests: 40}, newGen)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: %d of %d requests failed", run, res.Failed, res.Attempted)
				}
				if self := res.Metrics["solve.service_self_ms"].Value; self <= 0 {
					t.Errorf("run %d: solve.service_self_ms is %.4f", run, self)
				}
				if run == 0 {
					first = res.Metrics
					continue
				}
				for _, name := range counts {
					if res.Metrics[name] != first[name] {
						t.Errorf("%s: %v then %v", name, first[name], res.Metrics[name])
					}
				}
			}
		})
	}
}

// TestShardedSessionStaysInBand replays the sharded session's chain
// in-process, on a service configured like the benchmark's server, for more
// steps than any run sends, and samples every tenth step against the
// approximate-answer band.
func TestShardedSessionStaysInBand(t *testing.T) {
	if testing.Short() {
		t.Skip("3000 sharded solves")
	}
	_, base, err := sessionRMAT(rmat.SparseParams, shardedInstanceSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := base.Clone()
	svc := solve.NewService(solve.Config{Workers: 2})
	prob, err := solve.NewProblem(g.Clone(), solve.WithBudget(solve.Budget{MaxVertices: 400, MaxRegions: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Solve(ctx, solve.Request{Solver: "dinic", Problem: prob, Updatable: true}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3000; k++ {
		u := experiments.DynamicUpdateStep(base, k)
		if _, err := g.ApplyCapacityUpdate(u); err != nil {
			t.Fatal(err)
		}
		res, err := svc.Update(ctx, solve.UpdateRequest{Solver: "dinic", Problem: prob, Update: u})
		if err != nil {
			t.Fatal(err)
		}
		prob = res.Problem
		if k%10 != 0 {
			continue
		}
		if !res.Report.Plan.Sharded {
			t.Fatalf("step %d ran unsharded", k)
		}
		want, err := maxflow.OptimalValue(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Report.FlowValue-want) > approxBand*want {
			t.Fatalf("step %d: flow %g outside the band of %g", k, res.Report.FlowValue, want)
		}
	}
}
