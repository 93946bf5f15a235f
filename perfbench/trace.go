package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"analogflow/internal/graph"
	"analogflow/internal/rmat"
	"analogflow/internal/solve"
)

// traceRequests is how many requests each pass of a traced run sends: a
// fixed count, so the count-type per-layer metrics repeat exactly, and long
// enough that the tracing overhead reads within about 10 %.  Prefixes of
// 90, 40 and 60 requests read it anywhere from -27 % to +33 % on
// grid-oneshot and down to -19 % on rmat-oneshot.
var traceRequests = map[string]int{"rmat-oneshot": 240, "grid-oneshot": 160, "session-churn": 240}

// span is one timed call.  The root of each trace is the HTTP round trip;
// its children are the in-process calls on the same input, in pipeline
// order.  Times are relative to the run's start.
type span struct {
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer replays requests in-process through the layers' public functions,
// against its own solve.Service, and accumulates per-layer time.
type tracer struct {
	svc    *solve.Service
	epoch  time.Time
	chains map[int]*solve.Problem // session slot → chain head

	mu       sync.Mutex
	trace    int
	spans    []span
	children []span // top-level children of the current trace
	// dup is the part of the children's time the replay spent twice: an
	// update's derivation and stages run once as children of their own and
	// again inside Service.Update (see replayUpdate).
	dup  time.Duration
	sums map[string]time.Duration
}

func newTracer(cacheEntries int) *tracer {
	return &tracer{
		svc:    solve.NewService(solve.Config{Workers: 2, MaxCachedInstances: cacheEntries}),
		epoch:  time.Now(),
		chains: map[int]*solve.Problem{},
		sums:   map[string]time.Duration{},
	}
}

// timed runs f as a child span of the current trace.
func (t *tracer) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	sp := span{Name: name, StartNS: int64(start.Sub(t.epoch)), DurNS: int64(d)}
	t.mu.Lock()
	sp.Trace = t.trace
	t.spans = append(t.spans, sp)
	t.children = append(t.children, sp)
	t.sums[name] += d
	t.mu.Unlock()
	return d, err
}

// charge adds derived time (a kernel's Report.WallTime, a service's self
// time) to a layer without making it a span of its own.
func (t *tracer) charge(name string, d time.Duration) {
	t.mu.Lock()
	t.sums[name] += d
	t.mu.Unlock()
}

var kernelLayer = map[string]string{
	"dinic":        "maxflow.dinic_kernel",
	"push-relabel": "maxflow.push_relabel_kernel",
	"behavioral":   "core.behavioral_kernel",
}

// replay runs one answered request in-process and closes its trace: the
// root span's self time is its duration minus the union of its children.
func (t *tracer) replay(ctx context.Context, req *request, root time.Duration) error {
	t.mu.Lock()
	t.trace++
	t.children, t.dup = t.children[:0], 0
	t.spans = append(t.spans, span{Trace: t.trace, Name: "analogflowd.http", StartNS: int64(time.Since(t.epoch)), DurNS: int64(root)})
	t.mu.Unlock()
	var err error
	switch req.kind {
	case reqSolve:
		err = t.replaySolve(ctx, req)
	case reqUpdate:
		err = t.replayUpdate(ctx, req)
	}
	t.charge("analogflowd.http_self", root-(union(t.children)-t.dup))
	return err
}

// union is the length of time the spans cover together.
func union(spans []span) time.Duration {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].StartNS < s[j].StartNS })
	var total, end int64
	for i, sp := range s {
		lo, hi := sp.StartNS, sp.StartNS+sp.DurNS
		if i == 0 || lo > end {
			total += hi - lo
			end = hi
		} else if hi > end {
			total += hi - end
			end = hi
		}
	}
	return time.Duration(total)
}

// build is the request's parse stage: the graph from its wire form, then the
// validated problem.  The server builds every problem of a batch in order
// before solving any.
func (t *tracer) build(in *instance, opts ...solve.Option) (*solve.Problem, error) {
	var g *graph.Graph
	var err error
	switch {
	case in.spec.RMAT != nil:
		_, err = t.timed("rmat.generate", func() (e error) { g, e = rmat.Generate(in.params); return })
	case in.spec.DIMACS != "":
		_, err = t.timed("graph.dimacs_parse", func() (e error) { g, e = graph.ReadDIMACS(strings.NewReader(in.spec.DIMACS)); return })
	default:
		gs := in.spec.Grid
		_, err = t.timed("graph.grid_generate", func() (e error) { g, e = graph.SegmentationGrid(gs.Width, gs.Height, false, gs.Seed); return })
	}
	if err != nil {
		return nil, err
	}
	var p *solve.Problem
	_, err = t.timed("solve.problem", func() (e error) { p, e = solve.NewProblem(g, opts...); return })
	return p, err
}

// stages fills a problem's memoised pipeline stages in the order the server
// runs them and returns the time they took.  prepare runs the quantize stage
// (behavioral); exact runs the exact reference as a stage of its own, which
// it is only where the service computes it outside the kernel's
// Report.WallTime.
func (t *tracer) stages(ctx context.Context, p *solve.Problem, prepare, exact bool) (time.Duration, error) {
	total, _ := t.timed("solve.fingerprint", func() error { p.Fingerprint(); return nil })
	d, _ := t.timed("graph.prune", func() error { p.STCore(); return nil })
	total += d
	if prepare {
		d, err := t.timed("core.prepare", func() error { _, e := p.Prepared(); return e })
		if err != nil {
			return 0, err
		}
		total += d
	}
	if exact {
		d, err := t.timed("solve.exact", func() error { _, e := p.ExactValue(ctx); return e })
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// streamItem mirrors one NDJSON record of analogflowd's solve stream.
type streamItem struct {
	Index  int           `json:"index"`
	Report *solve.Report `json:"report,omitempty"`
}

func (t *tracer) replaySolve(ctx context.Context, req *request) error {
	probs := make([]*solve.Problem, len(req.items))
	for i, in := range req.items {
		var err error
		if probs[i], err = t.build(in); err != nil {
			return err
		}
	}
	// The batch fans out over two workers, as on the server.
	var next atomic.Int64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(probs) {
					return
				}
				if err := t.solveOne(ctx, req, i, probs[i]); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) solveOne(ctx context.Context, req *request, i int, p *solve.Problem) error {
	// Pre-filled memos leave the service call only its own work and the
	// kernel.  Dinic seeds the exact reference from its own solve.
	if req.repeat[i] {
		// A cache hit: the server fingerprints the problem and answers from
		// the warm instance, whose memos were paid for by the first request.
		t.timed("solve.fingerprint", func() error { p.Fingerprint(); return nil })
	} else if _, err := t.stages(ctx, p, req.solver == "behavioral", req.solver != "dinic"); err != nil {
		return err
	}
	var rep *solve.Report
	d, err := t.timed("solve.service", func() (e error) {
		rep, e = t.svc.Solve(ctx, solve.Request{Solver: req.solver, Problem: p})
		return
	})
	if err != nil {
		return err
	}
	kernel := rep.WallTime
	if req.repeat[i] {
		kernel = 0 // the report carries the first solve's kernel time
	}
	t.charge(kernelLayer[req.solver], kernel)
	t.charge("solve.service_self", d-kernel)
	_, err = t.timed("analogflowd.encode", func() error { _, e := json.Marshal(streamItem{Index: i, Report: rep}); return e })
	return err
}

// replayUpdate replays one session update request.  Service.Update derives
// the updated problem itself, so its memos cannot be pre-filled.  Instead
// the derivation and the stages the service runs outside the kernel are
// timed on a copy derived just before the call, and the service's self time
// is its span minus the kernel minus that copy's time.  The stages are the
// warm path's: the chained fingerprint and, on capacity steps, the prune are
// seeded by the derivation; the quantize stage runs for the behavioral
// session; and the exact reference is a stage of its own only on the flat
// push-relabel session.  Flat dinic seeds the reference from its own solve.
// The behavioral session re-augments its warm reference, and a sharded step
// reads the reference in its consensus acceptance check, both inside
// Report.WallTime.
func (t *tracer) replayUpdate(ctx context.Context, req *request) error {
	base := t.chains[req.session]
	for j, s := range req.steps {
		var p2 *solve.Problem
		derived, err := t.timed("solve.with_update", func() (e error) { p2, e = derive(base, s); return })
		if err != nil {
			return err
		}
		st, err := t.stages(ctx, p2, req.solver == "behavioral", !req.sharded && req.solver == "push-relabel")
		if err != nil {
			return err
		}
		ur := solve.UpdateRequest{Solver: req.solver, Problem: base, Structural: s.structural}
		if s.capacity != nil {
			ur.Update = *s.capacity
		}
		var res *solve.UpdateResult
		d, err := t.timed("solve.service", func() (e error) { res, e = t.svc.Update(ctx, ur); return })
		if err != nil {
			return err
		}
		kernel := res.Report.WallTime
		t.charge(kernelLayer[req.solver], kernel)
		t.charge("solve.service_self", d-kernel-derived-st)
		t.mu.Lock()
		t.dup += derived + st
		t.mu.Unlock()
		rec := map[string]any{"index": j, "warm": res.Warm, "report": res.Report}
		if res.Structural {
			rec["structural"], rec["slack_remaining"] = true, res.SlackRemaining
		}
		if _, err := t.timed("analogflowd.encode", func() error { _, e := json.Marshal(rec); return e }); err != nil {
			return err
		}
		base = res.Problem
	}
	t.chains[req.session] = base
	return nil
}

// derive applies one session step to a problem.
func derive(base *solve.Problem, s step) (*solve.Problem, error) {
	if s.structural != nil {
		return base.WithStructuralUpdate(*s.structural)
	}
	return base.WithUpdate(*s.capacity)
}

// mirror brings the in-process service to the state the server's priming
// left it in: the same problems solved, the same sessions open.  Untimed.
func (t *tracer) mirror(ctx context.Context, prime []*request) error {
	for _, req := range prime {
		switch req.kind {
		case reqSolve:
			for _, in := range req.items {
				p, err := t.build(in)
				if err != nil {
					return err
				}
				if _, err := t.svc.Solve(ctx, solve.Request{Solver: req.solver, Problem: p}); err != nil {
					return err
				}
			}
		case reqOpen:
			var opts []solve.Option
			if b := req.budget; b != nil {
				opts = append(opts, solve.WithBudget(solve.Budget{MaxVertices: b.MaxVertices, MaxRegions: b.MaxRegions}))
			}
			p, err := solve.NewProblem(req.items[0].g.Clone(), opts...)
			if err != nil {
				return err
			}
			if _, err := t.svc.Solve(ctx, solve.Request{Solver: req.solver, Problem: p, Updatable: true}); err != nil {
				return err
			}
			t.chains[req.session] = p
		}
	}
	// Priming is not part of any trace.
	t.mu.Lock()
	t.spans, t.children = nil, nil
	for k := range t.sums {
		delete(t.sums, k)
	}
	t.mu.Unlock()
	return nil
}

// freshSetUp sets up a server, with the GC trace on, from a new generator
// of the run's seed.
func freshSetUp(opt options, newGen func() (generator, error)) (*server, *client, generator, []*request, error) {
	gen, err := newGen()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prime, err := gen.prime()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	srv, c, _, err := setUp(opt, prime, true)
	return srv, c, gen, prime, err
}

// tracedRun is the --trace 1 run.  It sets up twice, each time from a new
// generator of the same seed, and sends the same fixed request prefix on
// both servers: first untraced, which gives the server's GC cost and the
// reference the tracing overhead is measured against; then traced, each
// request both to the server (the root span) and in-process (its children).
func tracedRun(ctx context.Context, opt options, newGen func() (generator, error)) (*result, error) {
	n := opt.traceRequests
	if n <= 0 {
		n = traceRequests[opt.workload]
	}

	srv, c, gen, _, err := freshSetUp(opt, newGen)
	if err != nil {
		return nil, err
	}
	gc0 := srv.gc.snapshot()
	plain, err := runLoop(c, gen, 0, n, time.Time{}, nil)
	gcMS := srv.gc.snapshot() - gc0
	c.close()
	srv.stop()
	if err != nil {
		return nil, err
	}

	srv, c, gen, prime, err := freshSetUp(opt, newGen)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	defer c.close()
	t := newTracer(gen.cacheReuse())
	if err := t.mirror(ctx, prime); err != nil {
		return nil, fmt.Errorf("in-process priming: %w", err)
	}
	m0, err := c.scrape()
	if err != nil {
		return nil, err
	}
	var steps, outer, solves, skips, escalated float64
	traced, err := runLoop(c, gen, 0, n, time.Time{}, func(req *request, out outcome) error {
		if out.err != nil {
			return nil
		}
		if req.kind == reqUpdate && req.sharded {
			for _, rep := range out.reports {
				steps++
				outer += float64(rep.Plan.OuterIterations)
				solves += float64(rep.Plan.RegionSolves)
				skips += float64(rep.Plan.RegionSkips)
				if rep.Plan.Escalated {
					escalated++
				}
			}
		}
		return t.replay(ctx, req, out.latency)
	})
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	m1, err := c.scrape()
	if err != nil {
		return nil, err
	}

	delta := func(series string) float64 { return m1[series] - m0[series] }
	hits := delta(`analogflow_cache_events_total{cache="instance",event="hit"}`)
	misses := delta(`analogflow_cache_events_total{cache="instance",event="miss"}`)
	// Sharded steps count their warm hits in a counter of their own.
	warmUpdates := delta("analogflow_update_warm_hits_total") + delta("analogflow_sharded_update_warm_hits_total")

	perReq := func(name string) metric {
		return metric{millis(t.sums[name]) / float64(traced.attempted), "ms"}
	}
	m := map[string]metric{
		"solve.instance_hit_ratio":            {ratio(hits, hits+misses), "ratio"},
		"solve.update_warm_ratio":             {ratio(warmUpdates, delta("analogflow_updates_total")), "ratio"},
		"decompose.outer_iterations_per_step": {ratio(outer, steps), "count"},
		"decompose.region_solves_per_step":    {ratio(solves, steps), "count"},
		"decompose.region_skips_per_step":     {ratio(skips, steps), "count"},
		"decompose.escalation_ratio":          {ratio(escalated, steps), "ratio"},
		"analogflowd.response_kb":             {traced.bytes / float64(traced.attempted) / 1024, "KiB"},
		"runtime.gc_cpu_ms_per_req":           {gcMS / float64(plain.attempted), "ms"},
		"trace.overhead_pct": {100 * (traced.waited.Seconds()/float64(traced.attempted)/
			(plain.waited.Seconds()/float64(plain.attempted)) - 1), "%"},
	}
	for _, name := range []string{"rmat.generate", "graph.dimacs_parse", "graph.grid_generate",
		"solve.problem", "solve.fingerprint", "graph.prune", "core.prepare", "solve.exact",
		"solve.with_update", "maxflow.dinic_kernel", "maxflow.push_relabel_kernel",
		"core.behavioral_kernel", "solve.service_self", "analogflowd.encode", "analogflowd.http_self"} {
		m[name+"_ms"] = perReq(name)
	}
	if opt.spans != "" {
		if err := writeSpans(opt.spans, t.spans); err != nil {
			return nil, err
		}
	}
	failed := traced.failed + plain.failed
	return &result{Correct: failed == 0, Attempted: traced.attempted + plain.attempted, Failed: failed, Metrics: m}, nil
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
