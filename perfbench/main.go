// Command perfbench is the end-to-end benchmark of analogflowd.  It launches
// the real server binary, drives it over one keep-alive connection in a
// closed loop with a seeded request sequence, checks every answer against
// values it computes itself, and prints one JSON result line.
//
//	perfbench -server <analogflowd binary> --workload rmat-oneshot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// traced replay splits each request across the layers it crosses and the
// result carries the per-layer metrics.  README.md defines every workload and
// metric; run.sh builds both binaries from source and runs this command.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

const (
	// defaultSeed is the tuning seed.  Seed 1009 is held out (README.md).
	defaultSeed = 1
	// wallCap bounds a timed window in wall time, whatever the latencies.
	wallCap = 120 * time.Second
	// A run sets up at least minSetUps times and then again until the
	// set-ups took setUpTotal together, at most maxSetUps times; setup_s is
	// the median of the half with the least host CPU steal (see quarters).
	// A session-churn set-up takes ~0.1 s, and the plain median of three
	// moved by 27 % between two sets of runs under host CPU steal.
	minSetUps  = 3
	maxSetUps  = 15
	setUpTotal = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string
	spans    string
	// traceRequests overrides the traced replay's request count (tests).
	traceRequests int
}

func main() {
	res, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "rmat-oneshot, grid-oneshot or session-churn")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; the same seed sends the same requests")
	fs.IntVar(&seconds, "seconds", 20, "time spent waiting on the server in the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	fs.StringVar(&o.server, "server", "", "path of the analogflowd binary")
	fs.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.seconds, o.trace = float64(seconds), trace == 1
	switch {
	case o.server == "":
		return o, errors.New("-server is required")
	case seconds < 1:
		return o, errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	}
	return o, nil
}

func run(args []string) (*result, error) {
	opt, err := parseOptions(args)
	if err != nil {
		return nil, err
	}
	newGen := func() (generator, error) {
		// Building a generator leaves much garbage, so the collector runs.
		defer debug.SetGCPercent(debug.SetGCPercent(100))
		return newGenerator(opt.workload, opt.seed)
	}
	// From here on the benchmark collects its own garbage only between
	// requests (collectBetween), never while it waits on the server.
	debug.SetGCPercent(-1)
	if opt.trace {
		return tracedRun(context.Background(), opt, newGen)
	}
	gen, err := newGen()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	return endToEnd(opt, gen)
}

// setUp starts a server, waits for /v1/readyz and sends the priming
// requests.  The set-up time is exec-to-ready plus the priming requests'
// round trips; priming answers must be complete streams but are not
// answer-checked (their inputs are never materialized client-side).
func setUp(opt options, prime []*request, gctrace bool) (*server, *client, float64, error) {
	start := time.Now()
	srv, err := startServer(opt.server, gctrace)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(srv.base)
	fail := func(err error) (*server, *client, float64, error) {
		c.close()
		srv.stop()
		return nil, nil, 0, err
	}
	if err := c.waitReady(30 * time.Second); err != nil {
		return fail(err)
	}
	total := time.Since(start)
	for i, req := range prime {
		out := c.send(req, false)
		if out.err != nil {
			return fail(fmt.Errorf("priming request %d: %w", i, out.err))
		}
		total += out.latency
		collectBetween()
	}
	return srv, c, total.Seconds(), nil
}

// collectBetween runs a garbage collection of the benchmark's own heap once
// it has allocated 64 MiB since the last one.  Called between requests, with
// automatic collection off, it keeps the benchmark's GC from competing with
// the server for the two CPUs during a timed exchange.
var heapAllocs = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var lastCollect uint64

func collectBetween() {
	metrics.Read(heapAllocs)
	if v := heapAllocs[0].Value.Uint64(); v-lastCollect > 64<<20 {
		runtime.GC()
		lastCollect = v
	}
}

// loopStats accumulates one closed-loop window.
type loopStats struct {
	latencies []float64
	byClass   map[string][]float64
	waited    time.Duration
	attempted int
	failed    int
	bytes     float64
}

func (ls *loopStats) note(req *request, out outcome) {
	ls.attempted++
	ls.waited += out.latency
	ls.latencies = append(ls.latencies, millis(out.latency))
	ls.byClass[req.class] = append(ls.byClass[req.class], millis(out.latency))
	ls.bytes += float64(out.bytes)
	if out.err != nil {
		ls.failed++
		if ls.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", req.class, out.err)
		}
	}
}

// runLoop runs the closed loop: it sends the generator's next request after
// the previous answer was checked, until the time spent waiting on the
// server reaches budget or n requests were sent (n <= 0: no count limit),
// and in any case stops at deadline (zero: none).  each, when set, sees
// every request and its outcome.
func runLoop(c *client, gen generator, budget time.Duration, n int, deadline time.Time, each func(*request, outcome) error) (*loopStats, error) {
	ls := &loopStats{byClass: map[string][]float64{}}
	for (n > 0 && ls.attempted < n) || (n <= 0 && ls.waited < budget) {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		req, err := gen.next()
		if err != nil {
			return nil, err
		}
		out := c.send(req, true)
		ls.note(req, out)
		if each != nil {
			if err := each(req, out); err != nil {
				return nil, err
			}
		}
		collectBetween()
	}
	return ls, nil
}

// quarters is how many equal parts, by time waited on the server, the timed
// window is measured in.  Each time metric is the median over the half of
// the parts with the least host CPU steal, so neither a burst of host noise
// within one part nor the hypervisor running another machine on these CPUs
// for part of the window moves it.
const quarters = 4

// quieter returns the half of xs measured in the parts with the least
// steal; ties keep the earlier part.
func quieter(xs, steal []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	out := make([]float64, 0, (len(xs)+1)/2)
	for _, i := range idx[:cap(out)] {
		out = append(out, xs[i])
	}
	return out
}

// endToEnd is the untraced run: several set-ups, then one timed window.
func endToEnd(opt options, gen generator) (*result, error) {
	prime, err := gen.prime()
	if err != nil {
		return nil, err
	}
	var setups, setUpSteal []float64
	var setUpSum float64
	var srv *server
	var c *client
	for len(setups) < minSetUps || (setUpSum < setUpTotal.Seconds() && len(setups) < maxSetUps) {
		if srv != nil {
			c.close()
			srv.stop()
		}
		steal0, total0, err := hostCPU()
		if err != nil {
			return nil, err
		}
		var t float64
		if srv, c, t, err = setUp(opt, prime, false); err != nil {
			return nil, err
		}
		steal1, total1, err := hostCPU()
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
		setUpSteal = append(setUpSteal, 100*ratio(steal1-steal0, total1-total0))
		setUpSum += t
	}
	defer srv.stop()
	defer c.close()

	var rps, p50, p90, cpu, steal []float64
	byClass := map[string][]float64{}
	attempted, failed := 0, 0
	deadline := time.Now().Add(wallCap)
	part := time.Duration(opt.seconds * float64(time.Second) / quarters)
	for q := 0; q < quarters; q++ {
		steal0, total0, err := hostCPU()
		if err != nil {
			return nil, err
		}
		cpu0, err := srv.cpuMillis()
		if err != nil {
			return nil, err
		}
		ls, err := runLoop(c, gen, part, 0, deadline, nil)
		if err != nil {
			return nil, err
		}
		cpu1, err := srv.cpuMillis()
		if err != nil {
			return nil, err
		}
		steal1, total1, err := hostCPU()
		if err != nil {
			return nil, err
		}
		if ls.attempted == 0 {
			break
		}
		rps = append(rps, float64(ls.attempted-ls.failed)/ls.waited.Seconds())
		p50 = append(p50, percentile(ls.latencies, 50))
		p90 = append(p90, percentile(ls.latencies, 90))
		cpu = append(cpu, (cpu1-cpu0)/float64(ls.attempted))
		steal = append(steal, 100*ratio(steal1-steal0, total1-total0))
		for k, v := range ls.byClass {
			byClass[k] = append(byClass[k], v...)
		}
		attempted += ls.attempted
		failed += ls.failed
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if attempted == 0 {
		return nil, errors.New("no request completed within the wall-time cap")
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"setup_s":               {median(quieter(setups, setUpSteal)), "s"},
		"throughput_rps":        {median(quieter(rps, steal)), "req/s"},
		"latency_p50_ms":        {median(quieter(p50, steal)), "ms"},
		"latency_p90_ms":        {median(quieter(p90, steal)), "ms"},
		"server_cpu_ms_per_req": {median(quieter(cpu, steal)), "ms"},
		"server_rss_peak_mb":    {rss, "MiB"},
	}}
	summary := map[string]any{"workload": opt.workload, "seed": opt.seed, "requests": attempted,
		"error_rate": float64(failed) / float64(attempted), "setups_s": setups, "setups_steal_pct": setUpSteal,
		"quarters": map[string][]float64{"throughput_rps": rps, "latency_p50_ms": p50, "latency_p90_ms": p90,
			"server_cpu_ms_per_req": cpu, "host_steal_pct": steal},
		"class_p50_ms": classP50(byClass), "class_requests": classCounts(byClass)}
	if b, err := json.Marshal(summary); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench summary: %s\n", b)
	}
	return res, nil
}

func classP50(by map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range by {
		out[k] = percentile(v, 50)
	}
	return out
}

func classCounts(by map[string][]float64) map[string]int {
	out := map[string]int{}
	for k, v := range by {
		out[k] = len(v)
	}
	return out
}
