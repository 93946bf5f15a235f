// Command analogflowd serves the unified solver layer over HTTP: a small
// JSON API in front of solve.Service, so that batch evaluation pipelines can
// fan max-flow workloads over every backend of the repository — the analog
// substrate models included — without linking Go code.
//
// Endpoints:
//
//	GET    /v1/solvers              list the registered backends
//	GET    /v1/healthz              liveness: status, version, draining
//	GET    /v1/readyz               readiness (503 while draining)
//	GET    /v1/metrics              Prometheus text-format scrape of every instrument
//	GET    /v1/stats                fleet JSON: workers, queues, caches, sessions, per-backend latency windows
//	POST   /v1/solve                solve a batch; results stream back as NDJSON
//	POST   /v1/sessions             open a long-lived update session (solves the base problem)
//	POST   /v1/sessions/{id}/update apply capacity-update steps; one NDJSON report per step
//	DELETE /v1/sessions/{id}        close a session and release its warm state
//
// Every non-stream error answers with one uniform JSON envelope,
// {"error":{"code","message",...}}; docs/api.md tabulates the codes.
//
// A solve request names one solver and carries one or more problems, each
// given inline (vertices/source/sink/edges), as DIMACS text, as an R-MAT
// generator spec, or as an image-segmentation grid spec (the vision-style
// workload the large-instance solver path is tuned for):
//
//	{
//	  "solver": "dinic",
//	  "problems": [
//	    {"vertices": 5, "source": 0, "sink": 4,
//	     "edges": [[0,1,3],[1,2,2],[1,3,1],[2,4,1],[3,4,2]]},
//	    {"dimacs": "p max 4 3\nn 1 s\nn 4 t\na 1 2 2\na 2 3 2\na 3 4 1\n"},
//	    {"rmat": {"vertices": 64, "sparse": true, "seed": 7}},
//	    {"grid": {"width": 512, "height": 512, "eight": false, "seed": 7}}
//	  ],
//	  "params": {"levels": 20, "gbw": 1e10, "seed": 1},
//	  "budget": {"max_vertices": 128, "max_regions": 8, "partitioner": "bfs"}
//	}
//
// The optional budget block (or the server-wide -budget-vertices /
// -budget-regions / -partitioner flags) engages the partition planner: a
// problem larger than the budget is sharded into overlapping regions and
// solved through the Section 6.4 N-region dual decomposition, with the
// requested backend solving the regions; the report's "plan" field shows the
// decision, and /v1/stats counts planned/sharded solves.
//
// Each result is one NDJSON line {"index":i,"report":{...}} (or
// {"index":i,"error":"..."}), written as the solve completes; the stream
// ends with {"done":true,"count":n} — or, when the request is cancelled
// mid-batch, with an error record instead, so a truncated stream is never
// mistaken for a complete one.  Identical problems share one warm solver
// instance across the whole service (see internal/solve), so a benchmark
// that hammers one fingerprint measures the substrate, not repeated
// preprocessing.
//
// Sessions expose the dynamic-graph workload: POST /v1/sessions opens a
// chain ({"solver":"dinic","problem":{...}}), POST /v1/sessions/{id}/update
// applies capacity-only mutations ({"updates":[{"edge":0,"capacity":5}]} or
// a batched {"steps":[[...],[...]]}) and streams one report per step, each
// re-solved from the warm instance state (re-stamped circuits, drained
// residual networks) rather than from scratch.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling routes, served only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"analogflow/internal/solve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "analogflowd:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it parses flags, builds the
// service handler and serves it.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("analogflowd", flag.ContinueOnError)
	// Usage text belongs on stdout only when the user asked for it (-h);
	// parse errors surface once, through the returned error, on stderr.
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	var (
		addr           = fs.String("addr", ":8723", "listen address")
		workers        = fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
		maxCached      = fs.Int("max-cached", 0, "max cached warm solver instances (0 = default)")
		maxQueue       = fs.Int("max-queue", 0, "max requests queued for a worker slot before load shedding (0 = 8 × workers)")
		budgetVerts    = fs.Int("budget-vertices", 0, "substrate budget: max vertices per monolithic solve; larger instances are auto-sharded (0 = unlimited)")
		budgetRegs     = fs.Int("budget-regions", 0, "substrate budget: max regions the planner may shard into (0 = default 16)")
		partitioner    = fs.String("partitioner", "", "planner partitioner: bfs (default) or cluster")
		defaultTimeout = fs.Duration("default-timeout", 0, "per-request deadline when the request carries no timeout_ms (0 = none); deadline-unmeetable requests are shed with 429")
		sessionTTL     = fs.Duration("session-ttl", 10*time.Minute, "idle time after which a session is evicted and its warm solver state released (0 = never)")
		drainTimeout   = fs.Duration("drain-timeout", 15*time.Second, "how long SIGINT/SIGTERM waits for in-flight requests before closing connections")
		pprofAddr      = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling entirely")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			_, _ = io.Copy(stdout, &usage)
			return nil
		}
		return err
	}
	budget := solve.Budget{MaxVertices: *budgetVerts, MaxRegions: *budgetRegs, Partitioner: *partitioner}
	if err := budget.Validate(); err != nil {
		return err
	}
	svc := solve.NewService(solve.Config{
		Workers: *workers, MaxCachedInstances: *maxCached, MaxQueue: *maxQueue, Budget: budget,
	})
	srv := newServer(svc, serverConfig{sessionTTL: *sessionTTL, defaultTimeout: *defaultTimeout})
	srv.startJanitor()
	defer srv.stopJanitor()
	httpSrv := &http.Server{
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Listen before announcing, so the printed address is the bound one
	// (":0" resolves to a real port) and a failed bind surfaces immediately.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "analogflowd: listening on %s (solvers: %v)\n", ln.Addr(), svc.Registry().Names())

	// Opt-in profiling endpoint on its own listener: the API mux never serves
	// the pprof routes (they register on http.DefaultServeMux, which the API
	// server does not use), so profiling is reachable only when the operator
	// passes -pprof-addr, and can be bound to loopback separately from -addr.
	if *pprofAddr != "" {
		pprofLn, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pprofLn.Close()
		fmt.Fprintf(stdout, "analogflowd: pprof on http://%s/debug/pprof/\n", pprofLn.Addr())
		go func() {
			pprofSrv := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			_ = pprofSrv.Serve(pprofLn)
		}()
	}

	// Graceful drain: on SIGINT/SIGTERM, readiness flips to 503 and new
	// requests are refused while in-flight streams finish their current
	// record (they observe the drain through the handler's stop hooks);
	// connections still open after the drain window are closed hard.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "analogflowd: received %v, draining (window %v)\n", sig, *drainTimeout)
		srv.beginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			_ = httpSrv.Close()
		}
		<-serveErr // Serve has returned http.ErrServerClosed
		fmt.Fprintln(stdout, "analogflowd: drained, exiting")
		return nil
	}
}
