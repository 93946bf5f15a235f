package solve

import (
	"sync"
	"time"

	"analogflow/internal/metrics"
)

// emaAlpha weights the newest latency observation in the admission
// estimator; 0.2 smooths over ~5 recent solves, enough to ride out one
// outlier without going stale under shifting problem sizes.
const emaAlpha = 0.2

// durationBuckets are the latency histogram bounds in seconds: 1 ms to
// ~65 s, doubling — wide enough to hold both microsecond behavioral solves
// and multi-second large-grid shards in one family.
var durationBuckets = metrics.ExponentialBuckets(0.001, 2, 17)

// backendWindow is one backend's latency view: the fixed-alpha EMA the
// admission queue multiplies by queue depth, and a histogram for p50/p99.
type backendWindow struct {
	ema  *metrics.EMA       // milliseconds; admission estimate
	hist *metrics.Histogram // seconds
}

// backendWindows tracks latency per backend and op (solve/update), creating
// each backend's instruments — including its exposition series — on first
// observation.
type backendWindows struct {
	mu  sync.Mutex
	m   map[string]*backendWindow
	reg *metrics.Registry
	ops map[[2]string]*metrics.Counter // (backend, op) -> completions
}

func newBackendWindows(reg *metrics.Registry) *backendWindows {
	return &backendWindows{
		m:   make(map[string]*backendWindow),
		reg: reg,
		ops: make(map[[2]string]*metrics.Counter),
	}
}

// window returns (creating if needed) the backend's instrument set.
func (b *backendWindows) window(solver string) *backendWindow {
	b.mu.Lock()
	defer b.mu.Unlock()
	w, ok := b.m[solver]
	if !ok {
		w = &backendWindow{
			ema: metrics.NewEMA(emaAlpha),
			hist: b.reg.Histogram("analogflow_request_duration_seconds",
				"Wall time of completed solve/update requests by backend.",
				metrics.Labels{"backend": solver}, durationBuckets),
		}
		b.reg.GaugeFunc("analogflow_backend_latency_ema_milliseconds",
			"Fixed-alpha latency EMA per backend (the admission estimator).",
			metrics.Labels{"backend": solver}, w.ema.Value)
		b.m[solver] = w
	}
	return w
}

// observe folds one completed solve's wall time into the backend's windows.
func (b *backendWindows) observe(solver string, d time.Duration) {
	b.observeOp(solver, "solve", d)
}

// observeOp folds one completed request of the given op.
func (b *backendWindows) observeOp(solver, op string, d time.Duration) {
	if d <= 0 {
		return
	}
	w := b.window(solver)
	ms := float64(d) / float64(time.Millisecond)
	w.ema.Observe(ms)
	w.hist.Observe(d.Seconds())

	key := [2]string{solver, op}
	b.mu.Lock()
	c, ok := b.ops[key]
	if !ok {
		c = b.reg.Counter("analogflow_backend_requests_total",
			"Completed requests per backend and op.",
			metrics.Labels{"backend": solver, "op": op})
		b.ops[key] = c
	}
	b.mu.Unlock()
	c.Inc()
}

// estimate returns the backend's admission estimate, or 0 when nothing has
// been observed yet (which disables deadline shedding for that backend).
func (b *backendWindows) estimate(solver string) time.Duration {
	b.mu.Lock()
	w := b.m[solver]
	b.mu.Unlock()
	if w == nil {
		return 0
	}
	return time.Duration(w.ema.Value() * float64(time.Millisecond))
}

// BackendWindow is the per-backend latency snapshot Stats exposes.
type BackendWindow struct {
	// EMAms is the fixed-alpha EMA (the admission estimator), in
	// milliseconds of wall time.
	EMAms float64 `json:"ema_ms"`
	// P50ms / P99ms are histogram-estimated latency quantiles.
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
	// Observations counts completed requests folded into the windows.
	Observations int64 `json:"observations"`
}

// windows returns the per-backend snapshot.
func (b *backendWindows) windows() map[string]BackendWindow {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.m) == 0 {
		return nil
	}
	out := make(map[string]BackendWindow, len(b.m))
	for k, w := range b.m {
		out[k] = BackendWindow{
			EMAms:        w.ema.Value(),
			P50ms:        w.hist.Quantile(0.5) * 1000,
			P99ms:        w.hist.Quantile(0.99) * 1000,
			Observations: w.ema.Count(),
		}
	}
	return out
}

// ratio is hits/(hits+misses), or 0 when nothing has been counted.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
