package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter", nil)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Add did not panic")
			}
		}()
		c.Add(-1)
	}()

	g := r.Gauge("test_gauge", "a gauge", nil)
	g.Set(2.5)
	g.Add(-1.25)
	if g.Value() != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", g.Value())
	}
}

func TestRegistryIdempotentAndMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h", Labels{"x": "1"})
	b := r.Counter("dup_total", "h", Labels{"x": "1"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	c := r.Counter("dup_total", "h", Labels{"x": "2"})
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch did not panic")
			}
		}()
		r.Gauge("dup_total", "h", nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid metric name did not panic")
			}
		}()
		r.Counter("0bad-name", "h", nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid label name did not panic")
			}
		}()
		r.Counter("ok_total", "h", Labels{"bad-label": "v"})
	}()
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if math.Abs(h.Sum()-112.5) > 1e-9 {
		t.Fatalf("sum = %v, want 112.5", h.Sum())
	}
	// p50 of 7 samples: rank 3.5 lands in the (2,4] bucket (cum 1,3 then 6).
	q := h.Quantile(0.5)
	if q <= 2 || q > 4 {
		t.Errorf("p50 = %v, want in (2, 4]", q)
	}
	// p99 lands in +Inf bucket -> clamps to last finite bound.
	if got := h.Quantile(0.99); got != 8 {
		t.Errorf("p99 = %v, want clamp to 8", got)
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "Total requests.", Labels{"backend": "dinic", "op": "solve"})
	c.Add(3)
	g := r.Gauge("app_queue_depth", "Queue depth.", Labels{"lane": "normal"})
	g.Set(2)
	r.GaugeFunc("app_in_flight", "In-flight ops.", nil, func() float64 { return 1.5 })
	h := r.Histogram("app_latency_seconds", "Latency.", Labels{"backend": "dinic"}, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	out := r.Render()
	for _, want := range []string{
		"# HELP app_requests_total Total requests.\n",
		"# TYPE app_requests_total counter\n",
		`app_requests_total{backend="dinic",op="solve"} 3` + "\n",
		"# TYPE app_queue_depth gauge\n",
		`app_queue_depth{lane="normal"} 2` + "\n",
		"# TYPE app_in_flight gauge\n",
		"app_in_flight 1.5\n",
		"# TYPE app_latency_seconds histogram\n",
		`app_latency_seconds_bucket{backend="dinic",le="0.1"} 1` + "\n",
		`app_latency_seconds_bucket{backend="dinic",le="1"} 2` + "\n",
		`app_latency_seconds_bucket{backend="dinic",le="+Inf"} 3` + "\n",
		`app_latency_seconds_sum{backend="dinic"} 5.55` + "\n",
		`app_latency_seconds_count{backend="dinic"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Label values with quotes/backslashes/newlines must be escaped.
	r2 := NewRegistry()
	r2.Counter("esc_total", "", Labels{"v": "a\"b\\c\nd"}).Inc()
	out2 := r2.Render()
	if !strings.Contains(out2, `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label escaping wrong: %q", out2)
	}
}

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if e.Value() != 0 {
		t.Fatal("empty EMA should read 0")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation should seed: got %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("EMA = %v, want 15", e.Value())
	}
	if e.Count() != 2 {
		t.Fatalf("count = %d, want 2", e.Count())
	}
}

func TestMeterRate(t *testing.T) {
	m := NewMeter(time.Second)
	t0 := time.Unix(2000, 0)
	m.MarkAt(t0, 10)
	// Mid-first-interval reading: 10 events over 0.5s -> ~20/s.
	r := m.RateAt(t0.Add(500 * time.Millisecond))
	if r < 15 || r > 25 {
		t.Fatalf("unprimed rate = %v, want ~20", r)
	}
	// Complete the interval, start the next: blended rate around 10/s.
	m.MarkAt(t0.Add(1100*time.Millisecond), 1)
	r = m.RateAt(t0.Add(1500 * time.Millisecond))
	if r < 4 || r > 12 {
		t.Fatalf("primed rate = %v, want ~6", r)
	}
	// After a long silence the rate decays to ~0.
	r = m.RateAt(t0.Add(time.Minute))
	if r != 0 {
		t.Fatalf("idle rate = %v, want 0", r)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "", nil)
	g := r.Gauge("cg", "", nil)
	h := r.Histogram("ch", "", nil, []float64{1, 10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 20))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}
