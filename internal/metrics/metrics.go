// Package metrics is a small, stdlib-only instrumentation layer: counters,
// gauges, fixed-bucket histograms, a fixed-alpha EMA and a rate meter,
// collected in a Registry that can render itself in the Prometheus text
// exposition format (version 0.0.4).
//
// The package exists so that the solve service, the admission controller,
// and the HTTP plane all read and publish the *same* signals: the admission
// estimate and the /v1/metrics scrape are different views of one set of
// instruments rather than private copies.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an immutable-by-convention label set attached to one metric
// instance. Keys and values must satisfy the Prometheus charset rules
// (checked at registration).
type Labels map[string]string

// A Counter is a monotonically non-decreasing cumulative count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta, which must be non-negative: counters only go up.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: counter decrement")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe under concurrency).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// A Histogram counts observations into fixed, cumulative-on-render buckets.
// Bounds are the inclusive upper edges of the finite buckets; an implicit
// +Inf bucket catches the rest. Observe is lock-free.
type Histogram struct {
	bounds []float64      // ascending, finite
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float bits, CAS-accumulated
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the owning bucket, the same estimate Prometheus' histogram_quantile
// computes server-side. Samples in the +Inf bucket clamp to the largest
// finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// ExponentialBuckets returns n bucket bounds starting at start and growing
// by factor, for Histogram construction.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// kind discriminates what a family holds for TYPE lines and mismatch checks.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance inside a family.
type series struct {
	labels Labels
	key    string // canonical render of labels, for dedup and stable ordering
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	order  int
	series []*series
}

// Registry holds metric families and renders them as Prometheus text.
// Registration is idempotent: asking for the same name+labels again returns
// the existing instrument, so packages can Describe their metrics at use
// sites without coordinating initialization order.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	n        int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, k kind) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, order: r.n}
		r.n++
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
	}
	return f
}

func (f *family) find(key string) *series {
	for _, s := range f.series {
		if s.key == key {
			return s
		}
	}
	return nil
}

func (f *family) add(labels Labels, key string) *series {
	s := &series{labels: labels, key: key}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	return s
}

// Counter registers (or retrieves) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	key := labelKey(labels)
	if s := f.find(key); s != nil {
		return s.c
	}
	s := f.add(copyLabels(labels), key)
	s.c = &Counter{}
	return s.c
}

// Gauge registers (or retrieves) a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	key := labelKey(labels)
	if s := f.find(key); s != nil {
		return s.g
	}
	s := f.add(copyLabels(labels), key)
	s.g = &Gauge{}
	return s.g
}

// GaugeFunc registers a gauge whose value is sampled from fn at render
// time — for values that already live elsewhere (an atomic in-flight count,
// a queue length under a lock). Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGaugeFunc)
	key := labelKey(labels)
	s := f.find(key)
	if s == nil {
		s = f.add(copyLabels(labels), key)
	}
	s.gf = fn
}

// Histogram registers (or retrieves) a histogram series with the given
// finite bucket bounds.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	key := labelKey(labels)
	if s := f.find(key); s != nil {
		return s.h
	}
	s := f.add(copyLabels(labels), key)
	s.h = newHistogram(bounds)
	return s.h
}

// Value reads one counter, gauge or gauge-function series without
// registering anything.  ok is false for an unknown series and for
// histograms.
func (r *Registry) Value(name string, labels Labels) (v float64, ok bool) {
	key := labelKey(labels)
	var s series
	r.mu.Lock()
	if f := r.families[name]; f != nil {
		if found := f.find(key); found != nil {
			s, ok = *found, true
		}
	}
	r.mu.Unlock()
	switch {
	case !ok:
		return 0, false
	case s.c != nil:
		return float64(s.c.Value()), true
	case s.g != nil:
		return s.g.Value(), true
	case s.gf != nil:
		return s.gf(), true
	}
	return 0, false
}

// TextContentType is the Content-Type for WriteText output.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every family in registration order in the Prometheus
// text exposition format (version 0.0.4).  The families' series, gauge
// functions included, are copied under the lock and rendered outside it, so
// a registration running meanwhile (which appends to and re-sorts a
// family's series, or replaces a gauge function) never races the render.
func (r *Registry) WriteText(sb *strings.Builder) {
	type snapshot struct {
		f      *family
		series []series
	}
	r.mu.Lock()
	fams := make([]snapshot, 0, len(r.families))
	for _, f := range r.families {
		snap := snapshot{f: f, series: make([]series, len(f.series))}
		for i, s := range f.series {
			snap.series[i] = *s
		}
		fams = append(fams, snap)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].f.order < fams[j].f.order })

	for _, snap := range fams {
		f := snap.f
		if f.help != "" {
			fmt.Fprintf(sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.kind)
		for i := range snap.series {
			s := &snap.series[i]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(sb, "%s%s %d\n", f.name, s.key, s.c.Value())
			case kindGauge:
				fmt.Fprintf(sb, "%s%s %s\n", f.name, s.key, formatFloat(s.g.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(sb, "%s%s %s\n", f.name, s.key, formatFloat(s.gf()))
			case kindHistogram:
				writeHistogram(sb, f.name, s)
			}
		}
	}
}

// Render returns the full exposition as a string.
func (r *Registry) Render() string {
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}

func writeHistogram(sb *strings.Builder, name string, s *series) {
	var cum int64
	for i, b := range s.h.bounds {
		cum += s.h.counts[i].Load()
		fmt.Fprintf(sb, "%s_bucket%s %d\n", name, bucketKey(s.labels, formatFloat(b)), cum)
	}
	cum += s.h.counts[len(s.h.bounds)].Load()
	fmt.Fprintf(sb, "%s_bucket%s %d\n", name, bucketKey(s.labels, "+Inf"), cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, s.key, formatFloat(s.h.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, s.key, s.h.Count())
}

// labelKey renders labels as a canonical `{k="v",...}` fragment (sorted by
// key), or "" for the empty set. Validates names and escapes values.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !validLabelName(k) {
			panic(fmt.Sprintf("metrics: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, escapeLabelValue(labels[k]))
	}
	sb.WriteByte('}')
	return sb.String()
}

// bucketKey is labelKey plus the le label histograms need.
func bucketKey(labels Labels, le string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%q,", k, escapeLabelValue(labels[k]))
	}
	fmt.Fprintf(&sb, "le=%q}", le)
	return sb.String()
}

func copyLabels(labels Labels) Labels {
	if len(labels) == 0 {
		return nil
	}
	out := make(Labels, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabelValue handles the text-format escapes (the %q in labelKey adds
// quote and backslash escaping compatible with the exposition format, so
// only raw newlines need pre-normalization; %q renders them as \n already).
// Kept as an explicit hook for clarity at call sites.
func escapeLabelValue(s string) string { return s }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trippable decimal, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
