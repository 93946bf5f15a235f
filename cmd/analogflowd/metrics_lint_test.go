// Metrics-exposition lint: scrapes /v1/metrics from an httptest server and
// validates the Prometheus text format 0.0.4 contract — HELP/TYPE preambles,
// name and label charsets, parseable sample values, counter monotonicity
// across scrapes — plus the presence of the series the observability plane
// promises (per-backend latency EMA, warm-hit ratios, lane queue depths,
// worker gauges).  CI runs this test by name as the metrics-lint gate.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"analogflow/internal/metrics"
	"analogflow/internal/solve"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleRe splits a sample line into name, optional label block, value.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// scrapeMetrics fetches /v1/metrics and returns the body plus the parsed
// samples keyed by full series (name + label block).
func scrapeMetrics(t *testing.T, url string) (string, map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Errorf("metrics Content-Type %q, want %q", ct, metrics.TextContentType)
	}
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()

	samples := map[string]float64{}
	types := map[string]string{} // metric family name -> TYPE
	helped := map[string]bool{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("line %d: HELP without text: %q", i+1, line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			name, typ := parts[0], parts[1]
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: invalid metric name %q", i+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown TYPE %q", i+1, typ)
			}
			if !helped[name] {
				t.Errorf("line %d: TYPE for %s precedes its HELP", i+1, name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment form: %q", i+1, line)
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable sample: %q", i+1, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[family]; !ok {
				t.Errorf("line %d: sample %s has no TYPE preamble", i+1, name)
			}
		}
		for _, lm := range labelRe.FindAllStringSubmatch(labels, -1) {
			if !labelNameRe.MatchString(lm[1]) || strings.HasPrefix(lm[1], "__") {
				t.Errorf("line %d: invalid label name %q", i+1, lm[1])
			}
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			t.Errorf("line %d: unparseable value %q", i+1, value)
		}
		series := name + labels
		if _, dup := samples[series]; dup {
			t.Errorf("line %d: duplicate series %s", i+1, series)
		}
		samples[series] = v
	}
	return body, samples, types
}

// scrapeSeries scrapes /v1/metrics and returns one series, named with its
// label block; a missing series fails the test.
func scrapeSeries(t *testing.T, url, series string) float64 {
	t.Helper()
	_, samples, _ := scrapeMetrics(t, url)
	v, ok := samples[series]
	if !ok {
		t.Fatalf("/v1/metrics lacks %s", series)
	}
	return v
}

// queueDepth scrapes the admission queue's sheddable waiters: the priority
// and normal lanes (urgent waiters are never shed).
func queueDepth(t *testing.T, url string) float64 {
	t.Helper()
	_, samples, _ := scrapeMetrics(t, url)
	return samples[`analogflow_queue_depth{lane="priority"}`] + samples[`analogflow_queue_depth{lane="normal"}`]
}

// TestMetricsExpositionLint is the CI metrics-lint gate.
func TestMetricsExpositionLint(t *testing.T) {
	svc := solve.NewService(solve.Config{Workers: 2})
	srv := newServer(svc, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	// Move the counters: one batch solve and one session chain.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problems":[%s,%s]}`, figure5Inline, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)

	_, first, types := scrapeMetrics(t, ts.URL)

	// The promised observability series exist.
	for _, want := range []string{
		`analogflow_backend_latency_ema_milliseconds{backend="dinic"}`,
		`analogflow_requests_total`,
		`analogflow_completed_total`,
		`analogflow_warm_hit_ratio{cache="instance"}`,
		`analogflow_cache_bytes{cache="instance"}`,
		`analogflow_warm_hit_ratio{cache="oracle"}`,
		`analogflow_warm_hit_ratio{cache="consensus"}`,
		`analogflow_queue_depth{lane="urgent"}`,
		`analogflow_queue_depth{lane="priority"}`,
		`analogflow_queue_depth{lane="normal"}`,
		`analogflow_workers_effective`,
		`analogflow_workers_busy`,
		`analogflow_in_flight_solves`,
		`analogflow_throughput_rps`,
		`analogflow_sessions_live`,
		`analogflow_server_draining`,
		`analogflow_client_disconnects_total`,
		`analogflow_expired_sessions_total`,
		`analogflow_shed_requests_total`,
		`analogflow_solver_panics_total`,
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("promised series %s missing from exposition", want)
		}
	}
	// Histogram families carry bucket/sum/count triplets.
	if types["analogflow_request_duration_seconds"] != "histogram" {
		t.Errorf("analogflow_request_duration_seconds TYPE %q, want histogram", types["analogflow_request_duration_seconds"])
	}
	var haveBucket, haveInf bool
	for series := range first {
		if strings.HasPrefix(series, "analogflow_request_duration_seconds_bucket{") {
			haveBucket = true
			if strings.Contains(series, `le="+Inf"`) {
				haveInf = true
			}
		}
	}
	if !haveBucket || !haveInf {
		t.Errorf("request-duration histogram lacks buckets (+Inf bucket present: %v)", haveInf)
	}

	// Counters are monotone across scrapes, even with traffic in between.
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(fmt.Sprintf(`{"solver":"dinic","problems":[%s]}`, figure5Inline)))
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	_, second, _ := scrapeMetrics(t, ts.URL)
	for series, before := range first {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		isCounter := types[name] == "counter" || types[family] == "histogram"
		if !isCounter {
			continue
		}
		after, ok := second[series]
		if !ok {
			t.Errorf("counter series %s disappeared between scrapes", series)
			continue
		}
		if after < before {
			t.Errorf("counter series %s went backwards: %v -> %v", series, before, after)
		}
	}
	if second[`analogflow_requests_total`] <= first[`analogflow_requests_total`] {
		t.Errorf("requests_total did not advance across traffic: %v -> %v",
			first[`analogflow_requests_total`], second[`analogflow_requests_total`])
	}
}

func drainBody(resp *http.Response) {
	buf := make([]byte, 32<<10)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	resp.Body.Close()
}

// TestStatsEndpointShape pins the /v1/stats fleet aggregate to the metrics
// registry.  After one-shot dinic and behavioral batches, a flat session with
// a capacity and a structural step, and a budget-sharded session step, the
// body holds exactly the documented fields, and every scalar in it equals
// its /v1/metrics series: the workers, queue, cache and session gauges, and
// each backend's EMA, observation count and histogram quantiles.  The
// throughput meter decays while the endpoints are read, so its value must
// lie between the scrapes taken before and after the /v1/stats read.  CI
// runs this test in the metrics-lint step.
func TestStatsEndpointShape(t *testing.T) {
	srv := newTestServer(t, 2)
	for _, solver := range []string{"dinic", "behavioral"} {
		_, _ = postSolve(t, srv, fmt.Sprintf(`{"solver":%q,"problems":[%s,%s]}`, solver, figure5Inline, figure5Inline))
	}
	stream := func(path, body string) map[string]any {
		t.Helper()
		resp := postJSON(t, srv.URL+path, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		recs := decodeLines(t, resp.Body)
		for _, rec := range recs {
			if rec["error"] != nil {
				t.Fatalf("%s: record %v", path, rec)
			}
		}
		return recs[0]
	}
	flat := stream("/v1/sessions", fmt.Sprintf(`{"solver":"dinic","problem":%s}`, figure5Inline))
	stream("/v1/sessions/"+flat["session_id"].(string)+"/update",
		`{"steps":[[{"edge":1,"capacity":3}],{"remove_edges":[2]}]}`)
	sharded := stream("/v1/sessions", `{"solver":"dinic","problem":{"rmat":{"vertices":200,"sparse":true,"seed":3}},"budget":{"max_vertices":80}}`)
	stream("/v1/sessions/"+sharded["session_id"].(string)+"/update", `{"updates":[{"edge":5,"capacity":9}]}`)

	_, before, _ := scrapeMetrics(t, srv.URL)
	var out struct {
		Version  string                         `json:"version"`
		Uptime   float64                        `json:"uptime_seconds"`
		Draining bool                           `json:"draining"`
		Workers  statsWorkers                   `json:"workers"`
		Cache    statsCache                     `json:"cache"`
		Sessions statsSessions                  `json:"sessions"`
		Backends map[string]solve.BackendWindow `json:"backends"`
		RPS      float64                        `json:"throughput_rps"`
	}
	var body json.RawMessage
	getStats(t, srv.URL, &body)
	_, after, _ := scrapeMetrics(t, srv.URL)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "backends,cache,draining,sessions,throughput_rps,uptime_seconds,version,workers"; got != want {
		t.Errorf("/v1/stats fields %s, want %s", got, want)
	}
	if out.Version != serverVersion || out.Uptime <= 0 {
		t.Errorf("version %q, uptime %v; want %q and a positive uptime", out.Version, out.Uptime, serverVersion)
	}
	// The traffic above moved every block, so the agreement below is not
	// a comparison of zeros.
	if out.Workers.Total != 2 || out.Cache.Instances < 1 || out.Cache.Oracles != 1 ||
		out.Cache.InstanceHitRatio <= 0 || out.Sessions.Live != 2 || len(out.Backends) != 2 {
		t.Errorf("traffic did not register: workers %+v, cache %+v, sessions %+v, %d backends",
			out.Workers, out.Cache, out.Sessions, len(out.Backends))
	}

	scalars := map[string]float64{
		"analogflow_workers_effective":                float64(out.Workers.Total),
		"analogflow_workers_busy":                     float64(out.Workers.Busy),
		`analogflow_queue_depth{lane="urgent"}`:       float64(out.Workers.Queue.Urgent),
		`analogflow_queue_depth{lane="priority"}`:     float64(out.Workers.Queue.Priority),
		`analogflow_queue_depth{lane="normal"}`:       float64(out.Workers.Queue.Normal),
		"analogflow_cached_instances":                 float64(out.Cache.Instances),
		"analogflow_cached_oracles":                   float64(out.Cache.Oracles),
		`analogflow_warm_hit_ratio{cache="instance"}`: out.Cache.InstanceHitRatio,
		"analogflow_sessions_live":                    float64(out.Sessions.Live),
		"analogflow_expired_sessions_total":           float64(out.Sessions.Expired),
		"analogflow_client_disconnects_total":         float64(out.Sessions.ClientDisconnects),
		"analogflow_server_draining":                  map[bool]float64{false: 0, true: 1}[out.Draining],
	}
	for name, w := range out.Backends {
		label := fmt.Sprintf(`{backend=%q}`, name)
		scalars["analogflow_backend_latency_ema_milliseconds"+label] = w.EMAms
		scalars["analogflow_request_duration_seconds_count"+label] = float64(w.Observations)
		for q, got := range map[float64]float64{0.5: w.P50ms, 0.99: w.P99ms} {
			if want := 1000 * scrapedQuantile(t, before, "analogflow_request_duration_seconds", name, q); got != want {
				t.Errorf("backends.%s: q%v %v ms, histogram series give %v ms", name, q, got, want)
			}
		}
	}
	for series, got := range scalars {
		want, ok := before[series]
		if !ok {
			t.Errorf("/v1/metrics lacks %s", series)
		} else if got != want || after[series] != want {
			t.Errorf("/v1/stats reads %v for %s; /v1/metrics reads %v before and %v after", got, series, want, after[series])
		}
	}
	if rps, hi, lo := out.RPS, before["analogflow_throughput_rps"], after["analogflow_throughput_rps"]; rps > hi || rps < lo || rps <= 0 {
		t.Errorf("throughput_rps %v outside the scrapes' [%v, %v]", rps, lo, hi)
	}
	if out.Workers.Free != out.Workers.Total-out.Workers.Busy {
		t.Errorf("worker block inconsistent: %+v", out.Workers)
	}
}

// scrapedQuantile is metrics.Histogram.Quantile computed from one backend's
// scraped histogram buckets, in the histogram's unit.
func scrapedQuantile(t *testing.T, samples map[string]float64, family, backend string, q float64) float64 {
	t.Helper()
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	prefix := fmt.Sprintf(`%s_bucket{backend=%q,le="`, family, backend)
	for series, cum := range samples {
		if rest, ok := strings.CutPrefix(series, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				t.Fatalf("bucket %s: %v", series, err)
			}
			buckets = append(buckets, bucket{le, cum})
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) < 2 || !math.IsInf(buckets[len(buckets)-1].le, 1) {
		t.Fatalf("%s{backend=%q} has no +Inf-terminated buckets", family, backend)
	}
	top := buckets[len(buckets)-2].le // the largest finite bound
	rank := q * buckets[len(buckets)-1].cum
	var cum float64
	for i, b := range buckets {
		n := b.cum - cum
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if math.IsInf(b.le, 1) {
				return top
			}
			lo := 0.0
			if i > 0 {
				lo = buckets[i-1].le
			}
			return lo + (b.le-lo)*math.Min(math.Max((rank-cum)/n, 0), 1)
		}
		cum += n
	}
	return top
}
