package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"analogflow/internal/graph"
	"analogflow/internal/solve"
)

// recordStrings are the strings random records draw from: plain ASCII, the
// HTML-escaped characters, quotes and backslashes, control bytes, the UTF-8
// line separators encoding/json escapes, and invalid UTF-8.
var recordStrings = []string{"", "dinic", "push-relabel", "bfs", "cluster", "2026-10-17T16:00:18Z",
	"<script>&amp;</script>", `step 2 failed: "x" \ y`, "tab\tnew\nline\r\x00\x1f", "\u2028\u2029",
	"\xff\xfe\xc3", "café ☕", "\x7f"}

// recordFloats are the float64 values random records draw from: both zeros,
// both sides of the 1e-6 and 1e21 format switches, integers around 2^53,
// subnormals, the extremes and the non-finite values.
var recordFloats = []float64{0, math.Copysign(0, -1), 1, -3, 0.5, 41.654975647010886, 1e-7, 9.99999e-7,
	1e-6, 1.0000001e-6, 9.99999e20, 1e21, 1.5e21, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e300, math.MaxFloat64,
	-math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 2.2250738585072e-308,
	math.NaN(), math.Inf(1), math.Inf(-1)}

// randFloat draws a special value half the time and a random bit pattern
// (nearly always finite) otherwise.  Non-finite values are rare enough that
// most records still encode.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return recordFloats[rng.Intn(len(recordFloats)-3)]
	case 1:
		if rng.Intn(20) == 0 {
			return recordFloats[len(recordFloats)-1-rng.Intn(3)]
		}
		return 0
	case 2, 3:
		return float64(rng.Intn(2000)-1000) / float64(int(1)<<rng.Intn(4))
	case 4:
		return 0
	}
	f := math.Float64frombits(rng.Uint64())
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 1
	}
	return f
}

// randFill sets every field of the struct v points to by reflection, so a
// field added to Report or Plan later is covered without touching this test;
// a field of a kind it does not know fails the test.
func randFill(t testing.TB, rng *rand.Rand, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if rng.Intn(4) == 0 {
			continue // leave the zero value, so omitempty is exercised
		}
		switch {
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			f.SetInt(rng.Int63() >> rng.Intn(63))
		case f.Kind() == reflect.String:
			f.SetString(recordStrings[rng.Intn(len(recordStrings))])
		case f.Kind() == reflect.Float64:
			f.SetFloat(randFloat(rng))
		case f.Kind() == reflect.Int:
			f.SetInt(int64(rng.Intn(2001) - 1000))
		case f.Kind() == reflect.Bool:
			f.SetBool(rng.Intn(2) == 0)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Float64:
			s := reflect.MakeSlice(f.Type(), rng.Intn(20), 20)
			for j := 0; j < s.Len(); j++ {
				s.Index(j).SetFloat(randFloat(rng))
			}
			f.Set(s)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Int:
			s := reflect.MakeSlice(f.Type(), rng.Intn(6), 6)
			for j := 0; j < s.Len(); j++ {
				s.Index(j).SetInt(int64(rng.Intn(500)))
			}
			f.Set(s)
		case f.Kind() == reflect.Pointer && f.Type().Elem().Kind() == reflect.Struct:
			p := reflect.New(f.Type().Elem())
			randFill(t, rng, p.Elem())
			f.Set(p)
		default:
			t.Fatalf("randFill: field %s of kind %s has no generator", v.Type().Field(i).Name, f.Type())
		}
	}
}

func randReport(t testing.TB, rng *rand.Rand) *solve.Report {
	rep := new(solve.Report)
	randFill(t, rng, reflect.ValueOf(rep).Elem())
	return rep
}

// legacyStepMap and legacyDoneMap build the maps the session stream encoded
// before stepRecord and doneRecord replaced them: the reference bytes.
func legacyStepMap(rec stepRecord) map[string]any {
	m := map[string]any{"index": rec.index, "warm": rec.warm, "report": rec.report}
	if rec.structural {
		m["structural"] = true
		m["slack_remaining"] = rec.slackRemaining
	}
	return m
}

func legacyDoneMap(rec doneRecord) map[string]any {
	m := map[string]any{"done": true, "count": rec.count, "session_updates": rec.sessionUpdates, "last_used": rec.lastUsed}
	if rec.expiresAt != "" {
		m["expires_at"] = rec.expiresAt
	}
	return m
}

// sameAsEncodingJSON requires an appender's output (written after prefix)
// to be json.Encoder's line for ref, or both sides to fail with the same
// error text and the buffer to come back as it was.
func sameAsEncodingJSON(t testing.TB, what string, ref any, prefix, got []byte, gotErr error) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(ref)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, encoding/json %v", what, gotErr, wantErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("%s: failed append changed the buffer", what)
		}
	case !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()):
		t.Fatalf("%s:\n wrote %.600q\n  json %.600q", what, got[len(prefix):], want.Bytes())
	}
}

// checkRecords runs every appender on records built around rep and compares
// each with encoding/json: the report itself, a solve item, a session step
// and a done record.
func checkRecords(t testing.TB, rep *solve.Report, s string, n, m int) {
	prefix := []byte(`{"earlier":"record"}` + "\n")
	buf := append([]byte(nil), prefix...)

	got, err := rep.AppendJSON(buf)
	if err == nil {
		got = append(got, '\n') // json.Encoder's line end
	}
	sameAsEncodingJSON(t, "report", rep, prefix, got, err)

	item := streamItem{Index: n, Report: rep, Error: s, Code: s, Done: m%2 == 0, Count: m,
		Aborted: m%3 == 0, Draining: m%5 == 0, RetryAfterSeconds: n % 7}
	if m%4 == 0 {
		item.Report = nil
	}
	got, err = item.appendJSON(buf[:len(prefix)])
	sameAsEncodingJSON(t, "stream item", item, prefix, got, err)

	step := stepRecord{index: n, report: rep, warm: m%2 == 0, structural: m%3 != 0, slackRemaining: m}
	if m%7 == 0 {
		step.report = nil
	}
	got, err = step.appendJSON(buf[:len(prefix)])
	sameAsEncodingJSON(t, "step record", legacyStepMap(step), prefix, got, err)

	done := doneRecord{count: n, sessionUpdates: m, lastUsed: s}
	if m%2 == 0 {
		done.expiresAt = s + "Z"
	}
	sameAsEncodingJSON(t, "done record", legacyDoneMap(done), prefix, done.appendJSON(buf[:len(prefix)]), nil)
}

// TestRecordsMatchEncodingJSON is the writer's differential test: random
// reports (every field filled by reflection, plans included) inside every
// record type must encode to encoding/json's exact bytes, and a report with
// a NaN or ±Inf number must fail on both sides.
func TestRecordsMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	failed := 0
	for i := 0; i < 20000; i++ {
		rep := randReport(t, rng)
		if _, err := json.Marshal(rep); err != nil {
			failed++
		}
		checkRecords(t, rep, recordStrings[rng.Intn(len(recordStrings))], rng.Intn(3000)-1000, rng.Intn(3000)-1000)
	}
	// Both outcomes must be exercised in earnest.
	if failed < 200 || failed > 10000 {
		t.Fatalf("%d of 20000 random reports failed to encode; the generator is off balance", failed)
	}
}

// FuzzRecordJSON builds a report and the records around it from a float's
// bits, a string and two small ints, and requires encoding/json's bytes (or
// an error on both sides).
func FuzzRecordJSON(f *testing.F) {
	f.Add(uint64(0), "dinic", 0, 1)
	f.Add(math.Float64bits(1e-7), "<b>&", -3, 12)
	f.Add(math.Float64bits(math.Inf(1)), "push-relabel", 5, 0)
	f.Fuzz(func(t *testing.T, bits uint64, s string, n, m int) {
		x := math.Float64frombits(bits)
		rep := &solve.Report{Solver: s, FlowValue: x, ExactValue: math.Abs(x), RelativeError: x / 3,
			EdgeFlows: []float64{x, -x, x / 7, float64(n), 0, math.Copysign(0, -1)},
			Waves:     n, PrunedVertices: m, Iterations: n - m, Converged: n > m, WallTime: time.Duration(bits >> 1)}
		if n%3 == 0 {
			rep.ConvergenceTime, rep.ProgrammingTime, rep.SubstratePower, rep.Energy = x*1e-9, x, x*x, 1/x
		}
		if m%5 == 0 {
			rep.Plan = &solve.Plan{Sharded: true, Vertices: n, Regions: m, Partitioner: s, RegionVertices: []int{n, m}}
		}
		checkRecords(t, rep, s, n, m)
	})
}

// gridReport solves the grid-oneshot instance (a 128² segmentation grid,
// push-relabel) and returns its report.
func gridReport(tb testing.TB) *solve.Report {
	g, err := graph.SegmentationGrid(128, 128, false, 3)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := solve.NewProblem(g)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := solve.DefaultRegistry().Solve(context.Background(), "push-relabel", p)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// TestGridRecordMatchesEncodingJSON checks the record grid-oneshot streams.
func TestGridRecordMatchesEncodingJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a 128² grid")
	}
	item := streamItem{Report: gridReport(t)}
	got, err := item.appendJSON(nil)
	sameAsEncodingJSON(t, "grid record", item, nil, got, err)
}

// BenchmarkRecordJSON encodes the grid-oneshot record (a 128² grid report:
// 81,408 flows, 94% of them zero) with the writer and with encoding/json.
func BenchmarkRecordJSON(b *testing.B) {
	item := streamItem{Report: gridReport(b)}
	b.Run("writer", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for b.Loop() {
			var err error
			if buf, err = item.appendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		b.ReportAllocs()
		for b.Loop() {
			if err := enc.Encode(item); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestConcurrentStreamsShareRecordBuffers runs streams in parallel so the
// pooled record buffers pass between handlers (run it under -race): every
// body must equal the one a lone request gets.
func TestConcurrentStreamsShareRecordBuffers(t *testing.T) {
	srv := newTestServer(t, 2)
	bodies := []string{
		`{"solver":"push-relabel","problems":[{"grid":{"width":16,"height":16,"seed":3}},{"grid":{"width":9,"height":7,"eight":true,"seed":1}}]}`,
		`{"solver":"dinic","problems":[` + figure5Inline + `,{"rmat":{"vertices":32,"sparse":true,"seed":7}}]}`,
	}
	// Items stream in completion order, so compare the sorted lines.
	read := func(body string) (string, error) {
		resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		lines := strings.Split(string(normaliseStream(b)), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n"), err
	}
	want := make([]string, len(bodies))
	for i, body := range bodies {
		var err error
		if want[i], err = read(body); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				k := (g + i) % len(bodies)
				got, err := read(bodies[k])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[k] {
					t.Errorf("request %d streamed different records under concurrency", k)
					return
				}
			}
		}()
	}
	wg.Wait()
}
