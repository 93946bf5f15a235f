package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"analogflow/internal/solve"
)

var updateStreamGolden = flag.Bool("update-stream-golden", false,
	"rewrite testdata/stream_golden.txt from the running handlers")

// streamVolatile matches the fields that differ run to run: the solver wall
// time and the session clock stamps.
var streamVolatile = regexp.MustCompile(`"(wall_time_ns":[0-9]+|last_used":"[^"]*"|expires_at":"[^"]*")`)

func normaliseStream(b []byte) []byte {
	return streamVolatile.ReplaceAllFunc(b, func(m []byte) []byte {
		key := append([]byte(nil), m[:bytes.IndexByte(m[1:], '"')+2]...)
		if bytes.HasPrefix(m, []byte(`"wall_time_ns"`)) {
			return append(key, ":0"...)
		}
		return append(key, `:"T"`...)
	})
}

// TestStreamGolden pins the response bytes of a fixed request set on a
// one-worker service: every stream record shape (item reports of the exact,
// analog, LP and sharded backends, plans, session step and done records,
// terminal records) must come out exactly as the recorded bodies, with only
// wall times and clock stamps normalised.  Regenerate with
// go test -run TestStreamGolden -update-stream-golden ./cmd/analogflowd/
// only when the wire format changes on purpose.
func TestStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a sharded instance and runs the behavioral model")
	}
	svc := solve.NewService(solve.Config{Workers: 1})
	srv := httptest.NewServer(newServer(svc, serverConfig{sessionTTL: time.Hour}).handler())
	defer srv.Close()

	var got bytes.Buffer
	post := func(name, path, body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "=== %s: POST %s -> %d %s\n", name, path, resp.StatusCode, resp.Header.Get("Content-Type"))
		got.Write(normaliseStream(b))
	}
	dimacs := `{"dimacs":"p max 4 3\nn 1 s\nn 4 t\na 1 2 2.5\na 2 3 2\na 3 4 1e-7\n"}`
	batch := fmt.Sprintf(`[%s,%s,{"rmat":{"vertices":32,"sparse":true,"seed":7}},{"rmat":{"vertices":24,"sparse":false,"seed":2}}]`,
		figure5Inline, dimacs)
	post("push-relabel grid", "/v1/solve",
		`{"solver":"push-relabel","problems":[{"grid":{"width":16,"height":16,"seed":3}}]}`)
	post("dinic batch", "/v1/solve", `{"solver":"dinic","problems":`+batch+`}`)
	post("behavioral batch", "/v1/solve",
		`{"solver":"behavioral","problems":`+batch+`,"params":{"levels":20,"gbw":1e10,"seed":1}}`)
	post("lp", "/v1/solve", fmt.Sprintf(`{"solver":"lp","problems":[%s,%s]}`, figure5Inline, dimacs))
	post("budget-sharded", "/v1/solve",
		`{"solver":"dinic","problems":[{"rmat":{"vertices":200,"sparse":true,"seed":9}}],"budget":{"max_vertices":80}}`)
	post("session create", "/v1/sessions",
		`{"solver":"dinic","problem":{"vertices":4,"source":0,"sink":3,"edges":[[0,1,3],[1,2,2],[1,2,2],[2,3,3]]}}`)
	post("session steps", "/v1/sessions/s1/update", `{"steps":[
		{"remove_edges":[2]},
		{"updates":[{"edge":3,"capacity":4}],"add_edges":[[1,2,2]]},
		[{"edge":0,"capacity":1.25}]]}`)

	path := filepath.Join("testdata", "stream_golden.txt")
	if *updateStreamGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s:\n got: %.400s\nwant: %.400s", i+1, path, g, w)
		}
	}
}
