package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"analogflow/internal/solve"
)

// docBackendRe matches a backtick-quoted backend name in a table cell.
var docBackendRe = regexp.MustCompile("`([a-z-]+)`")

// docExactValueRows reads docs/api.md's per-backend exact_value table and
// returns the backends each row names, keyed by where the row says
// exact_value comes from: "certified", "own" (the backend's own value) or
// "reference" (the Dinic reference).
func docExactValueRows(t *testing.T) map[string][]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatal(err)
	}
	const header = "| backend | `exact_value` | `relative_error` |\n"
	_, table, ok := strings.Cut(string(doc), header)
	if !ok {
		t.Fatalf("docs/api.md has no table headed %q", header)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 3 {
			t.Fatalf("row %q has %d cells, want 3", line, len(cells))
		}
		if strings.Trim(cells[0], "- ") == "" {
			continue // the header rule
		}
		var kind string
		switch exact := strings.TrimSpace(cells[1]); {
		case strings.HasPrefix(exact, "`flow_value` itself, certified optimal"):
			kind = "certified"
		case strings.HasPrefix(exact, "its own value"):
			kind = "own"
		case strings.HasPrefix(exact, "the Dinic reference"):
			kind = "reference"
		default:
			t.Fatalf("row %q: unknown exact_value source", line)
		}
		if _, dup := rows[kind]; dup {
			t.Fatalf("two %s rows", kind)
		}
		for _, m := range docBackendRe.FindAllStringSubmatch(cells[0], -1) {
			rows[kind] = append(rows[kind], m[1])
		}
	}
	return rows
}

// TestDocsExactValueTable pins docs/api.md's per-backend exact_value table
// to the code: the table names every registered backend, each in one row,
// and on the Figure-5 instance the backends of the certified and own-value
// rows report exact_value equal to flow_value, while those of the reference
// row report Dinic's value.  CI runs it in the metrics-lint step.
func TestDocsExactValueTable(t *testing.T) {
	rows := docExactValueRows(t)
	var named []string
	for _, names := range rows {
		named = append(named, names...)
	}
	sort.Strings(named)
	if got, want := strings.Join(named, ","), strings.Join(solve.DefaultRegistry().Names(), ","); got != want {
		t.Errorf("the exact_value table names %s; the registry holds %s", got, want)
	}

	srv := newTestServer(t, 1)
	report := func(solver string) (flow, exact float64) {
		t.Helper()
		items, _ := postSolve(t, srv, fmt.Sprintf(`{"solver":%q,"problems":[%s]}`, solver, figure5Inline))
		rep, ok := items[0]["report"].(map[string]any)
		if !ok {
			t.Fatalf("%s: item %v", solver, items[0])
		}
		return rep["flow_value"].(float64), rep["exact_value"].(float64)
	}
	dinic, _ := report("dinic")
	for kind, names := range rows {
		for _, name := range names {
			flow, exact := report(name)
			if kind == "reference" && exact != dinic {
				t.Errorf("%s (reference row): exact_value %v, want Dinic's %v", name, exact, dinic)
			} else if kind != "reference" && exact != flow {
				t.Errorf("%s (%s row): exact_value %v, flow_value %v", name, kind, exact, flow)
			}
		}
	}
}
