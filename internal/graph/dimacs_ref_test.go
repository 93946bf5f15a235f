package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// referenceReadDIMACS is the line-scanner DIMACS reader ReadDIMACS replaced,
// kept as the reference the one-pass reader must match: the same graph
// (edge order, capacity bits, adjacency order, terminals) or the same error
// text on every input.
func referenceReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	var (
		g       *Graph
		n, m    int
		source  = -1
		sink    = -1
		arcs    [][3]float64
		gotProb bool
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "c":
			continue
		case "p":
			if len(fields) != 4 || fields[1] != "max" {
				return nil, fmt.Errorf("dimacs line %d: malformed problem line %q", lineNo, line)
			}
			var err1, err2 error
			n, err1 = strconv.Atoi(fields[2])
			m, err2 = strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || n < 2 || m < 0 {
				return nil, fmt.Errorf("dimacs line %d: bad problem sizes %q", lineNo, line)
			}
			gotProb = true
		case "n":
			if len(fields) != 3 {
				return nil, fmt.Errorf("dimacs line %d: malformed node descriptor %q", lineNo, line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("dimacs line %d: bad vertex id %q", lineNo, fields[1])
			}
			switch fields[2] {
			case "s":
				if source >= 0 {
					return nil, fmt.Errorf("dimacs line %d: duplicate source designator (already vertex %d)", lineNo, source+1)
				}
				source = v - 1
			case "t":
				if sink >= 0 {
					return nil, fmt.Errorf("dimacs line %d: duplicate sink designator (already vertex %d)", lineNo, sink+1)
				}
				sink = v - 1
			default:
				return nil, fmt.Errorf("dimacs line %d: unknown node designator %q", lineNo, fields[2])
			}
		case "a":
			if len(fields) != 4 {
				return nil, fmt.Errorf("dimacs line %d: malformed arc %q", lineNo, line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			c, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("dimacs line %d: bad arc fields %q", lineNo, line)
			}
			arcs = append(arcs, [3]float64{float64(u - 1), float64(v - 1), c})
		default:
			return nil, fmt.Errorf("dimacs line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !gotProb {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	if source < 0 || sink < 0 {
		return nil, fmt.Errorf("dimacs: missing source or sink designator")
	}
	var err error
	g, err = New(n, source, sink)
	if err != nil {
		return nil, err
	}
	for _, a := range arcs {
		if _, err := g.AddEdge(int(a[0]), int(a[1]), a[2]); err != nil {
			return nil, fmt.Errorf("dimacs: arc %v: %w", a, err)
		}
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("dimacs: problem line declares %d arcs, found %d", m, g.NumEdges())
	}
	return g, nil
}

// sameGraph reports the first difference between two graphs: vertex count,
// terminals, the edge list with capacity bits, and the order of every
// adjacency list.
func sameGraph(a, b *Graph) error {
	if a.NumVertices() != b.NumVertices() || a.Source() != b.Source() || a.Sink() != b.Sink() {
		return fmt.Errorf("shape %v vs %v", a, b)
	}
	if a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("%d edges vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := 0; i < a.NumEdges(); i++ {
		ea, eb := a.Edge(i), b.Edge(i)
		if ea.From != eb.From || ea.To != eb.To || math.Float64bits(ea.Capacity) != math.Float64bits(eb.Capacity) {
			return fmt.Errorf("edge %d: %+v vs %+v", i, ea, eb)
		}
		if a.ParkedEdge(i) != b.ParkedEdge(i) {
			return fmt.Errorf("edge %d parked %v vs %v", i, a.ParkedEdge(i), b.ParkedEdge(i))
		}
	}
	for v := 0; v < a.NumVertices(); v++ {
		if fmt.Sprint(a.OutEdges(v)) != fmt.Sprint(b.OutEdges(v)) || fmt.Sprint(a.InEdges(v)) != fmt.Sprint(b.InEdges(v)) {
			return fmt.Errorf("vertex %d adjacency out %v/%v in %v/%v", v, a.OutEdges(v), b.OutEdges(v), a.InEdges(v), b.InEdges(v))
		}
	}
	return nil
}

// maxDeclaredVertices is the largest vertex count any "p" line of text
// declares, read with strings.Fields and independently of the code under
// test; the differential checks skip texts that would allocate too much.
func maxDeclaredVertices(text string) int {
	most := 0
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "p" {
			if n, err := strconv.Atoi(f[2]); err == nil && n > most {
				most = n
			}
		}
	}
	return most
}

// checkAgainstReference requires ReadDIMACS to build the reference's graph or
// fail with the reference's error text on text, and DIMACSSize to report the
// size of every graph the reference builds.
func checkAgainstReference(t *testing.T, text string) {
	t.Helper()
	want, wantErr := referenceReadDIMACS(strings.NewReader(text))
	got, gotErr := ReadDIMACS(strings.NewReader(text))
	switch {
	case wantErr != nil && gotErr == nil:
		t.Fatalf("accepted text the reference rejects (%v): %q", wantErr, text)
	case wantErr == nil && gotErr != nil:
		t.Fatalf("rejected text the reference accepts: %v: %q", gotErr, text)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %q, reference %q, text %q", gotErr, wantErr, text)
		}
		return
	}
	if err := sameGraph(got, want); err != nil {
		t.Fatalf("graph differs from the reference: %v; text %q", err, text)
	}
	// The solve path trusts an accepted graph without re-validating it.
	if err := got.Validate(); err != nil {
		t.Fatalf("accepted an invalid graph: %v; text %q", err, text)
	}
	n, m, ok := DIMACSSize(text)
	if !ok || n != want.NumVertices() || m != want.NumEdges() {
		t.Fatalf("DIMACSSize = %d, %d, %v; built graph has %d vertices, %d edges", n, m, ok, want.NumVertices(), want.NumEdges())
	}
}

// FuzzReadDIMACS is the differential fuzzer of the reader against the
// reference; its seed corpus (testdata/fuzz/FuzzReadDIMACS) covers every
// white-space class, the numeric spellings strconv accepts, designator and
// range errors and lying problem lines, and runs in every go test.  Every
// graph the reader accepts must also pass Graph.Validate.
func FuzzReadDIMACS(f *testing.F) {
	f.Add("c analogflow max-flow instance\np max 4 3\nn 1 s\nn 4 t\na 1 2 2\na 2 3 1.5\na 3 4 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		if maxDeclaredVertices(text) > 1<<16 {
			t.Skip("declares more vertices than a fuzz run should allocate")
		}
		checkAgainstReference(t, text)
	})
}

// TestReadDIMACSMatchesReferenceOnRandomGraphs round-trips random multigraphs
// through WriteDIMACS, with every line decorated by random white space, and
// compares both readers.
func TestReadDIMACSMatchesReferenceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spaces := []string{" ", "\t", "\v", "\f", "\u0085", "\u00a0", "\u3000", "  "}
	space := func() string { return spaces[rng.Intn(len(spaces))] }
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		g := MustNew(n, 0, n-1)
		for e := rng.Intn(120); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.MustAddEdge(u, v, float64(rng.Intn(1000))/float64(1+rng.Intn(8)))
			}
		}
		var buf strings.Builder
		if err := WriteDIMACS(&buf, g); err != nil {
			t.Fatal(err)
		}
		var text strings.Builder
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			if rng.Intn(4) == 0 {
				line = strings.ReplaceAll(line, " ", space())
			}
			if rng.Intn(6) == 0 {
				line = space() + strings.Replace(line, "\n", "\r\n", 1)
			}
			text.WriteString(line)
		}
		checkAgainstReference(t, text.String())
	}
}

// TestReadDIMACSLineLimit pins the longest accepted line at the reference's
// scanner cap, terminated and unterminated.
func TestReadDIMACSLineLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 16 MiB lines")
	}
	head := "p max 2 1\nn 1 s\nn 2 t\n"
	for _, length := range []int{maxDIMACSLine - 1, maxDIMACSLine} {
		comment := "c" + strings.Repeat("x", length-1)
		for _, tail := range []string{"", "\n", "\na 1 2 1\n"} {
			checkAgainstReference(t, head+"a 1 2 1\n"+comment+tail)
			checkAgainstReference(t, head+comment+tail)
		}
	}
}
