package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file implements reading and writing of max-flow instances in the
// DIMACS max-flow format, the de-facto interchange format for network-flow
// benchmarks.  The format is line oriented:
//
//	c <comment>
//	p max <vertices> <edges>
//	n <vertex> s            (source, 1-based)
//	n <vertex> t            (sink, 1-based)
//	a <from> <to> <capacity>
//
// Vertices are 1-based in the file and 0-based in Graph.

// WriteDIMACS writes g to w in DIMACS max-flow format.
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c analogflow max-flow instance\n")
	fmt.Fprintf(bw, "p max %d %d\n", g.NumVertices(), g.NumEdges())
	fmt.Fprintf(bw, "n %d s\n", g.Source()+1)
	fmt.Fprintf(bw, "n %d t\n", g.Sink()+1)
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "a %d %d %g\n", e.From+1, e.To+1, e.Capacity)
	}
	return bw.Flush()
}

// maxDIMACSLine is the shortest line ReadDIMACS rejects with
// bufio.ErrTooLong: the 16 MiB token cap of the line scanner the format was
// first read with, kept so the accepted inputs did not change.
const maxDIMACSLine = 1 << 24

// minArcLine is the length of the shortest arc line, "a 1 2 3\n"; it bounds
// how many arcs a text can hold whatever its problem line declares.
const minArcLine = 8

var (
	errMalformedProblem = errors.New("malformed problem line")
	errBadSizes         = errors.New("bad problem sizes")
)

// ReadDIMACS parses a DIMACS max-flow instance from r.
//
// It reads r to the end and then scans the text once.  Fields are separated
// by Unicode white space, exactly as strings.Fields separates them; a read
// error is reported before any parse error.  The arcs are staged in one
// slice and the graph is built from it with FromEdges, so every line is
// parsed before any adjacency is allocated.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	var text strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		text.Grow(l.Len())
	}
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	return parseDIMACS(text.String())
}

// DIMACSSize returns the vertex and arc counts of the problem line
// ReadDIMACS would build from, the last one, without reading any arc.  ok is
// false when the text has no well-formed problem line; ReadDIMACS rejects
// such a text.  It lets a caller bound an instance's size before building it.
func DIMACSSize(text string) (n, m int, ok bool) {
	// Only a problem line starts with the field "p", and white space never
	// contains the byte 'p', so the first 'p' of a problem line is its first
	// field: scan from 'p' to 'p' and look at each candidate's line once.
	for pos := 0; ; {
		i := strings.IndexByte(text[pos:], 'p')
		if i < 0 {
			return n, m, ok
		}
		i += pos
		start := strings.LastIndexByte(text[:i], '\n') + 1
		end := strings.IndexByte(text[i:], '\n')
		if end < 0 {
			end = len(text)
		} else {
			end += i
		}
		pos = end
		f, nf := dimacsFields(text[start:end])
		if f[0] != "p" {
			continue
		}
		pn, pm, err := problemLine(f[:nf])
		if err != nil {
			return 0, 0, false
		}
		n, m, ok = pn, pm, true
	}
}

// parseDIMACS is ReadDIMACS over the whole text.
func parseDIMACS(text string) (*Graph, error) {
	var (
		n, m         int
		source, sink = -1, -1
		arcs         []Edge
		gotProb      bool
	)
	for lineNo, pos := 1, 0; pos < len(text); lineNo++ {
		line := text[pos:]
		if end := strings.IndexByte(line, '\n'); end >= 0 {
			line = line[:end]
			pos += end + 1
		} else {
			pos = len(text)
		}
		if len(line) >= maxDIMACSLine {
			return nil, bufio.ErrTooLong
		}
		f, nf := dimacsFields(line)
		switch f[0] {
		case "", "c":
			continue
		case "p":
			var err error
			if n, m, err = problemLine(f[:nf]); err != nil {
				return nil, fmt.Errorf("dimacs line %d: %v %q", lineNo, err, strings.TrimSpace(line))
			}
			gotProb = true
			if arcs == nil {
				arcs = make([]Edge, 0, min(m, (len(text)+1)/minArcLine))
			}
		case "n":
			if nf != 3 {
				return nil, fmt.Errorf("dimacs line %d: malformed node descriptor %q", lineNo, strings.TrimSpace(line))
			}
			v, err := atoi(f[1])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("dimacs line %d: bad vertex id %q", lineNo, f[1])
			}
			switch f[2] {
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
				return nil, fmt.Errorf("dimacs line %d: unknown node designator %q", lineNo, f[2])
			}
		case "a":
			if nf != 4 {
				return nil, fmt.Errorf("dimacs line %d: malformed arc %q", lineNo, strings.TrimSpace(line))
			}
			u, err1 := atoi(f[1])
			v, err2 := atoi(f[2])
			c, err3 := parseCapacity(f[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("dimacs line %d: bad arc fields %q", lineNo, strings.TrimSpace(line))
			}
			arcs = append(arcs, Edge{From: u - 1, To: v - 1, Capacity: c})
		default:
			return nil, fmt.Errorf("dimacs line %d: unknown record type %q", lineNo, f[0])
		}
	}
	if !gotProb {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	if source < 0 || sink < 0 {
		return nil, fmt.Errorf("dimacs: missing source or sink designator")
	}
	g, err := FromEdges(n, source, sink, arcs)
	if err != nil {
		var ee *EdgeError
		if errors.As(err, &ee) {
			a := arcs[ee.Index]
			return nil, fmt.Errorf("dimacs: arc %v: %w", [3]float64{float64(a.From), float64(a.To), a.Capacity}, ee.Err)
		}
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("dimacs: problem line declares %d arcs, found %d", m, g.NumEdges())
	}
	return g, nil
}

// problemLine parses the fields of a "p max <vertices> <arcs>" line; it is
// the one parser of problem lines, shared by the reader and DIMACSSize.
func problemLine(f []string) (n, m int, err error) {
	if len(f) != 4 || f[1] != "max" {
		return 0, 0, errMalformedProblem
	}
	n, err1 := atoi(f[2])
	m, err2 := atoi(f[3])
	if err1 != nil || err2 != nil || n < 2 || m < 0 {
		return 0, 0, errBadSizes
	}
	return n, m, nil
}

// dimacsFields returns the first five white-space-separated fields of line
// and how many of them there are (five meaning five or more); f[0] is "" for
// a blank line.
func dimacsFields(line string) (f [5]string, nf int) {
	for i := 0; nf < len(f); nf++ {
		if f[nf], i = nextField(line, i); f[nf] == "" {
			break
		}
	}
	return f, nf
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the first field of s at or after byte i and the index
// just past it, or "" when only white space remains.  Non-ASCII bytes are
// decoded rune by rune and tested with unicode.IsSpace, so invalid UTF-8 and
// multi-byte spaces (U+0085, U+00A0, ...) split as they do under
// strings.Fields.
func nextField(s string, i int) (string, int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if w, space := decodeSpace(s[i:]); space {
			i += w
		} else {
			break
		}
	}
	start := i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else if w, space := decodeSpace(s[i:]); !space {
			i += w
		} else {
			break
		}
	}
	return s[start:i], i
}

// decodeSpace decodes the rune s starts with and reports its width and
// whether it is white space.
func decodeSpace(s string) (width int, space bool) {
	r, w := utf8.DecodeRuneInString(s)
	return w, unicode.IsSpace(r)
}

// atoi is strconv.Atoi with an inline path for short digit-only fields,
// which is every vertex id of a real instance.
func atoi(s string) (int, error) {
	if len(s) == 0 || len(s) > 9 {
		return strconv.Atoi(s)
	}
	v := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return strconv.Atoi(s)
		}
		v = v*10 + int(d)
	}
	return v, nil
}

// parseCapacity is strconv.ParseFloat(s, 64) with an inline path for
// digit-only fields of at most 15 digits, whose value float64 holds exactly.
func parseCapacity(s string) (float64, error) {
	if len(s) == 0 || len(s) > 15 {
		return strconv.ParseFloat(s, 64)
	}
	var v int64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return strconv.ParseFloat(s, 64)
		}
		v = v*10 + int64(d)
	}
	return float64(v), nil
}
