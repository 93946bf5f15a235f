// Package jsonenc appends the two JSON primitives analogflow's hand-written
// record writers need — float64 numbers and strings — exactly as
// encoding/json writes them, without reflection.  solve.Report.AppendJSON and
// the analogflowd stream records build on it, so every NDJSON line carries
// the bytes json.Marshal would have produced.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json encodes a float64 (Go 1.24's
// floatEncoder): the shortest 'f' form for ±0 and for 1e-6 ≤ |f| < 1e21, the
// shortest 'e' form otherwise with a negative two-digit exponent's leading
// zero dropped (1e-07 → 1e-7).  +0 and integral |f| < 2^53 take exact fast
// paths to the same bytes.  NaN and ±Inf fail with the
// *json.UnsupportedValueError json.Marshal returns for them, and b comes back
// unchanged.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if f == 0 {
		if math.Signbit(f) {
			return append(b, '-', '0'), nil
		}
		return append(b, '0'), nil
	}
	abs := math.Abs(f)
	if abs < 1<<53 {
		if i := int64(f); float64(i) == f {
			return strconv.AppendInt(b, i, 10), nil
		}
	}
	if abs > math.MaxFloat64 || f != f {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// AppendString appends s quoted as json.Marshal quotes it, HTML escaping
// included.  A string of bytes encoding/json copies verbatim (printable ASCII
// other than `"`, `\`, `<`, `>` and `&`) is quoted directly; anything else
// goes through json.Marshal, which is identical by construction.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
