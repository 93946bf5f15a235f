package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// checkFloat requires AppendFloat to write json.Marshal's bytes for f, or to
// fail with the same error text and leave the buffer untouched.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	prefix := []byte("x:")
	got, gotErr := AppendFloat(append([]byte(nil), prefix...), f)
	want, wantErr := json.Marshal(f)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%v (bits %#x): error %v, encoding/json %v", f, math.Float64bits(f), gotErr, wantErr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("%v: failed append changed the buffer to %q", f, got)
		}
	case !bytes.Equal(got[len(prefix):], want):
		t.Fatalf("%v (bits %#x): wrote %s, encoding/json %s", f, math.Float64bits(f), got[len(prefix):], want)
	}
}

// TestAppendFloatMatchesEncodingJSON covers the format boundaries (1e-6 and
// 1e21 from both sides), the integer fast path around 2^53, signed zeros,
// subnormals, the extremes, non-finite values, and random bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2.5, 1e-7, 1.5e-7, 1e-6, 1e20, 1e21, 1e22, 123456789,
		1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 1 << 62, 1 << 63, 1 << 64, 1e300,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.NaN(), math.Inf(1), math.Inf(-1), 1.0 / 3, 2.0 / 3, 0.1, 0.2, 0.30000000000000004,
	}
	for _, f := range edges {
		for _, g := range []float64{f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)), -f} {
			checkFloat(t, g)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		checkFloat(t, math.Float64frombits(rng.Uint64()))
		checkFloat(t, float64(rng.Int63n(1<<54)-1<<53)/float64(int64(1)<<rng.Intn(8)))
	}
}

// TestAppendStringMatchesEncodingJSON checks every single byte, both UTF-8
// line separators, invalid UTF-8 and mixed strings.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "dinic", "push-relabel", "2026-10-17T16:00:18Z", "<>&", `a"b\c`, "  ",
		"\xff\xfe", "café", "tab\there", "solve: unknown solver: \"x\" (known: [a b])", "\x7f", "😀", "\u2028", "a\u2029b"}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "ab"+string([]byte{byte(c)})+"cd")
	}
	for _, s := range cases {
		got := AppendString([]byte("x:"), s)
		want, _ := json.Marshal(s)
		if !bytes.Equal(got[2:], want) {
			t.Errorf("%q: wrote %s, encoding/json %s", s, got[2:], want)
		}
	}
}
