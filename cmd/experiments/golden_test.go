package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/<experiment>.golden from the running experiments")

// goldenExperiments are the experiments whose output is byte-deterministic
// for the default seed.  fig10-*, imageseg, dynamic and structural print
// measured timing columns and stay out.
var goldenExperiments = []string{"fig5", "fig15", "variation", "cluster", "decompose"}

// TestExperimentGolden pins the full output of every deterministic
// experiment against testdata/<experiment>.golden, so a change anywhere in
// the solver stack that moves a printed digit fails here.  Regenerate with
// go test ./cmd/experiments/ -run TestExperimentGolden -update-golden
// only when an experiment's output changes on purpose.
func TestExperimentGolden(t *testing.T) {
	for _, name := range goldenExperiments {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			if err := run([]string{"-run", name}, &got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
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
					t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, g, w)
				}
			}
		})
	}
}
