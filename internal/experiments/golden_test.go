package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden checksums instead of checking them:
//
//	go test ./internal/experiments -run TestGoldenOutput -update
var update = flag.Bool("update", false, "rewrite the golden output checksums under testdata/golden")

// goldenExperiments print byte-identical quick output across refactors
// of the engines beneath them: every experiment of
// `vodbench -exp all -quick`, in its order. Each checksum file holds the
// sha256 of `vodbench -exp <name> -quick` (seed 1), so a checksum can
// also be checked by hand:
//
//	go run ./cmd/vodbench -exp gray -quick | sha256sum
//
// The one exception is scale, whose renderer zeroes the wall-clock
// column (see renderers), so its checksum covers only the simulated
// statistics and differs from the CLI's.
var goldenExperiments = []string{
	"fig7a", "fig7b", "fig7c", "fig7d", "fig8", "ex1", "fig9", "ex2", "sens",
	"piggyback", "e2e", "faults", "cluster", "churn", "gray", "scale", "verify",
}

func TestGoldenOutput(t *testing.T) {
	for _, name := range goldenExperiments {
		t.Run(name, func(t *testing.T) {
			var run func(Options, io.Writer) error
			for _, r := range renderers {
				if r.name == name {
					run = r.run
				}
			}
			if run == nil {
				t.Fatalf("no renderer for %q", name)
			}
			var out bytes.Buffer
			if err := run(Options{Quick: true, Seed: 1}, &out); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes()))
			path := filepath.Join("testdata", "golden", name+".sha256")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if w := strings.TrimSpace(string(want)); got != w {
				t.Errorf("-exp %s -quick output checksum %s, golden %s; if the change is intended, rerun with -update\n%s",
					name, got, w, out.String())
			}
		})
	}
}
