package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden checksums instead of checking them:
//
//	go test ./internal/experiments -run TestGoldenOutput -update
var update = flag.Bool("update", false, "rewrite the golden output checksums under testdata/golden")

// Every experiment of `vodbench -exp all -quick` (All) prints
// byte-identical quick output across refactors of the engines beneath
// it. Each checksum file holds the sha256 of `vodbench -exp <name>
// -quick` (seed 1), so a checksum can also be checked by hand:
//
//	go run ./cmd/vodbench -exp gray -quick | sha256sum
//
// The one exception is scale, whose test run zeroes the wall-clock
// column (see render), so its checksum covers only the simulated
// statistics and differs from the CLI's.
func TestGoldenOutput(t *testing.T) {
	// A checksum without an experiment in All would go unchecked.
	if files, _ := filepath.Glob(filepath.Join("testdata", "golden", "*.sha256")); !*update && len(files) != len(All) {
		t.Fatalf("%d golden checksums for %d experiments", len(files), len(All))
	}
	for _, e := range All {
		name, run := e.Name, render(e)
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), Options{Quick: true, Seed: 1}, &out); err != nil {
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
