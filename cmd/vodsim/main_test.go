package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// runMain runs the command in-process with args on a fresh flag set and
// returns what it printed on stdout. A failing command exits the test
// binary.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout, argv, flags := os.Stdout, os.Args, flag.CommandLine
	os.Stdout, os.Args = w, append([]string{"vodsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("vodsim", flag.ExitOnError)
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, argv, flags }()
	main()
	w.Close()
	return <-out
}

// TestCommandOutputPinned pins the sha256 of stdout for command lines
// covering a literal fault schedule, a rand: schedule, -w sizing and
// the remaining flags at non-default values.
func TestCommandOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"literal faults", []string{"-l", "120", "-b", "60", "-n", "30", "-lambda", "0.5",
			"-horizon", "1500", "-warmup", "200", "-streams", "60", "-faults", "fail@400:d0,repair@800:d0"},
			"edb05d2f6e49f5054843849c09b7a3e678240485110fa7a8ae59b7353b3073cd"},
		{"random faults", []string{"-b", "60", "-n", "30", "-streams", "60",
			"-faults", "rand:7:2000:200:6", "-horizon", "1500", "-warmup", "200"},
			"90e8b028ba61eea6370bc32fdf9ba0c15cb5737b843080f83f58d9b4f8fece73"},
		{"wait sizing", []string{"-l", "120", "-w", "1", "-n", "60", "-dur", "gamma:2:4", "-piggyback",
			"-horizon", "1500", "-warmup", "200"},
			"5f0b86a824520026767ccbc600079450f0afa96cf8a3678d315fa7c58ca879bc"},
		{"every knob", []string{"-l", "100", "-b", "40", "-n", "20", "-lambda", "0.8",
			"-dur", "exp:3", "-think", "exp:10", "-pff", "0.3", "-prw", "0.1", "-ppau", "0.6",
			"-rff", "4", "-rrw", "2", "-horizon", "1200", "-warmup", "100", "-seed", "9",
			"-piggyback", "-slew", "0.1", "-maxdedicated", "20", "-replications", "3"},
			"fb90eda852f221fc0945757683751a9d71b35c9a142754bbf7c1c09e78fd956d"},
		{"hybrid engine", []string{"-b", "30", "-n", "30", "-lambda", "200", "-engine", "hybrid",
			"-fluid-threshold", "100", "-particle-rate", "5", "-horizon", "400", "-warmup", "40",
			"-compare=false"},
			"4946c1c180f456d8a5b53e066a07ed9f7efaff2ea5be1123724c7574f508c58d"},
		{"resumable", []string{"-b", "60", "-n", "30", "-horizon", "800", "-warmup", "80",
			"-resume", filepath.Join(dir, "run"), "-checkpoint-every", "1000"},
			"84aca170780e65559af91b314c31064c58f037c4b7e385f47e2c958e45051c06"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.Sum256(runMain(t, c.args...))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("stdout sha256 %s, want %s", got, c.want)
			}
		})
	}
}
