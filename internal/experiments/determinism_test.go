package experiments

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// The experiment sweeps fan out over a worker pool with order-preserving
// result assembly, so the rendered figures must be byte-identical at any
// worker count. These tests pin that property for every experiment of
// the quick sweep: a drift here means a sweep is assembling results in
// completion order, sharing mutable state across workers, or seeding
// simulations nondeterministically.

// renderers runs each experiment of `vodbench -exp all -quick`, in its
// order, and prints it: the exact path cmd/vodbench takes.
var renderers = []struct {
	name string
	run  func(o Options, w io.Writer) error
}{
	{"fig7a", fig7Renderer(Fig7FF)},
	{"fig7b", fig7Renderer(Fig7RW)},
	{"fig7c", fig7Renderer(Fig7PAU)},
	{"fig7d", fig7Renderer(Fig7Mixed)},
	{"fig8", render(Fig8, PrintFig8)},
	{"ex1", render(Example1, PrintExample1)},
	{"fig9", render(Fig9, PrintFig9)},
	{"ex2", render(Example2, PrintExample2)},
	{"sens", render(Sensitivity, PrintSensitivity)},
	{"piggyback", render(Piggyback, PrintPiggyback)},
	{"e2e", render(EndToEnd, PrintEndToEnd)},
	{"faults", render(Faults, PrintFaults)},
	{"cluster", render(Cluster, PrintCluster)},
	{"churn", render(Churn, PrintChurn)},
	{"gray", render(Gray, PrintGray)},
	{"scale", render(func(o Options) ([]ScaleRow, error) {
		r, err := Scale(o)
		// Wall-clock columns measure the host, not the simulation; zero
		// them so the determinism check covers the simulated statistics.
		for i := range r {
			r[i].Wall = 0
		}
		return r, err
	}, PrintScale)},
	{"verify", render(VerifyTable, PrintVerifyTable)},
}

// render pairs an experiment with its printer.
func render[T any](run func(Options) (T, error), print func(io.Writer, T)) func(Options, io.Writer) error {
	return func(o Options, w io.Writer) error {
		r, err := run(o)
		if err != nil {
			return err
		}
		print(w, r)
		return nil
	}
}

func fig7Renderer(v Fig7Variant) func(Options, io.Writer) error {
	return render(func(o Options) ([]Fig7Series, error) { return Fig7(v, o) },
		func(w io.Writer, s []Fig7Series) { PrintFig7(w, v, s) })
}

func TestParallelOutputMatchesSequential(t *testing.T) {
	wide := runtime.NumCPU()
	if wide < 4 {
		wide = 4
	}
	for _, r := range renderers {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			var seq, par bytes.Buffer
			if err := r.run(Options{Quick: true, Seed: 5, Workers: 1}, &seq); err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			if err := r.run(Options{Quick: true, Seed: 5, Workers: wide}, &par); err != nil {
				t.Fatalf("parallel run (workers=%d): %v", wide, err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Errorf("output differs between workers=1 and workers=%d:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					wide, seq.String(), par.String())
			}
		})
	}
}
