package experiments

import (
	"bytes"
	"context"
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

// render is e.Run with scale's wall-clock column zeroed: it measures the
// host, not the simulation, so the golden and determinism checks cover
// only the simulated statistics.
func render(e Experiment) func(context.Context, Options, io.Writer) error {
	if e.Name != "scale" {
		return e.Run
	}
	return printed(func(ctx context.Context, o Options) ([]ScaleRow, error) {
		r, err := ScaleCtx(ctx, o)
		for i := range r {
			r[i].Wall = 0
		}
		return r, err
	}, PrintScale)
}

func TestParallelOutputMatchesSequential(t *testing.T) {
	wide := runtime.NumCPU()
	if wide < 4 {
		wide = 4
	}
	for _, e := range All {
		run := render(e)
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			var seq, par bytes.Buffer
			if err := run(context.Background(), Options{Quick: true, Seed: 5, Workers: 1}, &seq); err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			if err := run(context.Background(), Options{Quick: true, Seed: 5, Workers: wide}, &par); err != nil {
				t.Fatalf("parallel run (workers=%d): %v", wide, err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Errorf("output differs between workers=1 and workers=%d:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					wide, seq.String(), par.String())
			}
		})
	}
}
