package experiments

import (
	"context"
	"errors"
	"io"
	"testing"
)

// TestExperimentsCtxPreCanceled verifies every experiment aborts on an
// already-dead context instead of running its sweep.
func TestExperimentsCtxPreCanceled(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	o := Options{Quick: true, Workers: 2}
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			if err := e.Run(dead, o, io.Discard); !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		})
	}
}
