package experiments

import (
	"context"
	"path/filepath"

	"vodalloc/internal/checkpoint"
)

// mapResumable is the experiments' sweep fan-out: checkpoint.Map over a
// per-experiment work-item journal when a resume directory is
// configured, plain parallel.Map when none is. The journal is keyed to
// the experiment name, the item count and the options that shape the
// items (everything but Workers and ResumeDir); rerunning with
// different settings refuses the stale journal instead of mixing grids.
func mapResumable[T any](ctx context.Context, o Options, name string, n int,
	fn func(ctx context.Context, i int) (T, error),
) ([]T, error) {
	var path string
	if o.ResumeDir != "" {
		path = filepath.Join(o.ResumeDir, name+".wal")
	}
	key := o
	key.Workers, key.ResumeDir = 0, ""
	out, _, err := checkpoint.Map(ctx, o.par(), path, []any{"experiments." + name, n, key}, n, fn)
	return out, err
}
