package checkpoint

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"vodalloc/internal/parallel"
)

// TestSweepMarkLookupResume checks the journal round trip through Map:
// every item journaled by concurrent workers is looked up on a rerun
// instead of recomputed, an index the journal never held is computed,
// and changed parameters refuse the journal.
func TestSweepMarkLookupResume(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sweep.wal")
	id := []any{"fig7", true, int64(1)}
	var calls atomic.Int64
	fn := func(_ context.Context, i int) ([]byte, error) {
		calls.Add(1)
		return []byte{byte(i), byte(i * 3)}, nil
	}
	first, info, err := Map(ctx, parallel.Opts{Workers: 16}, path, id, 16, fn)
	if err != nil || info != (Resumed{}) {
		t.Fatalf("fresh sweep: %v, %+v", err, info)
	}
	again, info, err := Map(ctx, parallel.Opts{Workers: 4}, path, id, 17, fn)
	if err != nil {
		t.Fatal(err)
	}
	if info.Items != 16 || calls.Load() != 17 {
		t.Fatalf("rerun restored %d items after %d calls, want 16 after 17", info.Items, calls.Load())
	}
	if !reflect.DeepEqual(again[:16], first) || !reflect.DeepEqual(again[16], []byte{16, 48}) {
		t.Fatalf("rerun results %v differ from %v", again, first)
	}
	if _, _, err := Map(ctx, parallel.Opts{}, path, []any{"fig7", true, int64(2)}, 16, fn); !errors.Is(err, ErrIdentity) {
		t.Fatalf("changed parameters must refuse the journal: %v", err)
	}
}

// TestMapSkipsCompletedItems journals a few items by hand: Map restores
// them without running fn, recomputes an item whose payload no longer
// decodes, and journals only what it computed.
func TestMapSkipsCompletedItems(t *testing.T) {
	const n = 64
	path := filepath.Join(t.TempDir(), "items.wal")
	id := []any{"probe", n}
	j, _, err := OpenJournal(path, FormatVersion, KindSweep, Identity(id...))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 17, 63} {
		b, _ := json.Marshal(i * 100)
		if err := j.Append(encodeItem(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(encodeItem(5, []byte("not json"))); err != nil {
		t.Fatal(err)
	}
	j.Close()

	var ran atomic.Int64
	out, info, err := Map(context.Background(), parallel.Opts{Workers: 4}, path, id, n,
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			return i * 100, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*100 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if info.Items != 3 || ran.Load() != n-3 {
		t.Fatalf("restored %d and ran %d, want 3 and %d", info.Items, ran.Load(), n-3)
	}
	j, records, err := OpenJournal(path, FormatVersion, KindSweep, Identity(id...))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if want := 4 + n - 3; len(records) != want {
		t.Fatalf("journal holds %d records, want %d (restored items are not journaled again)", len(records), want)
	}
}

// TestMapJournalFailureFailsSweep: an item that cannot be journaled
// fails the sweep at that item's index.
func TestMapJournalFailureFailsSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.wal")
	_, _, err := Map(context.Background(), parallel.Opts{Workers: 1}, path, []any{"nan"}, 4,
		func(_ context.Context, i int) (float64, error) {
			if i == 2 {
				return math.NaN(), nil // JSON has no NaN
			}
			return float64(i), nil
		})
	var je *json.UnsupportedValueError
	if !errors.As(err, &je) {
		t.Fatalf("want the journal's encoding error, got %v", err)
	}
	var pe *parallel.Error
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("want item 2's error, got %v", err)
	}
}

// TestMapWithoutPathIsPlainMap: an empty path journals nothing and
// hashes nothing (a func part would panic Identity).
func TestMapWithoutPathIsPlainMap(t *testing.T) {
	out, info, err := Map(context.Background(), parallel.Opts{Workers: 2}, "", []any{func() {}}, 8,
		func(_ context.Context, i int) (int, error) { return i + 1, nil })
	if err != nil || info != (Resumed{}) {
		t.Fatalf("%v, %+v", err, info)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
