package checkpoint

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"vodalloc/internal/parallel"
)

// Resumed reports what a journaled sweep restored from its journal.
type Resumed struct {
	// Items counts results restored instead of recomputed.
	Items int
	// TornBytes is the size of the torn journal tail truncated at open
	// (non-zero exactly when the previous run died mid-append).
	TornBytes int64
}

// Map is parallel.Map over a sweep journal at path, the one way a sweep
// survives a crash: each computed item's result is durably journaled as
// JSON before the sweep moves on, and a rerun restores journaled items
// instead of recomputing them. Go's shortest float encoding round-trips
// float64 exactly and Map is order-preserving, so with a deterministic
// fn a resumed sweep returns results identical to an uninterrupted one
// at any worker count, whatever mix of restored and recomputed items it
// ran. An item whose payload no longer decodes (the result type changed
// shape) is recomputed; an item that cannot be journaled fails the
// sweep, since a sweep that cannot journal must not pretend to be
// resumable.
//
// identity holds the parts Identity hashes into the journal's key; they
// must cover everything that shapes the items, and a journal written
// under another identity is refused with ErrIdentity. With an empty
// path Map is plain parallel.Map and hashes nothing.
func Map[T any](ctx context.Context, o parallel.Opts, path string, identity []any, n int,
	fn func(ctx context.Context, i int) (T, error),
) ([]T, Resumed, error) {
	if path == "" {
		out, err := parallel.Map(ctx, o, n, fn)
		return out, Resumed{}, err
	}
	j, records, err := OpenJournal(path, FormatVersion, KindSweep, Identity(identity...))
	if err != nil {
		return nil, Resumed{}, err
	}
	defer j.Close()
	// Later records win: an item journaled twice (a resume that raced a
	// crash) is harmless because results are deterministic. The map is
	// only read once the workers start.
	done := make(map[int][]byte, len(records))
	for _, rec := range records {
		idx, payload, err := decodeItem(rec)
		if err != nil {
			return nil, Resumed{}, fmt.Errorf("%s: %w", path, err)
		}
		done[idx] = payload
	}
	var restored atomic.Int64
	out, err := parallel.Map(ctx, o, n, func(ctx context.Context, i int) (T, error) {
		var v T
		if b, ok := done[i]; ok && json.Unmarshal(b, &v) == nil {
			restored.Add(1)
			return v, nil
		}
		v, err := fn(ctx, i)
		if err != nil {
			return v, err
		}
		b, err := json.Marshal(v)
		if err == nil {
			err = j.Append(encodeItem(i, b))
		}
		if err != nil {
			var zero T
			return zero, fmt.Errorf("journal item %d: %w", i, err)
		}
		return v, nil
	})
	return out, Resumed{Items: int(restored.Load()), TornBytes: j.TornBytes()}, err
}

// Item record layout: uvarint index | 8-byte digest | result payload.
// The digest guards the decoded content end to end (the journal's CRC
// guards the framing).
func encodeItem(i int, payload []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+8+len(payload))
	buf = binary.AppendUvarint(buf, uint64(i))
	buf = binary.BigEndian.AppendUint64(buf, Digest(payload))
	return append(buf, payload...)
}

func decodeItem(rec []byte) (int, []byte, error) {
	idx, n := binary.Uvarint(rec)
	if n <= 0 || idx > 1<<31 {
		return 0, nil, fmt.Errorf("%w: bad item index", ErrChecksum)
	}
	if len(rec)-n < 8 {
		return 0, nil, fmt.Errorf("%w: item record too short", ErrTruncated)
	}
	digest := binary.BigEndian.Uint64(rec[n:])
	payload := rec[n+8:]
	if Digest(payload) != digest {
		return 0, nil, fmt.Errorf("%w: item %d digest", ErrChecksum, idx)
	}
	return int(idx), payload, nil
}
