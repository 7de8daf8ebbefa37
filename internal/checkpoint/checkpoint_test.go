package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	enc := EncodeSnapshot(FormatVersion, KindSimRun, payload)
	kind, got, err := DecodeSnapshot(enc, FormatVersion)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if kind != KindSimRun || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind=%d payload=%q", kind, got)
	}
	// Empty payloads are legal (an empty cache is still a valid state).
	enc = EncodeSnapshot(FormatVersion, KindEvalCache, nil)
	if _, got, err = DecodeSnapshot(enc, FormatVersion); err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %v, %q", err, got)
	}
}

func TestSnapshotRejectsEveryTruncation(t *testing.T) {
	enc := EncodeSnapshot(FormatVersion, KindSimRun, []byte("payload bytes here"))
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeSnapshot(enc[:n], FormatVersion); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}

func TestSnapshotRejectsEveryCorruption(t *testing.T) {
	enc := EncodeSnapshot(FormatVersion, KindSimRun, []byte("payload bytes here"))
	for i := range enc {
		for _, flip := range []byte{0x01, 0x80} {
			bad := bytes.Clone(enc)
			bad[i] ^= flip
			if _, _, err := DecodeSnapshot(bad, FormatVersion); err == nil {
				t.Fatalf("flipping bit %02x of byte %d went undetected", flip, i)
			}
		}
	}
}

func TestSnapshotVersionSkewAndTrailingGarbage(t *testing.T) {
	enc := EncodeSnapshot(FormatVersion+1, KindSimRun, []byte("x"))
	if _, _, err := DecodeSnapshot(enc, FormatVersion); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("want ErrVersionSkew, got %v", err)
	}
	enc = append(EncodeSnapshot(FormatVersion, KindSimRun, []byte("x")), 0xFF)
	if _, _, err := DecodeSnapshot(enc, FormatVersion); err == nil {
		t.Fatal("trailing garbage went undetected")
	}
}

func TestWriteReadSnapshotAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := WriteSnapshot(path, FormatVersion, KindEvalCache, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(path, FormatVersion, KindEvalCache, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadSnapshot(path, FormatVersion)
	if err != nil || kind != KindEvalCache || string(payload) != "v2" {
		t.Fatalf("read back: kind=%d payload=%q err=%v", kind, payload, err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the snapshot", len(entries))
	}
	if _, _, err := ReadSnapshot(filepath.Join(t.TempDir(), "missing"), FormatVersion); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.wal")
	id := Identity("sweep", 42)
	j, recs, err := OpenJournal(path, FormatVersion, KindSweep, id)
	if err != nil || len(recs) != 0 {
		t.Fatalf("fresh open: %v, %d records", err, len(recs))
	}
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j, recs, err = OpenJournal(path, FormatVersion, KindSweep, id)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d: %q != %q", i, recs[i], want[i])
		}
	}
	if j.TornBytes() != 0 {
		t.Fatalf("clean journal reports %d torn bytes", j.TornBytes())
	}
}

func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.wal")
	id := Identity("sweep")
	j, _, err := OpenJournal(path, FormatVersion, KindSweep, id)
	if err != nil {
		t.Fatal(err)
	}
	j.Append([]byte("intact-1"))
	j.Append([]byte("intact-2"))
	j.Append([]byte("the record a crash tears"))
	j.Close()

	// Simulate a crash mid-append at every possible tear point of the
	// final record: each must recover the first two records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full := int64(len(data))
	lastLen := int64(recHeaderLen + len("the record a crash tears"))
	for cut := full - lastLen + 1; cut < full; cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path, FormatVersion, KindSweep, id)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(recs) != 2 || j.TornBytes() == 0 {
			t.Fatalf("cut at %d: %d records, torn=%d", cut, len(recs), j.TornBytes())
		}
		// The journal must be fully usable after recovery.
		if err := j.Append([]byte("post-recovery")); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, recs, err = OpenJournal(path, FormatVersion, KindSweep, id)
		if err != nil || len(recs) != 3 {
			t.Fatalf("reopen after recovery: %v, %d records", err, len(recs))
		}
		j.Close()
	}
}

func TestJournalRefusesCorruptionAndSkew(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "items.wal")
	id := Identity("sweep")
	j, _, err := OpenJournal(path, FormatVersion, KindSweep, id)
	if err != nil {
		t.Fatal(err)
	}
	j.Append([]byte("record"))
	j.Close()
	data, _ := os.ReadFile(path)

	// Flip a payload byte of a complete record: bit rot, not a tear.
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0x40
	os.WriteFile(path, bad, 0o644)
	if _, _, err := OpenJournal(path, FormatVersion, KindSweep, id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload corruption: %v", err)
	}

	// Wrong identity: a resume against a different sweep's directory.
	os.WriteFile(path, data, 0o644)
	if _, _, err := OpenJournal(path, FormatVersion, KindSweep, Identity("other")); !errors.Is(err, ErrIdentity) {
		t.Fatalf("identity mismatch: %v", err)
	}
	// Wrong kind.
	if _, _, err := OpenJournal(path, FormatVersion, KindEvalCache, id); !errors.Is(err, ErrKind) {
		t.Fatalf("kind mismatch: %v", err)
	}
	// Version skew.
	if _, _, err := OpenJournal(path, FormatVersion+1, KindSweep, id); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("version skew: %v", err)
	}
}
