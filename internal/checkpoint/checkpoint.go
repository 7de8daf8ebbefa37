// Package checkpoint provides the crash-safety primitives behind
// resumable sweeps and warm restarts: atomically-replaced snapshot
// files, an append-only work-item journal (a write-ahead log of
// completed sweep indices), and the framing both share — a versioned,
// CRC-checksummed envelope, so a reader can always tell a valid
// artifact from a truncated, corrupted or version-skewed one.
//
// Two durability shapes cover every consumer in the repository:
//
//   - Snapshot: one self-contained blob replaced wholesale (a paused
//     simulation's replay boundary, the sizing evaluator's memo cache).
//     Writes go through a temp file, fsync and rename, so a crash at
//     any instant leaves either the old complete snapshot or the new
//     one — never a torn file.
//
//   - Journal: an append-only record log (completed sweep items). Each
//     record carries its own length and checksum; a crash mid-append
//     leaves a torn tail that reopening detects, truncates and reports,
//     while every fully-written record survives. A checksum failure on
//     a complete record mid-file is *not* a crash artifact — it is data
//     corruption, and surfaces as an error instead of silent data loss.
//
// Decoding never panics and never returns partial state: any framing
// violation yields a typed error (ErrBadMagic, ErrTruncated,
// ErrChecksum, ErrVersionSkew, ErrTornTail), fuzz-verified by
// FuzzCheckpointDecode.
//
// Every resumable run is keyed by Identity, a hash of its whole
// configuration, and every resumable sweep runs through Map.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
)

// Typed decode failures. Callers distinguish a torn tail (a crash
// artifact that resuming tolerates) from the others (real corruption or
// skew that must stop a resume before it loads garbage state).
var (
	// ErrBadMagic reports a file that is not a checkpoint artifact.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrTruncated reports an envelope cut short (below header size or
	// shorter than its declared payload).
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrChecksum reports a CRC mismatch on complete data.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrVersionSkew reports an artifact written by an incompatible
	// format version.
	ErrVersionSkew = errors.New("checkpoint: version skew")
	// ErrKind reports an artifact of the wrong payload kind or shape
	// (e.g. an evaluator cache offered where a simulation snapshot is
	// expected).
	ErrKind = errors.New("checkpoint: wrong payload kind")
	// ErrIdentity reports a journal or replay snapshot whose recorded
	// identity does not match the resuming run's parameters — another
	// configuration, or a build that hashed configurations differently.
	ErrIdentity = errors.New("checkpoint: sweep identity mismatch")
	// ErrTornTail reports trailing bytes after the last complete journal
	// record — the signature of a crash mid-append. The records before
	// the tear are valid.
	ErrTornTail = errors.New("checkpoint: torn journal tail")
)

// Format version and payload kinds of the artifacts written by this
// repository. The version covers the envelope framing; kinds let a
// reader reject a structurally valid artifact of the wrong species.
const (
	FormatVersion uint16 = 1

	// KindSimRun is a simulation replay checkpoint (cmd/vodsim).
	KindSimRun uint16 = 1
	// KindSweep is a work-item journal of completed sweep indices.
	KindSweep uint16 = 2
	// KindEvalCache is a persisted sizing.Evaluator memo cache.
	KindEvalCache uint16 = 3
	// KindChurnRun is a cluster churn-simulation replay checkpoint
	// (cmd/vodcluster churn).
	KindChurnRun uint16 = 4
)

// Envelope layout (snapshot files):
//
//	[0:8)    magic "VODCKPT\n"
//	[8:10)   version (big endian)
//	[10:12)  payload kind
//	[12:16)  payload length
//	[16:16+n) payload
//	[16+n:20+n) CRC-32C over bytes [8, 16+n)
const (
	snapMagic     = "VODCKPT\n"
	snapHeaderLen = 16
	snapTrailLen  = 4
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on every
// platform the repository targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot frames payload in the versioned, checksummed envelope.
func EncodeSnapshot(version, kind uint16, payload []byte) []byte {
	buf := make([]byte, snapHeaderLen+len(payload)+snapTrailLen)
	copy(buf, snapMagic)
	binary.BigEndian.PutUint16(buf[8:], version)
	binary.BigEndian.PutUint16(buf[10:], kind)
	binary.BigEndian.PutUint32(buf[12:], uint32(len(payload)))
	copy(buf[snapHeaderLen:], payload)
	crc := crc32.Checksum(buf[8:snapHeaderLen+len(payload)], crcTable)
	binary.BigEndian.PutUint32(buf[snapHeaderLen+len(payload):], crc)
	return buf
}

// DecodeSnapshot validates the envelope and returns the payload kind
// and bytes. It never panics; every malformation maps to a typed error
// and no partial payload is ever returned. wantVersion pins the format
// version the caller understands.
func DecodeSnapshot(data []byte, wantVersion uint16) (kind uint16, payload []byte, err error) {
	if len(data) < snapHeaderLen {
		return 0, nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), snapHeaderLen)
	}
	if string(data[:8]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: %q", ErrBadMagic, data[:8])
	}
	version := binary.BigEndian.Uint16(data[8:])
	if version != wantVersion {
		return 0, nil, fmt.Errorf("%w: file version %d, reader version %d", ErrVersionSkew, version, wantVersion)
	}
	kind = binary.BigEndian.Uint16(data[10:])
	n := int64(binary.BigEndian.Uint32(data[12:]))
	total := int64(snapHeaderLen) + n + snapTrailLen
	if int64(len(data)) < total {
		return 0, nil, fmt.Errorf("%w: %d bytes, envelope declares %d", ErrTruncated, len(data), total)
	}
	if int64(len(data)) > total {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after envelope", ErrChecksum, int64(len(data))-total)
	}
	want := binary.BigEndian.Uint32(data[snapHeaderLen+n:])
	if got := crc32.Checksum(data[8:snapHeaderLen+n], crcTable); got != want {
		return 0, nil, fmt.Errorf("%w: crc %08x, want %08x", ErrChecksum, got, want)
	}
	return kind, data[snapHeaderLen : snapHeaderLen+n : snapHeaderLen+n], nil
}

// Digest is the FNV-1a hash of a record payload, stored alongside each
// journaled item as a semantic digest of the result (the journal's CRC
// guards the framing; this guards the decoded content end to end).
func Digest(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}
