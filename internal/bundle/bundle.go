// Package bundle defines steerq's versioned steering artifact: the
// serialized per-group best-configuration decision table the offline
// pipeline produces and the serving tier (internal/serve, cmd/steerqd)
// loads. This is the reproduction of the "bundle" mechanism from the
// paper's production successor ("Deploying a Steered Query Optimizer in
// Production at Microsoft"): the expensive discovery runs offline, and only
// an immutable, checksummed table of decisions crosses the wire.
//
// A bundle maps default rule signatures (Definition 6.2's job-group
// identity) to the rule configuration the pipeline recommends for that
// group. Groups the pipeline analyzed without finding an improvement are
// recorded as explicit fallback entries — the serving tier can then tell
// "deliberately default" from "never seen" — and every bundle carries the
// default configuration itself so misses always resolve.
//
// # Wire format (format version 1)
//
// All integers are little-endian; vectors are the 32-byte little-endian
// word encoding of a bitvec.Vector.
//
//	magic          4 bytes  "STQB"
//	format         uint16   1
//	version        uint64   producer-assigned bundle version
//	created_unix   int64    producer clock stamp (0 under STEERQ_VCLOCK)
//	workload_len   uint8
//	workload       workload_len bytes
//	default        32 bytes default rule configuration
//	entry_count    uint32
//	entries        entry_count × 65 bytes, strictly ascending by signature:
//	    signature  32 bytes
//	    config     32 bytes
//	    flags      uint8    bit 0: fallback entry
//	checksum       uint64   FNV-1a 64 over every preceding byte
//
// Encode always emits the canonical form — entries sorted by signature
// bytes — so Encode∘Decode is the identity on bytes: two producers that
// agree on the decisions agree on the artifact, byte for byte, and the
// checksum doubles as a content hash.
package bundle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"steerq/internal/bitvec"
)

// Magic is the file magic every bundle starts with.
const Magic = "STQB"

// FormatVersion is the wire-format version this package reads and writes.
const FormatVersion = 1

// vecBytes is the encoded size of one bitvec.Vector.
const vecBytes = bitvec.Width / 8

// entryBytes is the encoded size of one Entry.
const entryBytes = 2*vecBytes + 1

// headerBytes is the encoded size of everything before the workload name.
const headerBytes = len(Magic) + 2 + 8 + 8 + 1

// checksumBytes is the size of the trailing checksum.
const checksumBytes = 8

// MaxWorkloadLen bounds the workload-name field (it is length-prefixed with
// one byte).
const MaxWorkloadLen = 255

// Decode failure classes, wrapped into every decode error so callers (the
// upload endpoint, a daemon loading its startup file) can classify rejections
// without string matching.
var (
	// ErrFormat marks a structurally invalid bundle: bad magic, unknown
	// format version, truncation, trailing bytes, unsorted or duplicate
	// signatures.
	ErrFormat = errors.New("bundle: invalid format")
	// ErrChecksum marks a bundle whose trailing checksum does not match its
	// content — a corrupted or torn artifact.
	ErrChecksum = errors.New("bundle: checksum mismatch")
)

// Entry is one decision: jobs whose default rule signature equals Signature
// should compile under Config. Fallback marks a group the pipeline analyzed
// and deliberately left on the default configuration.
type Entry struct {
	Signature bitvec.Vector
	Config    bitvec.Vector
	Fallback  bool
}

// Bundle is one versioned steering artifact. The zero value is an empty
// bundle; producers fill the fields and call Encode or WriteFile.
type Bundle struct {
	// Version is the producer-assigned bundle version, surfaced by the
	// serving tier in every decision and in its active-version gauge.
	Version uint64
	// CreatedUnix is the producer's clock stamp (obs.ClockFromEnv keeps it
	// 0 under STEERQ_VCLOCK so CI artifacts are byte-stable).
	CreatedUnix int64
	// Workload names the workload the decisions were discovered on.
	Workload string
	// Default is the optimizer's default rule configuration at build time;
	// lookups that miss every entry resolve to it.
	Default bitvec.Vector
	// Entries are the per-group decisions. Order is irrelevant to callers;
	// Encode canonicalizes it.
	Entries []Entry

	// checksum is the content hash of the canonical encoding, set by
	// Encode and Decode.
	checksum uint64
}

// Checksum returns the FNV-1a 64 content hash of the bundle's canonical
// encoding. It is zero until the bundle has been through Encode or Decode.
func (b *Bundle) Checksum() uint64 { return b.checksum }

// putVec appends the 32-byte little-endian encoding of v.
func putVec(buf []byte, v bitvec.Vector) []byte {
	k := v.Key()
	for _, w := range k {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// getVec decodes the 32-byte little-endian encoding at data[0:vecBytes].
func getVec(data []byte) bitvec.Vector {
	var k bitvec.Key
	for i := range k {
		k[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return bitvec.FromKey(k)
}

// sigBytes returns the canonical sort key of an entry: the encoded
// signature.
func sigBytes(v bitvec.Vector) [vecBytes]byte {
	var out [vecBytes]byte
	putVec(out[:0], v)
	return out
}

// Encode serializes the bundle in canonical form and stamps b's checksum.
// It fails on a workload name over MaxWorkloadLen bytes or on two entries
// sharing a signature (the table would be ambiguous).
func (b *Bundle) Encode() ([]byte, error) {
	if len(b.Workload) > MaxWorkloadLen {
		return nil, fmt.Errorf("%w: workload name %d bytes exceeds %d", ErrFormat, len(b.Workload), MaxWorkloadLen)
	}
	entries := append([]Entry(nil), b.Entries...)
	sort.Slice(entries, func(i, j int) bool {
		a, c := sigBytes(entries[i].Signature), sigBytes(entries[j].Signature)
		return bytes.Compare(a[:], c[:]) < 0
	})
	for i := 1; i < len(entries); i++ {
		if entries[i].Signature.Equal(entries[i-1].Signature) {
			return nil, fmt.Errorf("%w: duplicate signature %s", ErrFormat, entries[i].Signature.Hex())
		}
	}
	buf := make([]byte, 0, headerBytes+len(b.Workload)+vecBytes+4+len(entries)*entryBytes+checksumBytes)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint64(buf, b.Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.CreatedUnix))
	buf = append(buf, byte(len(b.Workload)))
	buf = append(buf, b.Workload...)
	buf = putVec(buf, b.Default)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = putVec(buf, e.Signature)
		buf = putVec(buf, e.Config)
		var flags byte
		if e.Fallback {
			flags |= 1
		}
		buf = append(buf, flags)
	}
	b.checksum = fnvSum(buf)
	buf = binary.LittleEndian.AppendUint64(buf, b.checksum)
	return buf, nil
}

// fnvSum hashes data with FNV-1a 64.
func fnvSum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// Decode parses and validates one encoded bundle. Every structural defect —
// bad magic, unknown format version, truncation, trailing bytes, unsorted
// or duplicate signatures, unknown flag bits — fails with an error wrapping
// ErrFormat; a content/checksum disagreement fails with ErrChecksum. A
// successfully decoded bundle re-encodes to the identical bytes.
func Decode(data []byte) (*Bundle, error) {
	if len(data) < headerBytes {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrFormat, len(data), headerBytes)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:len(Magic)])
	}
	off := len(Magic)
	format := binary.LittleEndian.Uint16(data[off:])
	off += 2
	if format != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrFormat, format, FormatVersion)
	}
	b := &Bundle{}
	b.Version = binary.LittleEndian.Uint64(data[off:])
	off += 8
	b.CreatedUnix = int64(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	nameLen := int(data[off])
	off++
	if len(data) < off+nameLen+vecBytes+4 {
		return nil, fmt.Errorf("%w: truncated before entry table", ErrFormat)
	}
	b.Workload = string(data[off : off+nameLen])
	off += nameLen
	b.Default = getVec(data[off:])
	off += vecBytes
	count := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	want := off + count*entryBytes + checksumBytes
	if len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes, want %d for %d entries", ErrFormat, len(data), want, count)
	}
	body := data[:len(data)-checksumBytes]
	sum := binary.LittleEndian.Uint64(data[len(data)-checksumBytes:])
	if got := fnvSum(body); got != sum {
		return nil, fmt.Errorf("%w: content hashes to %016x, trailer says %016x", ErrChecksum, got, sum)
	}
	b.Entries = make([]Entry, count)
	var prev [vecBytes]byte
	for i := range b.Entries {
		e := &b.Entries[i]
		e.Signature = getVec(data[off:])
		off += vecBytes
		e.Config = getVec(data[off:])
		off += vecBytes
		flags := data[off]
		off++
		if flags&^1 != 0 {
			return nil, fmt.Errorf("%w: entry %d has unknown flag bits %#x", ErrFormat, i, flags)
		}
		e.Fallback = flags&1 != 0
		sig := sigBytes(e.Signature)
		if i > 0 && bytes.Compare(prev[:], sig[:]) >= 0 {
			return nil, fmt.Errorf("%w: entry %d signature out of order or duplicated", ErrFormat, i)
		}
		prev = sig
	}
	b.checksum = sum
	return b, nil
}
