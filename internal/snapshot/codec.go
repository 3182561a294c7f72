// Package snapshot is the deterministic binary codec behind the
// simulator's state snapshot/restore support. Encoding rules:
//
//   - every primitive is fixed-width little-endian, so a given state
//     always encodes to the same bytes (encoding/gob is rejected: its
//     map ordering is nondeterministic and its stream is stateful);
//   - variable-length data (byte slices, strings, JSON sections) is
//     length-prefixed with a u32;
//   - a blob starts with a caller-chosen magic+version header and ends
//     with an FNV-1a checksum of everything before it, so truncated or
//     bit-flipped blobs are rejected before any state is touched;
//   - maps must be emitted in sorted key order by the caller.
//
// The Reader is sticky-error: after the first failure every read
// returns zero values and Err() reports the original problem, so decode
// paths can be written without per-field error checks.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// Writer accumulates an encoded snapshot. The zero value is ready to
// use; call Header first and Finish last.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Header writes the blob's magic number and format version. It must be
// the first write.
func (w *Writer) Header(magic uint32, version uint16) {
	w.U32(magic)
	w.U16(version)
}

// Finish appends the FNV-1a checksum of everything written so far and
// returns the completed blob. The writer must not be reused after.
func (w *Writer) Finish() []byte {
	w.U64(fnv1a(w.buf))
	return w.buf
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a fixed-width little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = append(w.buf, byte(v), byte(v>>8))
}

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// U64s writes each element of v as U64 would, without a length prefix:
// the reader must already know how many follow.
func (w *Writer) U64s(v []uint64) {
	n := len(w.buf)
	w.buf = append(w.buf, make([]byte, 8*len(v))...)
	b := w.buf[n:]
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// I64 writes an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 by its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a u32 length prefix followed by the raw bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Section writes a u16 tag identifying the component state that
// follows, making structural mismatches fail fast with a clear error.
func (w *Writer) Section(tag uint16) { w.U16(tag) }

// JSON writes v as a length-prefixed canonical JSON blob. Go's
// encoding/json is deterministic for structs (field order) and for maps
// (sorted keys), so this is safe for counter/metrics structs whose
// field-by-field encoding would be pure drudgery.
func (w *Writer) JSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("snapshot: encode %T: %w", v, err)
	}
	w.Bytes(b)
	return nil
}

// Reader decodes a snapshot produced by Writer. All reads are
// bounds-checked; the first failure sticks and is reported by Err.
type Reader struct {
	buf     []byte
	pos     int
	err     error
	version uint16
}

// NewReader validates the trailing checksum and the magic+version
// header, returning a reader positioned after the header. wantVersion
// is the highest version the caller understands; blobs with a newer
// version are rejected.
func NewReader(blob []byte, magic uint32, wantVersion uint16) (*Reader, error) {
	if len(blob) < 4+2+8 {
		return nil, fmt.Errorf("snapshot: blob too short (%d bytes)", len(blob))
	}
	body, sum := blob[:len(blob)-8], blob[len(blob)-8:]
	want := uint64(sum[0]) | uint64(sum[1])<<8 | uint64(sum[2])<<16 | uint64(sum[3])<<24 |
		uint64(sum[4])<<32 | uint64(sum[5])<<40 | uint64(sum[6])<<48 | uint64(sum[7])<<56
	if got := fnv1a(body); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (got %#x want %#x)", got, want)
	}
	r := &Reader{buf: body}
	if m := r.U32(); m != magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x (want %#x)", m, magic)
	}
	if r.version = r.U16(); r.version > wantVersion {
		return nil, fmt.Errorf("snapshot: format version %d newer than supported %d", r.version, wantVersion)
	}
	return r, nil
}

// Version returns the format version read from the blob's header.
func (r *Reader) Version() uint16 { return r.version }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Done reports whether the whole body was consumed without error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("snapshot: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

// Fail records a caller-detected structural mismatch (for example a
// geometry field that disagrees with the live configuration). Like any
// decode error it sticks.
func (r *Reader) Fail(format string, args ...any) {
	r.fail(format, args...)
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.pos < n {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.pos, len(r.buf))
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean, rejecting any byte other than 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte at offset %d", r.pos-1)
		return false
	}
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// U64s fills dst with len(dst) values written by Writer.U64s. On a
// short blob it fails and leaves dst unchanged.
func (r *Reader) U64s(dst []uint64) {
	b := r.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a length-prefixed byte slice (a copy-free view into the
// blob; callers that retain it must copy).
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	return r.take(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Section consumes a section tag and fails unless it matches want.
func (r *Reader) Section(want uint16) {
	if got := r.U16(); r.err == nil && got != want {
		r.fail("section tag %#x, want %#x", got, want)
	}
}

// Count reads a u32 element count and fails if it exceeds max, bounding
// allocation on corrupt input.
func (r *Reader) Count(max int) int {
	n := int(r.U32())
	if r.err == nil && n > max {
		r.fail("count %d exceeds limit %d", n, max)
		return 0
	}
	return n
}

// JSON decodes a length-prefixed JSON section into v.
func (r *Reader) JSON(v any) {
	b := r.Bytes()
	if r.err != nil {
		return
	}
	if err := json.Unmarshal(b, v); err != nil {
		r.fail("decode %T: %v", v, err)
	}
}

// fnv1a is the 64-bit FNV-1a hash used for the trailing checksum.
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// Checksum exposes the codec's 64-bit FNV-1a hash so sibling on-disk
// formats (the engine run cache) can carry the same
// integrity trailer as snapshot blobs.
func Checksum(b []byte) uint64 { return fnv1a(b) }
