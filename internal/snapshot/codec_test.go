package snapshot

import (
	"bytes"
	"math"
	"testing"
)

const (
	testMagic   = 0x52_52_4D_53 // "SMRR"
	testVersion = 1
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Header(testMagic, testVersion)
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(math.MaxUint64)
	w.I64(-42)
	w.F64(3.14159)
	w.F64(math.Inf(-1))
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.Section(7)
	type counters struct{ A, B uint64 }
	if err := w.JSON(counters{A: 1, B: 2}); err != nil {
		t.Fatal(err)
	}
	blob := w.Finish()

	r, err := NewReader(blob, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool mismatch")
	}
	if v := r.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.F64(); v != 3.14159 {
		t.Errorf("F64 = %v", v)
	}
	if v := r.F64(); !math.IsInf(v, -1) {
		t.Errorf("F64 inf = %v", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.String(); v != "hello" {
		t.Errorf("String = %q", v)
	}
	r.Section(7)
	var c counters
	r.JSON(&c)
	if c.A != 1 || c.B != 2 {
		t.Errorf("JSON = %+v", c)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		w := NewWriter(0)
		w.Header(testMagic, testVersion)
		w.U64(12345)
		w.String("state")
		return w.Finish()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical state encoded to different bytes")
	}
}

func TestChecksumRejectsCorruption(t *testing.T) {
	w := NewWriter(0)
	w.Header(testMagic, testVersion)
	w.U64(777)
	blob := w.Finish()

	for i := 0; i < len(blob); i++ {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x01
		if _, err := NewReader(bad, testMagic, testVersion); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, err := NewReader(blob[:n], testMagic, testVersion); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestVersionAndMagic(t *testing.T) {
	w := NewWriter(0)
	w.Header(testMagic, 3)
	blob := w.Finish()
	if _, err := NewReader(blob, testMagic, 2); err == nil {
		t.Error("newer version accepted")
	}
	if _, err := NewReader(blob, testMagic+1, 3); err == nil {
		t.Error("wrong magic accepted")
	}
	if _, err := NewReader(blob, testMagic, 3); err != nil {
		t.Errorf("valid blob rejected: %v", err)
	}
}

func TestStickyError(t *testing.T) {
	w := NewWriter(0)
	w.Header(testMagic, testVersion)
	w.U8(1)
	blob := w.Finish()

	r, err := NewReader(blob, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	r.U8()
	r.U64() // past the end
	if r.Err() == nil {
		t.Fatal("overread not detected")
	}
	first := r.Err()
	r.U32()
	r.Bool()
	if r.Err() != first {
		t.Error("error did not stick")
	}
	if r.Done() == nil {
		t.Error("Done passed after error")
	}
}

func TestBoolRejectsGarbage(t *testing.T) {
	w := NewWriter(0)
	w.Header(testMagic, testVersion)
	w.U8(2)
	blob := w.Finish()
	r, err := NewReader(blob, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	r.Bool()
	if r.Err() == nil {
		t.Error("bool byte 2 accepted")
	}
}

func TestCountLimit(t *testing.T) {
	w := NewWriter(0)
	w.Header(testMagic, testVersion)
	w.U32(1 << 30)
	blob := w.Finish()
	r, err := NewReader(blob, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(1024); n != 0 || r.Err() == nil {
		t.Errorf("oversized count passed: n=%d err=%v", n, r.Err())
	}
}

// TestU64s: the bulk helpers encode exactly as a run of U64 calls, and a
// short blob fails without touching the destination.
func TestU64s(t *testing.T) {
	vals := []uint64{0, 1, math.MaxUint64, 0x0123456789ABCDEF}
	bulk, single := NewWriter(0), NewWriter(0)
	bulk.Header(testMagic, testVersion)
	single.Header(testMagic, testVersion)
	bulk.U64s(vals)
	for _, v := range vals {
		single.U64(v)
	}
	blob := bulk.Finish()
	if !bytes.Equal(blob, single.Finish()) {
		t.Fatal("U64s encodes differently from repeated U64")
	}
	r, err := NewReader(blob, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, len(vals))
	r.U64s(got)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("U64s[%d] = %#x, want %#x", i, got[i], vals[i])
		}
	}
	r, _ = NewReader(blob, testMagic, testVersion)
	long := []uint64{7, 7, 7, 7, 7}
	r.U64s(long)
	if r.Err() == nil {
		t.Error("U64s past the end of the blob succeeded")
	}
	for _, v := range long {
		if v != 7 {
			t.Fatal("failed U64s wrote into its destination")
		}
	}
}

func TestReaderVersion(t *testing.T) {
	w := NewWriter(0)
	w.Header(testMagic, 2)
	r, err := NewReader(w.Finish(), testMagic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 {
		t.Errorf("Version = %d, want 2", r.Version())
	}
}
