package cache

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"rrmpcm/internal/snapshot"
)

// readerFor wraps a level section body in a checksummed blob and
// returns a reader positioned at the section.
func readerFor(t testing.TB, body []byte) *snapshot.Reader {
	t.Helper()
	w := snapshot.NewWriter(0)
	w.Header(testMagic, 1)
	blob := append(w.Finish()[:6], body...)
	blob = binary.LittleEndian.AppendUint64(blob, snapshot.Checksum(blob))
	r, err := snapshot.NewReader(blob, testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// levelBody encodes c's section without a blob header or checksum.
func levelBody(c *Cache) []byte {
	w := snapshot.NewWriter(0)
	c.Snapshot(w)
	b := w.Finish()
	return b[:len(b)-8]
}

// linesBody encodes a tinyConfig level section holding the given words.
func linesBody(lines []uint64) []byte {
	cfg := tinyConfig()
	w := snapshot.NewWriter(0)
	w.Section(snapLevelSection)
	for i := 0; i < 5; i++ {
		w.U64(0) // Stats
	}
	w.U32(uint32(cfg.Sets()))
	w.U32(uint32(cfg.Ways))
	w.U64s(lines)
	b := w.Finish()
	return b[:len(b)-8]
}

// activeTiny returns a tinyConfig level with full, partly dirty sets and
// one half-empty set.
func activeTiny() *Cache {
	c := New(tinyConfig())
	for a := uint64(0); a < 40*64; a += 64 {
		kind := Load
		if a%192 == 0 {
			kind = Store
		}
		if a/64%8 != 5 {
			c.Access(a, kind)
		}
	}
	c.Access(5*64, Store)
	return c
}

// v6LevelBody encodes c in the pre-v7 level layout: a use clock, then a
// flags byte, a tag and an LRU stamp for every way.
func v6LevelBody(c *Cache) []byte {
	w := snapshot.NewWriter(0)
	w.Section(snapLevelSection)
	w.U64(uint64(len(c.lines)))
	s := c.Stats()
	for _, v := range []uint64{s.Accesses, s.Hits, s.Misses, s.Evictions, s.Writebacks} {
		w.U64(v)
	}
	w.U32(uint32(c.nsets))
	w.U32(uint32(c.cfg.Ways))
	for i, word := range c.lines {
		if word == emptyLine {
			w.U8(0)
			w.U64(0)
			w.U64(0)
			continue
		}
		w.U8(1 | uint8(word&1)<<1)
		w.U64(word >> 1)
		w.U64(uint64(len(c.lines) - i%c.cfg.Ways))
	}
	b := w.Finish()
	return b[:len(b)-8]
}

func TestRestoreRoundTrip(t *testing.T) {
	c := activeTiny()
	body := levelBody(c)
	r := readerFor(t, body)
	got := New(tinyConfig())
	got.Restore(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got.Stats() != c.Stats() || !bytes.Equal(levelBody(got), body) {
		t.Error("restored level differs from the original")
	}
	if want := 2 + 5*8 + 2*4 + 8*len(c.lines); len(body) != want {
		t.Errorf("level section is %d bytes, want %d (8 B per line)", len(body), want)
	}
}

// TestRestoreRejectsCorruptLines: Restore fails with a clear error on
// line words the live encoding cannot produce.
func TestRestoreRejectsCorruptLines(t *testing.T) {
	const e = emptyLine
	empty := func() []uint64 {
		lines := make([]uint64, 16) // tinyConfig: 8 sets of 2 ways
		for i := range lines {
			lines[i] = e
		}
		return lines
	}
	for _, tc := range []struct {
		name  string
		set   int
		words [2]uint64
		want  string // "" = must restore
	}{
		{"valid", 0, [2]uint64{8<<1 | 1, 0}, ""},
		{"valid partial set", 3, [2]uint64{3 << 1, e}, ""},
		{"wrong set", 0, [2]uint64{1 << 1, e}, "does not belong in set 0"},
		{"beyond 64-bit address", 7, [2]uint64{e - 1, e}, "does not belong in set 7"},
		{"duplicate block", 0, [2]uint64{16<<1 | 1, 16 << 1}, "appears twice in set 0"},
		{"valid after empty", 0, [2]uint64{e, 0}, "valid line after an empty way"},
	} {
		lines := empty()
		copy(lines[2*tc.set:], tc.words[:])
		r := readerFor(t, linesBody(lines))
		New(tinyConfig()).Restore(r)
		err := r.Done()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Restore failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Restore error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzCacheRestore: arbitrary level sections either fail to restore or
// restore into a level that re-encodes to the same bytes and keeps
// working; they never panic. The seeds are a real level snapshot and the
// same state in the pre-v7 layout.
func FuzzCacheRestore(f *testing.F) {
	c := activeTiny()
	f.Add(levelBody(c))
	f.Add(v6LevelBody(c))
	f.Fuzz(func(t *testing.T, body []byte) {
		r := readerFor(t, body)
		got := New(tinyConfig())
		got.Restore(r)
		if r.Err() != nil {
			return
		}
		enc := levelBody(got)
		if !bytes.Equal(enc, body[:len(enc)]) {
			t.Fatal("restored level re-encodes differently")
		}
		for a := uint64(0); a < 32*64; a += 64 {
			got.Access(a, Store)
			got.WritebackInto(a + 1<<20)
		}
		r = readerFor(t, levelBody(got))
		New(tinyConfig()).Restore(r)
		if err := r.Done(); err != nil {
			t.Fatalf("level state reached from a restored level does not restore: %v", err)
		}
	})
}
