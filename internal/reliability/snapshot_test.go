package reliability

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

const testMagic = 0x52454C54 // "RELT"

// patrolConfig is an enabled model with programming errors and a patrol
// batch smaller than the populations the tests track.
func patrolConfig(patrol bool) Config {
	cfg := DefaultConfig()
	cfg.Enabled = true
	cfg.Patrol = patrol
	cfg.PatrolBatch = 3
	return cfg
}

// sectionOf encodes e's section without a blob header or checksum.
func sectionOf(t testing.TB, e *Engine) []byte {
	t.Helper()
	w := snapshot.NewWriter(0)
	if err := e.Snapshot(w); err != nil {
		t.Fatal(err)
	}
	b := w.Finish()
	return b[:len(b)-8]
}

// restoreSection restores body into a fresh engine of cfg and returns
// it with the reader's error.
func restoreSection(t testing.TB, cfg Config, body []byte) (*Engine, error) {
	t.Helper()
	w := snapshot.NewWriter(0)
	w.Header(testMagic, 1)
	blob := append(w.Finish()[:6], body...)
	blob = binary.LittleEndian.AppendUint64(blob, snapshot.Checksum(blob))
	r, err := snapshot.NewReader(blob, testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cfg, pcm.DefaultDriftTable(), 1500, 1, 7)
	e.Restore(r)
	return e, r.Err()
}

// rawSection hand-encodes a section from its parts.
func rawSection(generation uint64, lines []lineState, patrol []uint64) []byte {
	w := snapshot.NewWriter(0)
	w.Section(snapSection)
	w.U64(generation)
	w.U32(uint32(len(lines)))
	for _, ls := range lines {
		w.U64(ls.blk)
		w.I64(int64(ls.writtenAt))
		w.U64(ls.rng)
		w.F64(ls.lastP)
		w.U16(ls.flips)
		w.U8(ls.mode)
		w.Bool(ls.scrubbed)
	}
	w.U32(uint32(len(patrol)))
	for _, blk := range patrol {
		w.U64(blk)
	}
	if err := w.JSON(Metrics{}); err != nil {
		panic(err)
	}
	b := w.Finish()
	return b[:len(b)-8]
}

// ranEngine returns a patrol engine after a short run: lines tracked out
// of address order, some read, some patrol ticks into a rotation.
func ranEngine(patrol bool) *Engine {
	e := New(patrolConfig(patrol), pcm.DefaultDriftTable(), 1500, 1, 7)
	modes := pcm.Modes()
	for i := uint64(0); i < 10; i++ {
		blk := (i * 7 % 10) << 6
		now := timing.Time(i) * timing.Microsecond
		e.OnWrite(blk, modes[i%uint64(len(modes))], pcm.WearDemandWrite, now)
		e.OnDemandRead(blk, now+timing.Second)
		if i%4 == 3 {
			e.Patrol(func(addr uint64, mode pcm.WriteMode) {
				e.OnWrite(addr, mode, pcm.WearSlowRefresh, now)
			})
		}
	}
	return e
}

// hostileSections are sections Snapshot cannot write, each with the
// error text Restore must fail with, for a patrol-on engine.
func hostileSections() []struct {
	name, want string
	body       []byte
} {
	line := func(blk uint64, mode uint8, flips uint16) lineState {
		return lineState{blk: blk, mode: mode, flips: flips, lastP: 0.5}
	}
	ok := func(blk uint64) lineState { return line(blk, uint8(pcm.Mode3SETs), 1) }
	return []struct {
		name, want string
		body       []byte
	}{
		{"mode-0", "write mode 0", rawSection(1, []lineState{line(0x40, 0, 0)}, []uint64{0x40})},
		{"mode-200", "write mode 200", rawSection(1, []lineState{line(0x40, 200, 0)}, []uint64{0x40})},
		{"flips-past-line", "513 flips", rawSection(1, []lineState{line(0x40, 3, 513)}, []uint64{0x40})},
		{"nan-probability", "drift probability", rawSection(1, []lineState{{blk: 0x40, mode: 3, lastP: math.NaN()}}, []uint64{0x40})},
		{"unaligned-line", "not a tracked block", rawSection(1, []lineState{ok(0x41)}, []uint64{0x41})},
		{"duplicate-line", "duplicate line 0x40", rawSection(1, []lineState{ok(0x40), ok(0x40)}, []uint64{0x40, 0x40})},
		{"descending-lines", "want ascending", rawSection(1, []lineState{ok(0x80), ok(0x40)}, []uint64{0x40, 0x80})},
		{"patrol-untracked", "untracked line 0xc0", rawSection(1, []lineState{ok(0x40), ok(0x80)}, []uint64{0x40, 0xc0})},
		{"patrol-repeat", "repeats line 0x40", rawSection(1, []lineState{ok(0x40), ok(0x80)}, []uint64{0x40, 0x40})},
		{"patrol-repeat-back", "repeats line 0x80", rawSection(1, []lineState{ok(0x40), ok(0x80)}, []uint64{0x80, 0x80})},
		{"patrol-short", "patrol sequence of 1 lines, want 2", rawSection(1, []lineState{ok(0x40), ok(0x80)}, []uint64{0x40})},
		// A line count of 2^28 with no lines behind it must fail on the
		// first missing line, not allocate for the claim.
		{"huge-count", "truncated", append(rawSection(1, nil, nil)[:10:10], 0, 0, 0, 0x10)},
	}
}

// TestRestoreRejects: every section Snapshot could not have written
// fails the reader with an error naming the fault, and the sections
// Snapshot writes restore and re-encode to themselves.
func TestRestoreRejects(t *testing.T) {
	for _, tc := range hostileSections() {
		if _, err := restoreSection(t, patrolConfig(true), tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// With patrol off the sequence must be empty.
	off := rawSection(1, []lineState{{blk: 0x40, mode: 3}}, []uint64{0x40})
	if _, err := restoreSection(t, patrolConfig(false), off); err == nil || !strings.Contains(err.Error(), "want 0") {
		t.Errorf("patrol off with a sequence: Restore error = %v, want one containing %q", err, "want 0")
	}

	for _, patrol := range []bool{false, true} {
		body := sectionOf(t, ranEngine(patrol))
		got, err := restoreSection(t, patrolConfig(patrol), body)
		if err != nil {
			t.Fatalf("patrol=%v: canonical section rejected: %v", patrol, err)
		}
		if !bytes.Equal(sectionOf(t, got), body) {
			t.Errorf("patrol=%v: restored engine re-encodes differently", patrol)
		}
	}
}

// TestPatrolOrderFIFO checks the patrol ring against a plain-slice FIFO
// of tracked lines: new lines join the back, each patrol tick pops up
// to PatrolBatch lines from the front and re-queues them at the back.
// Lines are tracked out of address order, both between ticks and from
// inside the patrol callback (so a new line lands behind lines already
// popped this tick), the batch is smaller than the population so the
// queue wraps, and halfway through the engine is snapshotted mid-
// rotation and replaced by a restored copy.
func TestPatrolOrderFIFO(t *testing.T) {
	cfg := patrolConfig(true)
	e := New(cfg, pcm.DefaultDriftTable(), 1500, 1, 7)
	var fifo []uint64
	next := uint64(0)
	track := func(now timing.Time) {
		blk := mix64(next) & (1<<30 - 64)
		next++
		e.OnWrite(blk, pcm.Mode4SETs, pcm.WearDemandWrite, now)
		fifo = append(fifo, blk)
	}

	state := uint64(3)
	popped := 0
	for step := 0; step < 400; step++ {
		now := timing.Time(step) * timing.Microsecond
		if step == 200 {
			if popped%len(fifo) == 0 {
				t.Fatalf("cut at a rotation boundary (%d pops of %d lines)", popped, len(fifo))
			}
			w := snapshot.NewWriter(0)
			w.Header(testMagic, 1)
			if err := e.Snapshot(w); err != nil {
				t.Fatal(err)
			}
			r, err := snapshot.NewReader(w.Finish(), testMagic, 1)
			if err != nil {
				t.Fatal(err)
			}
			e = New(cfg, pcm.DefaultDriftTable(), 1500, 1, 7)
			e.Restore(r)
			if err := r.Done(); err != nil {
				t.Fatalf("restore at step %d: %v", step, err)
			}
		}
		if nextRand(&state)%3 == 0 {
			track(now)
			continue
		}
		want := min(len(fifo), cfg.PatrolBatch)
		got := 0
		e.Patrol(func(addr uint64, mode pcm.WriteMode) {
			front := fifo[0]
			fifo = append(fifo[1:], front)
			if addr != front {
				t.Fatalf("step %d: patrol issued %#x, FIFO front is %#x", step, addr, front)
			}
			got++
			popped++
			e.OnWrite(addr, mode, pcm.WearSlowRefresh, now)
			if nextRand(&state)%4 == 0 {
				track(now)
			}
		})
		if got != want {
			t.Fatalf("step %d: patrol issued %d lines, want %d", step, got, want)
		}
	}
	if e.Tracked() != len(fifo) || popped < 2*len(fifo) {
		t.Fatalf("tracked %d lines (FIFO %d) and popped %d: the queue did not wrap", e.Tracked(), len(fifo), popped)
	}
}

// FuzzReliabilityRestore: arbitrary sections either fail to restore or
// restore into an engine whose fresh section repeats the input's line
// and patrol bytes and restores again to itself, and which keeps
// working; they never panic. The metrics travel as JSON, so they are
// compared decoded. The seeds are the canonical sections of a short run
// with patrol on and off plus the hostile sections of TestRestoreRejects.
func FuzzReliabilityRestore(f *testing.F) {
	for _, patrol := range []bool{false, true} {
		f.Add(patrol, sectionOf(f, ranEngine(patrol)))
	}
	for _, tc := range hostileSections() {
		f.Add(true, tc.body)
	}
	f.Fuzz(func(t *testing.T, patrol bool, body []byte) {
		cfg := patrolConfig(patrol)
		e, err := restoreSection(t, cfg, body)
		if err != nil {
			return
		}
		enc := sectionOf(t, e)
		js, err := json.Marshal(e.m)
		if err != nil {
			t.Fatal(err)
		}
		lines := len(enc) - 4 - len(js)
		if !bytes.Equal(enc[:lines], body[:lines]) {
			t.Fatal("restored engine re-encodes its lines or patrol sequence differently")
		}
		again, err := restoreSection(t, cfg, enc)
		if err != nil {
			t.Fatalf("restored engine's section does not restore: %v", err)
		}
		if !bytes.Equal(sectionOf(t, again), enc) || again.m != e.m {
			t.Fatal("restored engine's section re-encodes differently")
		}
		for i := uint64(0); i < 16; i++ {
			now := timing.Time(i) * timing.Millisecond
			e.OnDemandRead(i<<6, now)
			e.OnWrite(i<<6, pcm.Mode3SETs, pcm.WearDemandWrite, now)
			e.Patrol(func(addr uint64, mode pcm.WriteMode) {
				if !mode.Valid() {
					t.Fatalf("patrol issued %#x with write mode %d", addr, mode)
				}
				e.OnWrite(addr, mode, pcm.WearSlowRefresh, now)
			})
		}
		e.Finish(100 * timing.Millisecond)
		if _, err := restoreSection(t, cfg, sectionOf(t, e)); err != nil {
			t.Fatalf("state reached from a restored engine does not restore: %v", err)
		}
	})
}
