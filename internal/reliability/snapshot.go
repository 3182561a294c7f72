package reliability

import (
	"cmp"
	"math"
	"slices"

	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

const snapSection = 0x524C // "RL"

// noLine marks a patrol link not yet set while Restore rebuilds the ring.
const noLine = math.MaxUint32

// Snapshot writes the injector's full state: every tracked line (in
// sorted address order, so the encoding is deterministic), the
// generation counter, the patrol queue and the accumulated metrics.
func (e *Engine) Snapshot(w *snapshot.Writer) error {
	w.Section(snapSection)
	w.U64(e.generation)

	n := e.lines.n
	order := make([]uint32, n)
	for p := range order {
		order[p] = uint32(p)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return cmp.Compare(e.lines.at(a).blk, e.lines.at(b).blk)
	})
	w.U32(uint32(n))
	for _, p := range order {
		ls := e.lines.at(p)
		w.U64(ls.blk)
		w.I64(int64(ls.writtenAt))
		w.U64(ls.rng)
		w.F64(ls.lastP)
		w.U16(ls.flips)
		w.U8(ls.mode)
		w.Bool(ls.scrubbed)
	}

	// The patrol ring travels as its live FIFO sequence, front first.
	q := 0
	if e.cfg.Patrol {
		q = n
	}
	w.U32(uint32(q))
	for p := e.tail; q > 0; q-- {
		p = e.lines.at(p).next
		w.U64(e.lines.at(p).blk)
	}
	return w.JSON(e.m)
}

// Restore loads state written by Snapshot into a same-config engine. It
// fails the reader on any section Snapshot could not have written: line
// addresses out of order, repeated or outside the tracked sample, a
// write mode the device does not have, more flips than the line has
// bits, a drift probability outside [0, 1], or a patrol sequence that
// is not exactly the tracked lines (each once) with patrol on, or not
// empty with patrol off. Memory grows with the lines actually read,
// never with a claimed count.
func (e *Engine) Restore(r *snapshot.Reader) {
	r.Section(snapSection)
	e.generation = r.U64()
	e.lines = newLineTable()
	e.tail = 0

	n := r.Count(1 << 28)
	var prev uint64
	for i := 0; i < n; i++ {
		blk := r.U64()
		writtenAt := timing.Time(r.I64())
		rng := r.U64()
		lastP := r.F64()
		flips := r.U16()
		mode := r.U8()
		scrubbed := r.Bool()
		switch {
		case r.Err() != nil:
			return
		case i > 0 && blk == prev:
			r.Fail("reliability: duplicate line %#x", blk)
		case i > 0 && blk < prev:
			r.Fail("reliability: line %#x after %#x, want ascending addresses", blk, prev)
		case blk&63 != 0 || !core.SampledBlock(blk, e.sampling):
			r.Fail("reliability: line %#x is not a tracked block address", blk)
		case !pcm.WriteMode(mode).Valid():
			r.Fail("reliability: line %#x has write mode %d", blk, mode)
		case int(flips) > e.cfg.LineBits:
			r.Fail("reliability: line %#x has %d flips on a %d-bit line", blk, flips, e.cfg.LineBits)
		case !(lastP >= 0 && lastP <= 1):
			r.Fail("reliability: line %#x has drift probability %g", blk, lastP)
		}
		if r.Err() != nil {
			return
		}
		prev = blk
		_, ls := e.lines.insert(blk)
		*ls = lineState{blk: blk, writtenAt: writtenAt, rng: rng, lastP: lastP,
			flips: flips, mode: mode, scrubbed: scrubbed, next: noLine}
	}

	q := r.Count(1 << 28)
	want := 0
	if e.cfg.Patrol {
		want = n
	}
	if r.Err() == nil && q != want {
		r.Fail("reliability: patrol sequence of %d lines, want %d (patrol %v, %d tracked)", q, want, e.cfg.Patrol, n)
	}
	var first uint32
	for i := 0; i < q; i++ {
		blk := r.U64()
		if r.Err() != nil {
			return
		}
		p, ls := e.lines.find(blk)
		switch {
		case ls == nil:
			r.Fail("reliability: patrol sequence names untracked line %#x", blk)
			return
		case ls.next != noLine || (i > 0 && p == e.tail):
			r.Fail("reliability: patrol sequence repeats line %#x", blk)
			return
		}
		if i == 0 {
			first = p
		} else {
			e.lines.at(e.tail).next = p
		}
		e.tail = p
	}
	if q > 0 {
		e.lines.at(e.tail).next = first
	}
	e.m = Metrics{}
	r.JSON(&e.m)
}
