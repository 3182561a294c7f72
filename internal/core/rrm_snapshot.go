package core

import (
	"math"

	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

const snapSection = 0x5252 // "RR"

// Snapshot writes the monitor's full table plus the pending-event
// descriptors of the decay tick and every live per-entry refresh timer.
// A hot entry's timer is live exactly when its recorded generation
// matches the current promotion generation; dead timers (stale
// generations still sitting in the queue) are no-ops and do not travel.
func (r *RRM) Snapshot(w *snapshot.Writer) error {
	w.Section(snapSection)
	w.U64(r.useClock)
	w.U32(uint32(r.cfg.Sets))
	w.U32(uint32(r.cfg.Ways))
	for i := range r.entries {
		e := &r.entries[i]
		var flags uint8
		if e.valid {
			flags |= 1
		}
		if e.hot {
			flags |= 2
		}
		if e.valid && e.hot && e.timerGen == e.hotGen && r.eq != nil {
			flags |= 4 // live refresh timer
		}
		w.U8(flags)
		if !e.valid {
			continue
		}
		w.U64(e.tag)
		w.U32(e.dirtyWrites)
		w.U32(e.decayCounter)
		w.I64(int64(e.hotGen))
		// The vector travels at its full vectorWords width, whatever
		// the region size, zero-padded past the live words.
		w.U64s(r.vec(i))
		for k := r.vecWords; k < vectorWords; k++ {
			w.U64(0)
		}
		w.U64(e.lastUse)
		if flags&4 != 0 {
			w.I64(int64(e.timerAt))
			w.I64(e.timerSeq)
		}
	}
	w.I64(int64(r.decayAt))
	w.I64(r.decaySeq)
	return w.JSON(r.stats)
}

// Restore loads state written by Snapshot into a same-geometry monitor,
// attaches it to eq, and appends the decay tick and every live entry
// timer to pend for re-scheduling.
func (r *RRM) Restore(rd *snapshot.Reader, eq *timing.EventQueue, pend *[]timing.Pending) {
	rd.Section(snapSection)
	r.eq = eq
	r.useClock = rd.U64()
	if n := rd.U32(); rd.Err() == nil && int(n) != r.cfg.Sets {
		rd.Fail("rrm: snapshot has %d sets, live monitor %d", n, r.cfg.Sets)
		return
	}
	if n := rd.U32(); rd.Err() == nil && int(n) != r.cfg.Ways {
		rd.Fail("rrm: snapshot has %d ways, live monitor %d", n, r.cfg.Ways)
		return
	}
	// Bits past the region's last block cannot be set by a live
	// monitor; a snapshot carrying them is corrupt.
	blocks := r.cfg.BlocksPerRegion()
	for i := range r.entries {
		e := &r.entries[i]
		flags := rd.U8()
		if rd.Err() != nil {
			return
		}
		vec := r.vec(i)
		if flags&1 == 0 {
			*e = entry{}
			clear(vec)
			continue
		}
		e.valid = true
		e.hot = flags&2 != 0
		e.tag = rd.U64()
		e.dirtyWrites = rd.U32()
		e.decayCounter = rd.U32()
		gen := rd.I64()
		if rd.Err() == nil && (gen < math.MinInt32 || gen > math.MaxInt32) {
			rd.Fail("rrm: entry %d promotion generation %d out of range", i, gen)
			return
		}
		e.hotGen = int32(gen)
		for k := 0; k < vectorWords; k++ {
			v := rd.U64()
			if k < len(vec) {
				vec[k] = v
			}
			if lo := k * 64; rd.Err() == nil && lo+64 > blocks && v>>max(blocks-lo, 0) != 0 {
				rd.Fail("rrm: entry %d short-retention bits past block %d", i, blocks)
				return
			}
		}
		e.lastUse = rd.U64()
		e.timerAt, e.timerSeq, e.timerGen = 0, 0, e.hotGen-1
		if flags&4 != 0 {
			at := timing.Time(rd.I64())
			seq := rd.I64()
			if rd.Err() != nil {
				return
			}
			*pend = append(*pend, timing.Pending{At: at, Seq: seq, Arm: func() {
				r.scheduleEntryTimer(i, at)
			}})
		}
	}
	r.decayAt = timing.Time(rd.I64())
	decaySeq := rd.I64()
	r.stats = Stats{}
	rd.JSON(&r.stats)
	if rd.Err() == nil {
		at := r.decayAt
		*pend = append(*pend, timing.Pending{At: at, Seq: decaySeq, Arm: func() {
			r.armDecay(at)
		}})
	}
}
