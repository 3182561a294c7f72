package core

import (
	"math"

	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

const snapSection = 0x5252 // "RR"

// Snapshot writes the monitor's full table plus the pending-event
// descriptors of the decay tick and every live per-entry refresh timer.
// A timer is live exactly when its recorded generation matches its
// tier's current generation and the entry still sits at that tier or
// above; dead timers (stale generations still sitting in the queue) are
// no-ops and do not travel.
//
// Per valid entry the layout is the two-tier monitor's: flags (valid,
// top tier, live top timer), tag, counters, top-tier generation, the
// top-tier vector, LRU stamp and the live timer's (time, seq). A tiered
// monitor writes its mid-tier count after the geometry and, after each
// valid entry, the entry's tier index and every mid tier's vector and
// live timer; the paper's monitor writes none of these.
func (r *RRM) Snapshot(w *snapshot.Writer) error {
	w.Section(snapSection)
	w.U64(r.useClock)
	w.U32(uint32(r.cfg.Sets))
	w.U32(uint32(r.cfg.Ways))
	if r.top > 1 {
		w.U8(uint8(r.top - 1))
	}
	for i := range r.entries {
		e := &r.entries[i]
		var flags uint8
		if e.valid {
			flags |= 1
		}
		if int(e.tier) == r.top {
			flags |= 2
		}
		if r.timerLive(i, r.top) {
			flags |= 4 // live refresh timer
		}
		w.U8(flags)
		if !e.valid {
			continue
		}
		w.U64(e.tag)
		w.U32(e.dirtyWrites)
		w.U32(e.decayCounter)
		w.I64(int64(e.timer.gen))
		r.putVec(w, r.vec(i))
		w.U64(e.lastUse)
		if flags&4 != 0 {
			w.I64(int64(e.timer.at))
			w.I64(e.timer.seq)
		}
		if r.top == 1 {
			continue
		}
		w.U8(e.tier)
		for t := 1; t < r.top; t++ {
			r.putVec(w, r.tierVec(i, t))
			live := r.timerLive(i, t)
			w.Bool(live)
			if live {
				tm := r.timer(i, t)
				w.I64(int64(tm.at))
				w.I64(tm.seq)
			}
		}
	}
	w.I64(int64(r.decayAt))
	w.I64(r.decaySeq)
	return w.JSON(r.stats)
}

// pendTimer queues entry i's live tier-t timer for re-arming at at. The
// closure captures only these parameters, so restoring a table of
// entries without live timers allocates nothing per entry.
func (r *RRM) pendTimer(pend *[]timing.Pending, i, t int, at timing.Time, seq int64) {
	*pend = append(*pend, timing.Pending{At: at, Seq: seq, Arm: func() {
		r.scheduleTierTimer(i, t, at)
	}})
}

// putVec writes a vector at the full vectorWords width, whatever the
// region size, zero-padded past the live words.
func (r *RRM) putVec(w *snapshot.Writer, v []uint64) {
	w.U64s(v)
	for k := len(v); k < vectorWords; k++ {
		w.U64(0)
	}
}

// getVec reads a vector written by putVec into dst. Bits past the
// region's last block cannot be set by a live monitor; a snapshot
// carrying them is corrupt.
func (r *RRM) getVec(rd *snapshot.Reader, i int, dst []uint64) {
	blocks := r.cfg.BlocksPerRegion()
	for k := 0; k < vectorWords; k++ {
		v := rd.U64()
		if k < len(dst) {
			dst[k] = v
		}
		if lo := k * 64; rd.Err() == nil && lo+64 > blocks && v>>max(blocks-lo, 0) != 0 {
			rd.Fail("rrm: entry %d short-retention bits past block %d", i, blocks)
		}
	}
}

// Restore loads state written by Snapshot into a same-geometry monitor,
// attaches it to eq, and appends the decay tick and every live entry
// timer to pend for re-scheduling. Anything a live monitor cannot reach
// — a tier out of range, blocks tracked above the entry's tier, a live
// timer above it, an event before eq's clock — is rejected.
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
	if r.top > 1 {
		if n := rd.U8(); rd.Err() == nil && int(n) != r.top-1 {
			rd.Fail("rrm: snapshot has %d mid tiers, live monitor %d", n, r.top-1)
			return
		}
	}
	// timerAt reads a live timer's (time, seq), rejecting a time before
	// the restore clock: re-arming it would schedule into the past.
	timerAt := func(i int) (timing.Time, int64, bool) {
		at, seq := timing.Time(rd.I64()), rd.I64()
		if rd.Err() == nil && at < eq.Now() {
			rd.Fail("rrm: entry %d timer at %v before the snapshot clock %v", i, at, eq.Now())
		}
		return at, seq, rd.Err() == nil
	}
	for i := range r.entries {
		e := &r.entries[i]
		flags := rd.U8()
		if rd.Err() != nil {
			return
		}
		if flags&1 == 0 {
			*e = entry{}
			for t := 1; t <= r.top; t++ {
				clear(r.tierVec(i, t))
				*r.timer(i, t) = tierTimer{}
			}
			continue
		}
		e.valid = true
		e.tier = 0
		if flags&2 != 0 {
			e.tier = uint8(r.top)
		}
		e.tag = rd.U64()
		e.dirtyWrites = rd.U32()
		e.decayCounter = rd.U32()
		gen := rd.I64()
		if rd.Err() == nil && (gen < math.MinInt32 || gen > math.MaxInt32) {
			rd.Fail("rrm: entry %d promotion generation %d out of range", i, gen)
			return
		}
		e.timer = tierTimer{gen: int32(gen), armedGen: int32(gen) - 1}
		r.getVec(rd, i, r.vec(i))
		e.lastUse = rd.U64()
		var topAt timing.Time
		var topSeq int64
		if flags&4 != 0 {
			var ok bool
			if topAt, topSeq, ok = timerAt(i); !ok {
				return
			}
		}
		if r.top > 1 {
			tier := rd.U8()
			if rd.Err() == nil && (int(tier) > r.top || (int(tier) == r.top) != (flags&2 != 0)) {
				rd.Fail("rrm: entry %d tier %d out of range or disagreeing with its flags", i, tier)
				return
			}
			e.tier = tier
		}
		if rd.Err() == nil && flags&4 != 0 && int(e.tier) != r.top {
			rd.Fail("rrm: entry %d has a live top-tier timer at tier %d", i, e.tier)
			return
		}
		for t := 1; t < r.top; t++ {
			r.getVec(rd, i, r.tierVec(i, t))
			*r.timer(i, t) = tierTimer{armedGen: -1}
			if !rd.Bool() {
				continue
			}
			at, seq, ok := timerAt(i)
			if ok && int(e.tier) < t {
				rd.Fail("rrm: entry %d has a live tier-%d timer at tier %d", i, t, e.tier)
			}
			if rd.Err() != nil {
				return
			}
			r.pendTimer(pend, i, t, at, seq)
		}
		for t := int(e.tier) + 1; t <= r.top && rd.Err() == nil; t++ {
			for _, word := range r.tierVec(i, t) {
				if word != 0 {
					rd.Fail("rrm: entry %d tracks tier-%d blocks at tier %d", i, t, e.tier)
					break
				}
			}
		}
		if rd.Err() != nil {
			return
		}
		if flags&4 != 0 {
			r.pendTimer(pend, i, r.top, topAt, topSeq)
		}
	}
	r.decayAt = timing.Time(rd.I64())
	decaySeq := rd.I64()
	if rd.Err() == nil && r.decayAt < eq.Now() {
		rd.Fail("rrm: decay tick at %v before the snapshot clock %v", r.decayAt, eq.Now())
	}
	r.stats = Stats{}
	rd.JSON(&r.stats)
	if rd.Err() == nil {
		at := r.decayAt
		*pend = append(*pend, timing.Pending{At: at, Seq: decaySeq, Arm: func() {
			r.armDecay(at)
		}})
	}
}
