package memctrl

import (
	"fmt"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

const snapSection = 0x4D43 // "MC"

// OwnerResolver rebuilds a demand read's completion callback from the
// owner identity recorded in a snapshot (closures cannot travel). The
// simulator supplies cpu.Core.MissCallback.
type OwnerResolver func(core int, store bool, inst uint64) func(timing.Time)

// putReq serializes the portable payload of a queued or in-flight
// request. loc and rowTag are recomputed from Addr on restore.
func putReq(w *snapshot.Writer, r *Request) error {
	if !r.pooled {
		return fmt.Errorf("memctrl: snapshot requires pooled requests")
	}
	if r.OnDone != nil && r.OwnerCore == OwnerNone {
		return fmt.Errorf("memctrl: request %v@%#x has an OnDone callback but no owner identity", r.Kind, r.Addr)
	}
	w.U8(uint8(r.Kind))
	w.U64(r.Addr)
	w.U8(uint8(r.Mode))
	w.U8(uint8(r.Wear))
	w.I64(int64(r.enqueuedAt))
	w.I64(int64(r.OwnerCore))
	w.Bool(r.OwnerStore)
	w.U64(r.OwnerInst)
	return nil
}

// getReq acquires a pooled request and loads a putReq payload into it,
// rebuilding the completion callback through resolve when the request
// has an owner.
func (c *Controller) getReq(r *snapshot.Reader, resolve OwnerResolver) *Request {
	req := c.AcquireRequest()
	req.Kind = RequestKind(r.U8())
	req.Addr = r.U64()
	req.Mode = pcm.WriteMode(r.U8())
	req.Wear = pcm.WearKind(r.U8())
	req.enqueuedAt = timing.Time(r.I64())
	req.OwnerCore = int(r.I64())
	req.OwnerStore = r.Bool()
	req.OwnerInst = r.U64()
	req.loc = c.amap.Decode(req.Addr)
	if req.OwnerCore != OwnerNone && resolve != nil {
		req.OnDone = resolve(req.OwnerCore, req.OwnerStore, req.OwnerInst)
	}
	return req
}

// Snapshot writes the controller's full scheduling state: per-channel
// queues, bank occupancy with in-flight (possibly paused) writes, bus and
// tFAW timing, drain hysteresis, armed wakeups, plus the in-flight read
// list and aggregate stats. Pending events are recorded as (time, seq)
// descriptors. Space waiters are deliberately not serialized: they are
// re-registered by their owner (the simulator backend) on restore, and
// waiter-delivery events never straddle a snapshot boundary (they are
// scheduled at the current instant and have always drained).
func (c *Controller) Snapshot(w *snapshot.Writer) error {
	w.Section(snapSection)
	w.U32(uint32(len(c.chans)))
	for _, ch := range c.chans {
		w.Bool(ch.draining)
		w.I64(int64(ch.busFreeAt))
		w.U32(uint32(ch.actIdx))
		w.U32(uint32(len(ch.actTimes)))
		for _, t := range ch.actTimes {
			w.I64(int64(t))
		}
		w.U32(uint32(len(ch.banks)))
		for i := range ch.banks {
			b := &ch.banks[i]
			w.I64(int64(ch.bankFree[i]))
			w.U64(b.openTag)
			w.Bool(b.hasOpen)
			w.Bool(b.wr != nil)
			if b.wr == nil {
				continue
			}
			wr := b.wr
			if err := putReq(w, wr.req); err != nil {
				return err
			}
			w.I64(int64(wr.runStart))
			w.Bool(wr.runHasReset)
			w.U32(uint32(wr.setsLeft))
			w.Bool(wr.paused)
			w.Bool(wr.pausePending)
			w.Bool(wr.completion.Valid())
			if wr.completion.Valid() {
				// The completion time is derived (completionTime());
				// only the dispatch-order seq needs recording.
				w.I64(wr.completion.Seq())
			}
			if wr.pausePending {
				w.I64(int64(wr.pauseEvAt))
				w.I64(wr.pauseEvSeq)
			}
		}
		for kind := RequestKind(0); kind < numKinds; kind++ {
			q := ch.queues[kind]
			w.U32(uint32(len(q)))
			for _, r := range q {
				if err := putReq(w, r); err != nil {
					return err
				}
			}
		}
		armed := ch.wakeupEv.Valid()
		w.Bool(armed)
		if armed {
			w.I64(int64(ch.wakeupAt))
			w.I64(ch.wakeupEv.Seq())
		}
	}
	w.U32(uint32(len(c.inflight)))
	for _, r := range c.inflight {
		if err := putReq(w, r); err != nil {
			return err
		}
		w.Bool(r.forwarded)
		w.I64(int64(r.doneAt))
		w.I64(r.doneSeq)
	}
	return w.JSON(c.stats)
}

// Restore loads state written by Snapshot into a same-configuration
// controller and appends every recorded pending event (write completions,
// pause boundaries, read completions, channel wakeups) to pend for
// re-scheduling. It never kicks the scheduler: the re-armed events resume
// the exact dispatch sequence of the snapshotted run.
//
// Each bank's kickAt is not recorded; it is the time of the bank's
// latest-started transaction's completion event, which is the pending
// completion (running write or non-forwarded read) on that bank with the
// largest sequence number — transactions on one bank start one after
// another, and each schedules its completion as it starts.
func (c *Controller) Restore(r *snapshot.Reader, resolve OwnerResolver, pend *[]timing.Pending) {
	r.Section(snapSection)
	if n := r.U32(); r.Err() == nil && int(n) != len(c.chans) {
		r.Fail("memctrl: snapshot has %d channels, live controller %d", n, len(c.chans))
		return
	}
	kickSeq := make([][]int64, len(c.chans))
	noteKick := func(ch *channel, bank int, at timing.Time, seq int64) {
		if ks := kickSeq[ch.id]; seq > ks[bank] {
			ks[bank] = seq
			ch.kickAt[bank] = at
		}
	}
	for _, ch := range c.chans {
		kickSeq[ch.id] = make([]int64, len(ch.banks))
		for i := range ch.banks {
			kickSeq[ch.id][i] = -1
			ch.kickAt[i] = -1
		}
		cch := ch // pinned for the re-arm closures below
		ch.draining = r.Bool()
		ch.pausedMask, ch.pausableMask, ch.wrMask = 0, 0, 0
		// Lazy superset: every bank starts presumed busy; the first
		// kick prunes the finished ones.
		ch.busyMask = ch.bankMaskAll
		ch.busFreeAt = timing.Time(r.I64())
		ch.actIdx = int(r.U32())
		if n := r.U32(); r.Err() == nil && int(n) != len(ch.actTimes) {
			r.Fail("memctrl: snapshot has %d activation slots, live controller %d", n, len(ch.actTimes))
			return
		}
		for i := range ch.actTimes {
			ch.actTimes[i] = timing.Time(r.I64())
		}
		if ch.actIdx < 0 || ch.actIdx >= len(ch.actTimes) {
			r.Fail("memctrl: activation index %d out of range", ch.actIdx)
			return
		}
		if n := r.U32(); r.Err() == nil && int(n) != len(ch.banks) {
			r.Fail("memctrl: snapshot has %d banks, live controller %d", n, len(ch.banks))
			return
		}
		for i := range ch.banks {
			b := &ch.banks[i]
			ch.bankFree[i] = timing.Time(r.I64())
			b.openTag = r.U64()
			b.hasOpen = r.Bool()
			hasWr := r.Bool()
			b.wr = nil
			if !hasWr {
				continue
			}
			if r.Err() != nil {
				return
			}
			wr := ch.acquireWrite()
			wr.req = c.getReq(r, resolve)
			wr.bank = i
			wr.runStart = timing.Time(r.I64())
			wr.runHasReset = r.Bool()
			wr.setsLeft = int(r.U32())
			wr.paused = r.Bool()
			wr.pausePending = r.Bool()
			hasCompletion := r.Bool()
			b.wr = wr
			ch.wrMask |= 1 << uint(i)
			if wr.paused {
				ch.pausedMask |= 1 << uint(i)
			} else if !wr.pausePending {
				ch.pausableMask |= 1 << uint(i)
			}
			if hasCompletion {
				seq := r.I64()
				at := wr.completionTime()
				noteKick(ch, i, at, seq)
				*pend = append(*pend, timing.Pending{At: at, Seq: seq, Arm: func() {
					wr.completion = cch.eq.Schedule(at, wr.completeFn)
				}})
			}
			if wr.pausePending {
				wr.pauseEvAt = timing.Time(r.I64())
				wr.pauseEvSeq = r.I64()
				*pend = append(*pend, timing.Pending{At: wr.pauseEvAt, Seq: wr.pauseEvSeq, Arm: func() {
					wr.pauseEvSeq = cch.eq.Schedule(wr.pauseEvAt, wr.pauseFn).Seq()
				}})
			}
		}
		for i := range ch.readsPerBank {
			ch.readsPerBank[i] = 0
			ch.writesPerBank[i] = 0
			ch.refreshPerBank[i] = 0
		}
		ch.readsMask, ch.writesMask, ch.refreshMask = 0, 0, 0
		for k := range ch.blockWrites {
			delete(ch.blockWrites, k)
		}
		for kind := RequestKind(0); kind < numKinds; kind++ {
			n := r.Count(1 << 20)
			ch.queues[kind] = ch.queues[kind][:0]
			for i := 0; i < n; i++ {
				if r.Err() != nil {
					return
				}
				req := c.getReq(r, resolve)
				switch kind {
				case ReadReq:
					req.rowTag = c.amap.RowBufferTag(req.Addr)
					ch.readsPerBank[req.loc.Bank]++
					ch.readsMask |= 1 << uint(req.loc.Bank)
				case WriteReq:
					ch.writesPerBank[req.loc.Bank]++
					ch.writesMask |= 1 << uint(req.loc.Bank)
					if ch.blockWrites != nil {
						ch.blockWrites[req.Addr&^63]++
					}
				default:
					ch.refreshPerBank[req.loc.Bank]++
					ch.refreshMask |= 1 << uint(req.loc.Bank)
					if ch.blockWrites != nil {
						ch.blockWrites[req.Addr&^63]++
					}
				}
				ch.queues[kind] = append(ch.queues[kind], req)
			}
		}
		if r.Bool() {
			at := timing.Time(r.I64())
			seq := r.I64()
			*pend = append(*pend, timing.Pending{At: at, Seq: seq, Arm: func() {
				cch.wakeupAt = at
				cch.wakeupEv = cch.eq.Schedule(at, cch.wakeupFn)
			}})
		}
	}
	c.inflight = c.inflight[:0]
	n := r.Count(1 << 20)
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		req := c.getReq(r, resolve)
		req.forwarded = r.Bool()
		at := timing.Time(r.I64())
		seq := r.I64()
		if !req.forwarded {
			noteKick(c.chans[req.loc.Channel], req.loc.Bank, at, seq)
		}
		rr := req
		*pend = append(*pend, timing.Pending{At: at, Seq: seq, Arm: func() {
			c.trackFlight(rr, at, c.chans[rr.loc.Channel].eq.Schedule(at, rr.doneFn).Seq())
		}})
	}
	c.stats = Stats{}
	r.JSON(&c.stats)
}
