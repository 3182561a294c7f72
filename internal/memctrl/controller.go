package memctrl

import (
	"fmt"
	"math/bits"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// Controller is the multi-channel MLC PCM memory controller.
type Controller struct {
	cfg   Config
	amap  *pcm.AddressMap
	eq    *timing.EventQueue
	rec   Recorder
	ri    ReadIntegrity // nil: reads complete without ECC inspection
	chans []*channel
	stats Stats

	// reqFree recycles pooled requests (see AcquireRequest). The pool
	// is per-controller and LIFO, so reuse order — like everything else
	// in the simulator — is deterministic.
	reqFree []*Request

	// inflight tracks pooled reads whose completion event is scheduled
	// (the request lives only inside that event otherwise), so state
	// snapshots can enumerate them. Swap-removal keeps it O(1).
	inflight []*Request
}

// New builds a controller over the mapped device, driven by eq. rec may
// be nil to discard accounting.
func New(cfg Config, amap *pcm.AddressMap, eq *timing.EventQueue, rec Recorder) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rec == nil {
		rec = NopRecorder{}
	}
	c := &Controller{cfg: cfg, amap: amap, eq: eq, rec: rec}
	dev := amap.Config()
	for i := 0; i < dev.Channels; i++ {
		ch := &channel{ctl: c, id: i, eq: eq, banks: make([]bankState, dev.Banks),
			bankFree: make([]timing.Time, dev.Banks), kickAt: make([]timing.Time, dev.Banks)}
		if dev.Banks > 64 {
			ch.wideBanks = true
		} else {
			ch.bankMaskAll = ^uint64(0) >> (64 - uint(dev.Banks))
		}
		ch.queues[ReadReq] = make([]*Request, 0, cfg.ReadQueueCap)
		ch.queues[WriteReq] = make([]*Request, 0, cfg.WriteQueueCap)
		ch.queues[RefreshReq] = make([]*Request, 0, cfg.RefreshQueueCap)
		ch.readsPerBank = make([]int32, dev.Banks)
		ch.writesPerBank = make([]int32, dev.Banks)
		ch.refreshPerBank = make([]int32, dev.Banks)
		if cfg.ReadForwarding {
			ch.blockWrites = make(map[uint64]int32, cfg.WriteQueueCap+cfg.RefreshQueueCap)
		}
		ch.actTimes = make([]timing.Time, cfg.FAWLimit)
		for j := range ch.actTimes {
			ch.actTimes[j] = -timing.Forever
		}
		ch.wakeupFn = ch.wakeup
		c.chans = append(c.chans, ch)
	}
	return c, nil
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetReadIntegrity installs the demand-read ECC hook. Must be called
// before the simulation starts; nil leaves reads uninspected.
func (c *Controller) SetReadIntegrity(ri ReadIntegrity) { c.ri = ri }

// Stats returns a copy of the aggregate counters.
func (c *Controller) Stats() Stats { return c.stats }

// ChannelOf returns the channel index an address maps to.
func (c *Controller) ChannelOf(addr uint64) int { return c.amap.Decode(addr).Channel }

// QueueLen returns the current depth of a queue, for tests and metrics.
func (c *Controller) QueueLen(channel int, kind RequestKind) int {
	return len(c.chans[channel].queues[kind])
}

// AcquireRequest returns a zeroed request from the controller's pool.
// Pooled requests are recycled automatically when their transaction
// completes (after OnDone has fired), so the caller must not retain the
// pointer past that point. Requests built with plain &Request{} remain
// fully supported and are never recycled.
func (c *Controller) AcquireRequest() *Request {
	if len(c.reqFree) == 0 {
		// Refill the pool a slab at a time: one backing allocation per
		// 64 objects keeps acquisition cheap even when the in-flight
		// population grows (e.g. migration bursts parking against full
		// queues). The completion callback is bound once per pooled
		// object and reused across its whole recycled lifetime, so
		// steady-state reads schedule no new closures.
		slab := make([]Request, 64)
		for i := range slab {
			r := &slab[i]
			r.ctl, r.pooled = c, true
			r.doneFn = func(t timing.Time) { r.finishRead(t) }
			c.reqFree = append(c.reqFree, r)
		}
	}
	n := len(c.reqFree)
	r := c.reqFree[n-1]
	c.reqFree[n-1] = nil
	c.reqFree = c.reqFree[:n-1]
	r.Kind, r.Addr, r.Mode, r.Wear, r.OnDone = 0, 0, 0, 0, nil
	r.forwarded = false
	r.OwnerCore, r.OwnerStore, r.OwnerInst = OwnerNone, false, 0
	r.flightIdx = -1
	return r
}

// trackFlight records a pooled read whose completion event was just
// scheduled at (at, seq).
func (c *Controller) trackFlight(r *Request, at timing.Time, seq int64) {
	r.doneAt, r.doneSeq = at, seq
	r.flightIdx = len(c.inflight)
	c.inflight = append(c.inflight, r)
}

// untrackFlight removes a completing read from the in-flight list.
func (c *Controller) untrackFlight(r *Request) {
	i := r.flightIdx
	if i < 0 {
		return
	}
	last := len(c.inflight) - 1
	c.inflight[i] = c.inflight[last]
	c.inflight[i].flightIdx = i
	c.inflight[last] = nil
	c.inflight = c.inflight[:last]
	r.flightIdx = -1
}

// release returns a pooled request to the free list.
func (c *Controller) release(r *Request) {
	if !r.pooled {
		return
	}
	r.OnDone = nil
	c.reqFree = append(c.reqFree, r)
}

// finishRead completes a (possibly forwarded) read transaction carried
// by a pooled request.
func (r *Request) finishRead(t timing.Time) {
	c := r.ctl
	c.untrackFlight(r)
	ch := c.chans[r.loc.Channel]
	forwarded := r.forwarded
	c.rec.RecordRead(r.Addr)
	if r.OnDone != nil {
		r.OnDone(t)
	}
	c.release(r)
	if !forwarded {
		ch.kick(t)
	}
}

// Pending reports whether any queue holds requests or any bank is mid
// transaction (used to drain the simulation cleanly).
func (c *Controller) Pending() bool {
	for _, ch := range c.chans {
		for _, q := range ch.queues {
			if len(q) > 0 {
				return true
			}
		}
		for i := range ch.banks {
			if ch.banks[i].wr != nil || ch.bankFree[i] > c.eq.Now() {
				return true
			}
		}
	}
	return false
}

// TryEnqueue submits a request. It returns false, leaving the request
// unqueued, when the target queue is full; the caller may register an
// OnSpace callback to retry.
func (c *Controller) TryEnqueue(req *Request) bool {
	if req.Kind < 0 || req.Kind >= numKinds {
		panic(fmt.Sprintf("memctrl: bad request kind %d", int(req.Kind)))
	}
	req.loc = c.amap.Decode(req.Addr)
	ch := c.chans[req.loc.Channel]
	now := c.eq.Now()

	if req.Kind == ReadReq && c.cfg.ReadForwarding && ch.forwards(req.Addr) {
		c.stats.ReadForwards++
		c.stats.ReadsServed++
		lat := c.cfg.TCAS + c.cfg.BusXfer
		c.stats.ReadLatencySum += lat
		if lat > c.stats.ReadLatencyMax {
			c.stats.ReadLatencyMax = lat
		}
		if req.pooled {
			req.forwarded = true
			done := now + lat
			c.trackFlight(req, done, ch.eq.Schedule(done, req.doneFn).Seq())
			return true
		}
		done := req.OnDone
		addr := req.Addr
		ch.eq.Schedule(now+lat, func(t timing.Time) {
			c.rec.RecordRead(addr)
			if done != nil {
				done(t)
			}
		})
		return true
	}

	capacity := c.queueCap(req.Kind)
	if len(ch.queues[req.Kind]) >= capacity {
		c.stats.Rejected[req.Kind]++
		return false
	}
	req.enqueuedAt = now
	switch req.Kind {
	case ReadReq:
		// Cache the row-buffer tag once: FR-FCFS re-reads it on every
		// scheduling scan.
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
	ch.queues[req.Kind] = append(ch.queues[req.Kind], req)
	c.noteOccupancy(ch)
	ch.kick(now)
	return true
}

// OnSpace registers fn to run once, the next time the given queue of the
// given channel drops below capacity.
func (c *Controller) OnSpace(kind RequestKind, channel int, fn func(now timing.Time)) {
	ch := c.chans[channel]
	ch.spaceWaiters[kind] = append(ch.spaceWaiters[kind], fn)
}

func (c *Controller) queueCap(kind RequestKind) int {
	switch kind {
	case ReadReq:
		return c.cfg.ReadQueueCap
	case WriteReq:
		return c.cfg.WriteQueueCap
	default:
		return c.cfg.RefreshQueueCap
	}
}

func (c *Controller) noteOccupancy(ch *channel) {
	if n := len(ch.queues[ReadReq]); n > c.stats.MaxReadQueue {
		c.stats.MaxReadQueue = n
	}
	if n := len(ch.queues[WriteReq]); n > c.stats.MaxWriteQueue {
		c.stats.MaxWriteQueue = n
	}
	if n := len(ch.queues[RefreshReq]); n > c.stats.MaxRefreshQueue {
		c.stats.MaxRefreshQueue = n
	}
}

// --- channel ---

// bankState holds per-bank row-buffer and write-occupancy state. The
// bank's busy horizon lives in channel.bankFree — a dense parallel
// array — so the wakeup scan over all banks touches two cache lines
// instead of one padded struct per bank.
type bankState struct {
	openTag uint64
	hasOpen bool
	wr      *inflightWrite // in-flight (possibly paused) write occupying the bank
}

// inflightWrite tracks a write pulse that may be paused at SET-iteration
// boundaries. A fresh run starts with the RESET phase; resumed runs are
// pure SET iterations. Inflight writes are pooled per channel; the
// completion and pause callbacks are bound once per object and survive
// recycling.
type inflightWrite struct {
	req          *Request
	bank         int
	runStart     timing.Time
	runHasReset  bool
	setsLeft     int // SET iterations outstanding at runStart
	paused       bool
	pausePending bool
	zombie       bool // completed with a pause event still in flight
	completion   timing.EventRef
	pauseEvAt    timing.Time // scheduled pause boundary (valid while pausePending)
	pauseEvSeq   int64

	completeFn func(t timing.Time)
	pauseFn    func(t timing.Time)
}

// completionTime returns when the current run would finish unpaused.
func (w *inflightWrite) completionTime() timing.Time {
	t := w.runStart
	if w.runHasReset {
		t += pcm.ResetPulse
	}
	return t + timing.Time(w.setsLeft)*pcm.SetPulse
}

// pauseBoundary returns the earliest instant at or after t where the run
// can pause (end of RESET or end of a SET iteration), and whether pausing
// there is useful (i.e. strictly before completion).
func (w *inflightWrite) pauseBoundary(t timing.Time) (timing.Time, bool) {
	resetEnd := w.runStart
	if w.runHasReset {
		resetEnd += pcm.ResetPulse
	}
	var b timing.Time
	if t <= resetEnd {
		b = resetEnd
	} else {
		k := (t - resetEnd + pcm.SetPulse - 1) / pcm.SetPulse
		b = resetEnd + k*pcm.SetPulse
	}
	return b, b < w.completionTime()
}

// setsDoneBy returns completed SET iterations of this run at boundary b.
func (w *inflightWrite) setsDoneBy(b timing.Time) int {
	resetEnd := w.runStart
	if w.runHasReset {
		resetEnd += pcm.ResetPulse
	}
	if b <= resetEnd {
		return 0
	}
	return int((b - resetEnd) / pcm.SetPulse)
}

type channel struct {
	ctl *Controller
	id  int

	// eq caches the controller's event queue, which every channel
	// schedules on.
	eq *timing.EventQueue

	// Bank bitmasks, valid when the channel has at most 64 banks
	// (wideBanks false; wider geometries fall back to linear scans).
	// pausedMask, pausableMask and wrMask are exact: banks whose
	// in-flight write is paused, still pausable (active, no pause
	// pending), respectively present at all. busyMask over-approximates
	// the banks with bankFree in the future between kicks and is pruned
	// exact at kick entry — time stands still inside a kick, so it stays
	// exact through every tryStart iteration and the queue scans reduce
	// to one bit test per entry.
	pausedMask   uint64
	pausableMask uint64
	busyMask     uint64
	wrMask       uint64
	bankMaskAll  uint64
	wideBanks    bool

	// Queue-occupancy masks (narrow geometries only): banks with at
	// least one queued read / write / refresh. Intersected with the
	// free-bank masks they answer "can any queued transaction start?"
	// in O(1), so a kick whose scan would find nothing never walks the
	// queues at all.
	readsMask   uint64
	writesMask  uint64
	refreshMask uint64

	// writesPerBank/refreshPerBank mirror readsPerBank for the other two
	// queues; they exist to clear the occupancy masks exactly.
	writesPerBank  []int32
	refreshPerBank []int32

	queues [numKinds][]*Request
	banks  []bankState

	// bankFree[i] is the instant bank i's current transaction releases
	// it (bankState's former freeAt field, split out so the armWakeup
	// min-scan reads a dense timestamp array).
	bankFree []timing.Time

	// kickAt[i] is when the event ending bank i's latest transaction
	// fires and kicks the channel: the read completion (after any ECC
	// stall) or the write completion. When it equals bankFree[i], that
	// already-scheduled event re-scans the channel the instant the bank
	// frees, so armWakeup need not wake for it (see there).
	kickAt []timing.Time

	// readsPerBank counts queued reads per bank, so resume decisions
	// (readWaitingFor) are O(1) instead of a read-queue scan.
	readsPerBank []int32

	// blockWrites counts queued writes+refreshes per 64 B block (only
	// when ReadForwarding is enabled), so forwarding lookups are O(1)
	// instead of scanning both queues per read.
	blockWrites map[uint64]int32

	busFreeAt timing.Time
	actTimes  []timing.Time // ring buffer of recent activations
	actIdx    int

	wrFree []*inflightWrite // recycled inflight writes

	spaceWaiters [numKinds][]func(now timing.Time)
	waiterSpare  [numKinds][]func(now timing.Time) // recycled delivery arrays
	wakeupAt     timing.Time
	wakeupEv     timing.EventRef
	wakeupFn     func(now timing.Time) // bound once: wakeup
	draining     bool
}

// forwards reports whether a queued write or refresh covers block addr.
func (ch *channel) forwards(addr uint64) bool {
	return ch.blockWrites[addr&^63] > 0
}

// kick starts every transaction that can begin now, then arms a wakeup
// for the earliest future opportunity.
func (ch *channel) kick(now timing.Time) {
	if !ch.wideBanks {
		// Prune busyMask exact once per kick: no time passes inside the
		// tryStart loop, so a bit cleared here stays clear and a start
		// re-sets its own bit, keeping the mask exact throughout.
		for m := ch.busyMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if ch.bankFree[i] <= now {
				ch.busyMask &^= 1 << uint(i)
			}
		}
	}
	for ch.tryStart(now) {
	}
	ch.armWakeup(now)
}

// bankFreeForRead: the bank is idle, or holds only a paused write.
func (ch *channel) bankFreeForRead(bank int, now timing.Time) bool {
	wr := ch.banks[bank].wr
	return ch.bankFree[bank] <= now && (wr == nil || wr.paused)
}

// bankFreeForWrite: the bank is idle with no in-flight write at all.
func (ch *channel) bankFreeForWrite(bank int, now timing.Time) bool {
	return ch.bankFree[bank] <= now && ch.banks[bank].wr == nil
}

// tryStart attempts to begin one transaction; it returns true if a bank
// was newly occupied (so the caller loops). The mask path relies on
// busyMask being exact (kick prunes it on entry): a queue entry's bank
// eligibility is one bit test instead of per-entry bank-state loads.
func (ch *channel) tryStart(now timing.Time) bool {
	ch.updateDrainMode()
	if ch.wideBanks {
		return ch.tryStartWide(now)
	}

	freeWrite := ^(ch.busyMask | ch.wrMask) & ch.bankMaskAll
	freeRead := ^ch.busyMask & (^ch.wrMask | ch.pausedMask) & ch.bankMaskAll

	// Refresh queue: highest priority (hard retention deadline).
	if freeWrite&ch.refreshMask != 0 {
		for i, r := range ch.queues[RefreshReq] {
			if freeWrite&(1<<uint(r.loc.Bank)) != 0 {
				ch.dequeue(RefreshReq, i, now)
				ch.startWrite(r, now)
				return true
			}
		}
	}

	if ch.draining {
		// Drain mode: writes own the channel until the queue falls to
		// the low watermark; reads may still slip onto idle banks no
		// write wants.
		if ch.tryResume(now, false) || ch.tryWriteMask(now, freeWrite) {
			return true
		}
		if idx := ch.pickReadMask(now, freeRead); idx >= 0 {
			r := ch.queues[ReadReq][idx]
			ch.dequeue(ReadReq, idx, now)
			ch.startRead(r, now)
			return true
		}
		return false
	}

	// Normal mode: reads first (FR-FCFS), pausing in-flight writes.
	if idx := ch.pickReadMask(now, freeRead); idx >= 0 {
		r := ch.queues[ReadReq][idx]
		ch.dequeue(ReadReq, idx, now)
		ch.startRead(r, now)
		return true
	}
	// The pause-request sweep only matters while some write is still
	// pausable; pausableMask tracks exactly that, so the common
	// no-writes-in-flight kick skips the read-queue walk entirely.
	if ch.ctl.cfg.WritePausing && ch.pausableMask&ch.readsMask != 0 {
		for _, r := range ch.queues[ReadReq] {
			if ch.pausableMask&(1<<uint(r.loc.Bank)) != 0 {
				ch.requestPause(ch.banks[r.loc.Bank].wr, now)
				if ch.pausableMask == 0 {
					break
				}
			}
		}
	}
	if ch.tryResume(now, true) {
		return true
	}
	return ch.tryWriteMask(now, freeWrite)
}

// tryStartWide is tryStart for geometries beyond 64 banks per channel,
// where the bitmasks cannot cover the bank set and every check reads
// bank state directly.
func (ch *channel) tryStartWide(now timing.Time) bool {
	for i, r := range ch.queues[RefreshReq] {
		if ch.bankFreeForWrite(r.loc.Bank, now) {
			ch.dequeue(RefreshReq, i, now)
			ch.startWrite(r, now)
			return true
		}
	}

	if ch.draining {
		if ch.tryResume(now, false) || ch.tryWrite(now) {
			return true
		}
		if idx := ch.pickRead(now); idx >= 0 {
			r := ch.queues[ReadReq][idx]
			ch.dequeue(ReadReq, idx, now)
			ch.startRead(r, now)
			return true
		}
		return false
	}

	if idx := ch.pickRead(now); idx >= 0 {
		r := ch.queues[ReadReq][idx]
		ch.dequeue(ReadReq, idx, now)
		ch.startRead(r, now)
		return true
	}
	if ch.ctl.cfg.WritePausing {
		for _, r := range ch.queues[ReadReq] {
			b := &ch.banks[r.loc.Bank]
			if b.wr != nil && !b.wr.paused && !b.wr.pausePending {
				ch.requestPause(b.wr, now)
			}
		}
	}
	if ch.tryResume(now, true) {
		return true
	}
	return ch.tryWrite(now)
}

// updateDrainMode applies the write-queue watermark hysteresis.
func (ch *channel) updateDrainMode() {
	n := len(ch.queues[WriteReq])
	if !ch.draining && n >= ch.ctl.cfg.WriteDrainHigh {
		ch.draining = true
		ch.ctl.stats.DrainEntries++
	} else if ch.draining && n <= ch.ctl.cfg.WriteDrainLow {
		ch.draining = false
	}
}

// tryResume restarts one paused write on a free bank. Outside drain mode
// a waiting read keeps the write paused (respectReads).
func (ch *channel) tryResume(now timing.Time, respectReads bool) bool {
	if !ch.wideBanks {
		// Paused writes on non-busy banks (a read may occupy a paused
		// bank, which is what busyMask excludes), minus banks a queued
		// read still wants when reads have priority; TrailingZeros picks
		// the lowest bank, matching the linear scan's order.
		m := ch.pausedMask &^ ch.busyMask
		if respectReads {
			m &^= ch.readsMask
		}
		if m != 0 {
			i := bits.TrailingZeros64(m)
			ch.resumeWrite(ch.banks[i].wr, now)
			return true
		}
		return false
	}
	for i := range ch.banks {
		b := &ch.banks[i]
		if b.wr != nil && b.wr.paused && ch.bankFree[i] <= now &&
			(!respectReads || ch.readsPerBank[i] == 0) {
			ch.resumeWrite(b.wr, now)
			return true
		}
	}
	return false
}

// tryWrite starts the oldest startable demand write.
func (ch *channel) tryWrite(now timing.Time) bool {
	for i, r := range ch.queues[WriteReq] {
		if ch.bankFreeForWrite(r.loc.Bank, now) {
			ch.dequeue(WriteReq, i, now)
			ch.startWrite(r, now)
			return true
		}
	}
	return false
}

// tryWriteMask is tryWrite against a precomputed free-for-write mask.
// Intersecting with writesMask makes the no-startable-write case O(1):
// the queue walk only runs when it is guaranteed to start something.
func (ch *channel) tryWriteMask(now timing.Time, freeWrite uint64) bool {
	freeWrite &= ch.writesMask
	if freeWrite == 0 {
		return false
	}
	for i, r := range ch.queues[WriteReq] {
		if freeWrite&(1<<uint(r.loc.Bank)) != 0 {
			ch.dequeue(WriteReq, i, now)
			ch.startWrite(r, now)
			return true
		}
	}
	return false
}

// pickRead selects the next read per FR-FCFS: the oldest row-buffer hit
// on a serviceable bank, else the oldest read on a serviceable bank.
// Row misses additionally require a tFAW activation slot.
func (ch *channel) pickRead(now timing.Time) int {
	q := ch.queues[ReadReq]
	if len(q) == 0 {
		return -1
	}
	// The tFAW admission check is loop-invariant; hoist it.
	actOK := ch.actAllowedAt(now) <= now
	oldest := -1
	for i, r := range q {
		b := &ch.banks[r.loc.Bank]
		if !ch.bankFreeForRead(r.loc.Bank, now) {
			continue
		}
		if b.hasOpen && b.openTag == r.rowTag {
			return i // row-buffer hit wins immediately (queue is FIFO-ordered)
		}
		if oldest < 0 && actOK {
			oldest = i
		}
	}
	return oldest
}

// pickReadMask is pickRead against a precomputed free-for-read mask.
// Intersecting with readsMask makes the no-serviceable-read case O(1).
func (ch *channel) pickReadMask(now timing.Time, freeRead uint64) int {
	freeRead &= ch.readsMask
	if freeRead == 0 {
		return -1
	}
	q := ch.queues[ReadReq]
	actOK := ch.actAllowedAt(now) <= now
	oldest := -1
	for i, r := range q {
		if freeRead&(1<<uint(r.loc.Bank)) == 0 {
			continue
		}
		b := &ch.banks[r.loc.Bank]
		if b.hasOpen && b.openTag == r.rowTag {
			return i // row-buffer hit wins immediately (queue is FIFO-ordered)
		}
		if oldest < 0 && actOK {
			oldest = i
		}
	}
	return oldest
}

// actAllowedAt returns the earliest time a new activation may issue under
// the tFAW window.
func (ch *channel) actAllowedAt(now timing.Time) timing.Time {
	earliest := ch.actTimes[ch.actIdx] + ch.ctl.cfg.TFAW
	if earliest < now {
		return now
	}
	return earliest
}

func (ch *channel) recordACT(t timing.Time) {
	ch.actTimes[ch.actIdx] = t
	ch.actIdx = (ch.actIdx + 1) % len(ch.actTimes)
}

// dropBlockWrite decrements the read-forwarding block index.
func (ch *channel) dropBlockWrite(addr uint64) {
	if ch.blockWrites == nil {
		return
	}
	blk := addr &^ 63
	if n := ch.blockWrites[blk] - 1; n > 0 {
		ch.blockWrites[blk] = n
	} else {
		delete(ch.blockWrites, blk)
	}
}

// dequeue removes index i of the given queue, maintains the per-bank and
// per-block indexes, and wakes space waiters.
func (ch *channel) dequeue(kind RequestKind, i int, now timing.Time) {
	q := ch.queues[kind]
	r := q[i]
	switch kind {
	case ReadReq:
		if ch.readsPerBank[r.loc.Bank]--; ch.readsPerBank[r.loc.Bank] == 0 {
			ch.readsMask &^= 1 << uint(r.loc.Bank)
		}
	case WriteReq:
		if ch.writesPerBank[r.loc.Bank]--; ch.writesPerBank[r.loc.Bank] == 0 {
			ch.writesMask &^= 1 << uint(r.loc.Bank)
		}
		ch.dropBlockWrite(r.Addr)
	default:
		if ch.refreshPerBank[r.loc.Bank]--; ch.refreshPerBank[r.loc.Bank] == 0 {
			ch.refreshMask &^= 1 << uint(r.loc.Bank)
		}
		ch.dropBlockWrite(r.Addr)
	}
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	ch.queues[kind] = q[:len(q)-1]
	if len(ch.spaceWaiters[kind]) > 0 && len(ch.queues[kind]) < ch.ctl.queueCap(kind) {
		waiters := ch.spaceWaiters[kind]
		// Hand the registration list a recycled backing array (the one
		// the previous delivery finished with) so OnSpace appends stop
		// allocating in steady state; the captured slice is owned
		// exclusively by its delivery event.
		ch.spaceWaiters[kind] = ch.waiterSpare[kind]
		ch.waiterSpare[kind] = nil
		// Deliver on a fresh event: waiters re-enqueue requests, which
		// must not re-enter the scheduler while it is mid-scan.
		ch.eq.Schedule(now, func(t timing.Time) {
			for i, fn := range waiters {
				waiters[i] = nil
				fn(t)
			}
			ch.waiterSpare[kind] = waiters[:0]
		})
	}
}

// startRead occupies the bank and bus for a read transaction.
func (ch *channel) startRead(r *Request, now timing.Time) {
	cfg := &ch.ctl.cfg
	b := &ch.banks[r.loc.Bank]

	dataAt := now
	if b.hasOpen && b.openTag == r.rowTag {
		ch.ctl.stats.RowBufHits++
	} else {
		ch.ctl.stats.RowBufMisses++
		ch.recordACT(now)
		dataAt += cfg.TRCD
		b.openTag = r.rowTag
		b.hasOpen = true
	}
	dataAt += cfg.TCAS
	xferStart := timing.Max(dataAt, ch.busFreeAt)
	done := xferStart + cfg.BusXfer
	ch.busFreeAt = done
	ch.ctl.stats.BankBusy += done - now
	ch.bankFree[r.loc.Bank] = done
	ch.busyMask |= 1 << uint(r.loc.Bank)

	// ECC inspection: a correction stall delays data delivery (and counts
	// against read latency) but the bank and bus are released at transfer
	// end — correction happens in the controller's decode pipeline.
	if ch.ctl.ri != nil {
		done += ch.ctl.ri.OnDemandRead(r.Addr, done)
	}
	ch.kickAt[r.loc.Bank] = done

	lat := done - r.enqueuedAt
	ch.ctl.stats.ReadsServed++
	ch.ctl.stats.ReadLatencySum += lat
	if lat > ch.ctl.stats.ReadLatencyMax {
		ch.ctl.stats.ReadLatencyMax = lat
	}
	if r.pooled {
		ch.ctl.trackFlight(r, done, ch.eq.Schedule(done, r.doneFn).Seq())
		return
	}
	ch.eq.Schedule(done, func(t timing.Time) {
		ch.ctl.rec.RecordRead(r.Addr)
		if r.OnDone != nil {
			r.OnDone(t)
		}
		ch.kick(t)
	})
}

// acquireWrite returns an inflight-write tracker from the channel pool.
func (ch *channel) acquireWrite() *inflightWrite {
	if n := len(ch.wrFree); n > 0 {
		wr := ch.wrFree[n-1]
		ch.wrFree[n-1] = nil
		ch.wrFree = ch.wrFree[:n-1]
		return wr
	}
	wr := &inflightWrite{}
	wr.completeFn = func(t timing.Time) { ch.completeWrite(wr, t) }
	wr.pauseFn = func(t timing.Time) { ch.pauseAt(wr, t) }
	return wr
}

// releaseWrite resets and recycles an inflight-write tracker.
func (ch *channel) releaseWrite(wr *inflightWrite) {
	wr.req = nil
	wr.paused, wr.pausePending, wr.zombie, wr.runHasReset = false, false, false, false
	wr.setsLeft = 0
	wr.completion = timing.EventRef{}
	ch.wrFree = append(ch.wrFree, wr)
}

// startWrite begins a demand write or refresh pulse (write-through: the
// row buffer is bypassed and left untouched).
func (ch *channel) startWrite(r *Request, now timing.Time) {
	cfg := &ch.ctl.cfg
	b := &ch.banks[r.loc.Bank]

	xferStart := timing.Max(now, ch.busFreeAt)
	pulseStart := xferStart + cfg.BusXfer
	ch.busFreeAt = pulseStart

	wr := ch.acquireWrite()
	wr.req = r
	wr.bank = r.loc.Bank
	wr.runStart = pulseStart
	wr.runHasReset = true
	wr.setsLeft = r.Mode.Sets()
	b.wr = wr
	done := wr.completionTime()
	ch.bankFree[r.loc.Bank] = done
	ch.kickAt[r.loc.Bank] = done
	ch.busyMask |= 1 << uint(r.loc.Bank)
	ch.pausableMask |= 1 << uint(r.loc.Bank)
	ch.wrMask |= 1 << uint(r.loc.Bank)
	ch.ctl.stats.BankBusy += done - now
	wr.completion = ch.eq.Schedule(done, wr.completeFn)
}

// resumeWrite restarts a paused write's remaining SET iterations.
func (ch *channel) resumeWrite(wr *inflightWrite, now timing.Time) {
	wr.paused = false
	ch.pausedMask &^= 1 << uint(wr.bank)
	ch.pausableMask |= 1 << uint(wr.bank)
	wr.runStart = now
	wr.runHasReset = false
	done := wr.completionTime()
	ch.bankFree[wr.bank] = done
	ch.kickAt[wr.bank] = done
	ch.busyMask |= 1 << uint(wr.bank)
	ch.ctl.stats.BankBusy += done - now
	wr.completion = ch.eq.Schedule(done, wr.completeFn)
}

// requestPause arranges for wr to pause at its next iteration boundary.
func (ch *channel) requestPause(wr *inflightWrite, now timing.Time) {
	boundary, useful := wr.pauseBoundary(now)
	if !useful {
		return
	}
	wr.pausePending = true
	ch.pausableMask &^= 1 << uint(wr.bank)
	wr.pauseEvAt = boundary
	wr.pauseEvSeq = ch.eq.Schedule(boundary, wr.pauseFn).Seq()
}

// pauseAt suspends wr at boundary time t (if it is still running).
func (ch *channel) pauseAt(wr *inflightWrite, t timing.Time) {
	wr.pausePending = false
	if wr.zombie {
		// The write completed at this same instant (completion events
		// sort before the later-scheduled pause); recycle the tracker
		// now that the pause callback has drained.
		ch.releaseWrite(wr)
		return
	}
	if wr.paused || !wr.completion.Valid() {
		return // completed or already paused in the meantime
	}
	if wr.completionTime() <= t {
		return // completion event at this same instant will handle it
	}
	ch.eq.Cancel(wr.completion)
	wr.completion = timing.EventRef{}
	wr.setsLeft -= wr.setsDoneBy(t)
	wr.runHasReset = false
	wr.paused = true
	ch.pausedMask |= 1 << uint(wr.bank)
	ch.bankFree[wr.bank] = t
	ch.ctl.stats.WritePauses++
	ch.kick(t)
}

// completeWrite finishes a write or refresh pulse.
func (ch *channel) completeWrite(wr *inflightWrite, t timing.Time) {
	wr.completion = timing.EventRef{}
	b := &ch.banks[wr.bank]
	b.wr = nil
	ch.pausableMask &^= 1 << uint(wr.bank)
	ch.wrMask &^= 1 << uint(wr.bank)
	r := wr.req
	lat := t - r.enqueuedAt
	if r.Kind == RefreshReq {
		ch.ctl.stats.RefreshesServed++
		ch.ctl.stats.RefreshLatencySum += lat
		if lat > ch.ctl.stats.RefreshLatencyMax {
			ch.ctl.stats.RefreshLatencyMax = lat
		}
	} else {
		ch.ctl.stats.WritesServed++
		ch.ctl.stats.WriteLatencySum += lat
		if lat > ch.ctl.stats.WriteLatencyMax {
			ch.ctl.stats.WriteLatencyMax = lat
		}
	}
	if wr.pausePending {
		// A pause callback for this same instant is still queued; the
		// tracker is recycled there, never while a callback can see it.
		wr.zombie = true
	} else {
		ch.releaseWrite(wr)
	}
	ch.ctl.rec.RecordWrite(r.Addr, r.Mode, r.Wear)
	if r.OnDone != nil {
		r.OnDone(t)
	}
	ch.ctl.release(r)
	ch.kick(t)
}

// wakeup is the (once-bound) wakeup event body.
func (ch *channel) wakeup(t timing.Time) {
	ch.wakeupEv = timing.EventRef{}
	ch.kick(t)
}

// armWakeup schedules a re-scan at the earliest future instant some
// pending work could start and no already-scheduled event kicks the
// channel anyway. A start waits on a bank freeing (bankFree) or on a
// tFAW activation slot (actAllowedAt); nothing in tryStart waits on the
// bus. A bank whose kickAt equals its bankFree is skipped: its
// completion event was scheduled before this wakeup could be, so it
// fires first at that instant and kicks the channel itself, and the
// wakeup would find nothing left to start. What remains is the ECC
// stall (the bank frees before its read completes) and tFAW expiry.
func (ch *channel) armWakeup(now timing.Time) {
	pendingWork := false
	for _, q := range ch.queues {
		if len(q) > 0 {
			pendingWork = true
			break
		}
	}
	if !pendingWork {
		if !ch.wideBanks {
			pendingWork = ch.pausedMask != 0
		} else {
			for i := range ch.banks {
				if ch.banks[i].wr != nil && ch.banks[i].wr.paused {
					pendingWork = true
					break
				}
			}
		}
	}
	if !pendingWork {
		return
	}
	at := timing.Forever
	if !ch.wideBanks {
		// kick pruned busyMask exact on entry and no time has passed
		// since, so every bit is a bank with bankFree in the future.
		for m := ch.busyMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if free := ch.bankFree[i]; free < at && ch.kickAt[i] != free {
				at = free
			}
		}
	} else {
		for i, free := range ch.bankFree {
			if free > now && free < at && ch.kickAt[i] != free {
				at = free
			}
		}
	}
	if t := ch.actAllowedAt(now); t > now && t < at {
		at = t
	}
	if at == timing.Forever {
		return // everything is free; nothing further will unblock by time alone
	}
	if ch.wakeupEv.Valid() {
		if ch.wakeupAt <= at {
			return // an earlier or equal wakeup is already armed
		}
		// A later wakeup is pending: replace it, or the heap fills
		// with dead events.
		ch.eq.Cancel(ch.wakeupEv)
	}
	ch.wakeupAt = at
	ch.wakeupEv = ch.eq.Schedule(at, ch.wakeupFn)
}
