package sim

import (
	"rrmpcm/internal/cache"
	"rrmpcm/internal/cpu"
	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// functionalMLP is the effective miss overlap assumed by functional
// fast-forward when charging LLC misses as a flat synchronous stall:
// Table IV cores overlap up to 8 misses (MSHRs), and the measured
// effective per-miss cost of the detailed model on the shipped
// workloads sits near unloaded-latency/4 (row-buffer hits offset the
// un-overlapped tail). Calibrated so the functional machine's
// instruction rate per simulated second tracks the detailed one's —
// what keeps fast-forwarded architectural state on the detailed
// trajectory between sampling windows.
const functionalMLP = 4

// backend glues the cores to the hierarchy, write policy and memory
// controller. It is the cpu.Backend implementation, the controller's
// accounting Recorder, and the RRM's RefreshIssuer.
//
// Backpressure: when a dirty LLC victim cannot enter its channel's write
// queue it is parked in a per-channel overflow list and every core that
// produced overflow is throttled until all overflow drains — this models
// the LLC blocking on eviction, which is how slow writes reach around and
// strangle the cores in the paper's Static-7 results.
type backend struct {
	sys *System

	// Per-channel overflow/pending lists, drained on queue space.
	overflowWrites  [][]*memctrl.Request
	overflowReads   [][]*memctrl.Request
	pendingRefresh  [][]*memctrl.Request
	spaceArmed      [3][]bool // [kind][channel]
	totalOverflowWB int

	throttled []bool // per core
	stopped   bool   // end of run: drop further refreshes

	// flatReadLat is the effective LLC-miss cost charged synchronously
	// in functional fast-forward mode, where the controller is
	// bypassed: the unloaded PCM read latency (activate + column access
	// + bus transfer) divided by the effective memory-level parallelism
	// the interval core model would overlap. Without the MLP division
	// the functional machine executes several times fewer instructions
	// per simulated second than the detailed one, so its architectural
	// state (cache dirtiness, RRM hot set) would lag the detailed
	// trajectory it must approximate.
	flatReadLat timing.Time
	// flatBase is the configured (unscaled) flat latency; the sampler's
	// feedback loop clamps its adjustments relative to it.
	flatBase timing.Time
	// flatDramLat is the functional-mode cost of a hybrid staging-tier
	// hit (unloaded DRAM read latency over the same MLP divisor). Zero
	// for PCM-only runs; the sampler's feedback loop leaves it fixed —
	// DRAM hits are latency-stable.
	flatDramLat timing.Time

	// Peak backlog of RRM refreshes, for the deadline discussion.
	maxRefreshBacklog int

	// subFree recycles delayed-submission envelopes so the per-access
	// Schedule closures disappear from the steady state. liveSubs tracks
	// the envelopes whose delivery event is scheduled, so state snapshots
	// can enumerate them (swap-removal keeps it O(1)).
	subFree  []*submission
	liveSubs []*submission
}

// submission is one request waiting for its core-local delivery time.
// The callback is bound once per pooled object; at/seq/idx record the
// scheduled delivery event for snapshots.
type submission struct {
	b      *backend
	req    *memctrl.Request
	coreID int
	fn     func(timing.Time)
	at     timing.Time
	seq    int64
	idx    int
}

func newBackend(sys *System) *backend {
	ch := sys.cfg.Device.Channels
	b := &backend{
		sys:            sys,
		overflowWrites: make([][]*memctrl.Request, ch),
		overflowReads:  make([][]*memctrl.Request, ch),
		pendingRefresh: make([][]*memctrl.Request, ch),
		throttled:      make([]bool, len(sys.cfg.Workload.Cores)),
		flatReadLat: (sys.cfg.Ctrl.TRCD + sys.cfg.Ctrl.TCAS + sys.cfg.Ctrl.BusXfer) /
			timing.Time(functionalMLP),
	}
	b.flatBase = b.flatReadLat
	if hc := sys.cfg.Hybrid; hc != nil {
		b.flatDramLat = (hc.DRAM.TRCD + hc.DRAM.TCAS + hc.DRAM.BusXfer) /
			timing.Time(functionalMLP)
	}
	for k := range b.spaceArmed {
		b.spaceArmed[k] = make([]bool, ch)
	}
	return b
}

// Access implements cpu.Backend.
func (b *backend) Access(coreID int, addr uint64, store bool, instNum uint64, now timing.Time, done func(timing.Time)) cpu.AccessReply {
	kind := cache.Load
	if store {
		kind = cache.Store
	}
	var res cache.Result
	b.sys.hier.AccessInto(coreID, addr, kind, false, &res)

	// LLC write registrations feed the policy (RRM's learning input).
	for i := 0; i < res.NumRegistrations; i++ {
		reg := res.Registrations[i]
		b.sys.policy.RegisterLLCWrite(reg.Addr, reg.WasDirty, now)
	}

	var reply cpu.AccessReply
	switch res.Hit {
	case cache.InL1:
		// Fully pipelined.
	case cache.InL2, cache.InLLC:
		reply.Stall = timing.Time(float64(res.Latency) * b.sys.cfg.HitStallFactor)
	case cache.InMemory:
		if b.sys.functional {
			// Functional fast-forward: charge the unloaded read latency
			// synchronously and account the block read now. The
			// controller (and the reliability read-path inspection it
			// hosts) is bypassed. Hybrid staging-tier hits advance the
			// migration state and cost the DRAM flat latency instead.
			if m := b.sys.migr; m != nil && m.FunctionalRead(res.MemReadAddr, now) {
				reply.Stall = b.flatDramLat
				break
			}
			reply.Stall = b.flatReadLat
			b.RecordRead(res.MemReadAddr)
			break
		}
		reply.Pending = true
		req := b.sys.dev.AcquireRequest()
		req.Kind, req.Addr, req.OnDone = memctrl.ReadReq, res.MemReadAddr, done
		// Owner identity lets a state snapshot rebuild the callback
		// (cpu.Core.MissCallback) after a restore.
		req.OwnerCore, req.OwnerStore, req.OwnerInst = coreID, store, instNum
		b.submitAt(now, req, coreID)
	}

	// Dirty LLC victims become memory writes with a policy-chosen mode.
	for i := 0; i < res.NumMemWrites; i++ {
		wb := res.MemWrites[i]
		mode := b.sys.policy.DecideWriteMode(wb, now)
		if b.sys.functional {
			// Instant completion: wear/energy/retention/reliability
			// state advance, queueing is skipped. Writes the hybrid
			// staging tier absorbs never touch the PCM state.
			if m := b.sys.migr; m != nil && m.FunctionalWrite(wb, now) {
				continue
			}
			b.RecordWrite(wb, mode, pcm.WearDemandWrite)
			continue
		}
		req := b.sys.dev.AcquireRequest()
		req.Kind, req.Addr, req.Mode, req.Wear = memctrl.WriteReq, wb, mode, pcm.WearDemandWrite
		b.submitAt(now, req, coreID)
	}
	if b.totalOverflowWB > 0 {
		reply.Throttle = true
		b.throttled[coreID] = true
	}
	return reply
}

// submitAt delivers a request to the controller at the core-local time
// now (which is at or after the event clock).
func (b *backend) submitAt(now timing.Time, req *memctrl.Request, coreID int) {
	var s *submission
	if n := len(b.subFree); n > 0 {
		s = b.subFree[n-1]
		b.subFree[n-1] = nil
		b.subFree = b.subFree[:n-1]
	} else {
		s = &submission{b: b}
		s.fn = func(t timing.Time) {
			s.b.untrackSub(s)
			req, coreID := s.req, s.coreID
			s.req = nil
			s.b.subFree = append(s.b.subFree, s)
			s.b.submit(req, coreID, t)
		}
	}
	s.req, s.coreID = req, coreID
	s.at = now
	s.seq = b.sys.eq.Schedule(now, s.fn).Seq()
	s.idx = len(b.liveSubs)
	b.liveSubs = append(b.liveSubs, s)
}

// untrackSub removes a firing submission from the live list.
func (b *backend) untrackSub(s *submission) {
	i := s.idx
	last := len(b.liveSubs) - 1
	b.liveSubs[i] = b.liveSubs[last]
	b.liveSubs[i].idx = i
	b.liveSubs[last] = nil
	b.liveSubs = b.liveSubs[:last]
}

// submit enqueues or parks a request.
func (b *backend) submit(req *memctrl.Request, coreID int, now timing.Time) {
	if b.sys.dev.TryEnqueue(req) {
		return
	}
	ch := b.sys.dev.ChannelOf(req.Addr)
	switch req.Kind {
	case memctrl.WriteReq:
		b.overflowWrites[ch] = append(b.overflowWrites[ch], req)
		b.totalOverflowWB++
		if coreID >= 0 {
			b.throttled[coreID] = true
			b.sys.cores[coreID].Throttle()
		}
	case memctrl.ReadReq:
		b.overflowReads[ch] = append(b.overflowReads[ch], req)
	case memctrl.RefreshReq:
		b.pendingRefresh[ch] = append(b.pendingRefresh[ch], req)
		if n := len(b.pendingRefresh[ch]); n > b.maxRefreshBacklog {
			b.maxRefreshBacklog = n
		}
	}
	b.armSpace(req.Kind, ch)
}

// armSpace subscribes (once) to queue-space notifications.
func (b *backend) armSpace(kind memctrl.RequestKind, ch int) {
	if b.spaceArmed[kind][ch] {
		return
	}
	b.spaceArmed[kind][ch] = true
	b.sys.dev.OnSpace(kind, ch, func(now timing.Time) {
		b.spaceArmed[kind][ch] = false
		b.drain(kind, ch, now)
	})
}

// drain moves parked requests of one kind into the freed queue.
func (b *backend) drain(kind memctrl.RequestKind, ch int, now timing.Time) {
	var list *[]*memctrl.Request
	switch kind {
	case memctrl.WriteReq:
		list = &b.overflowWrites[ch]
	case memctrl.ReadReq:
		list = &b.overflowReads[ch]
	default:
		list = &b.pendingRefresh[ch]
	}
	for len(*list) > 0 {
		req := (*list)[0]
		if !b.sys.dev.TryEnqueue(req) {
			b.armSpace(kind, ch)
			return
		}
		copy(*list, (*list)[1:])
		(*list)[len(*list)-1] = nil
		*list = (*list)[:len(*list)-1]
		if kind == memctrl.WriteReq {
			b.totalOverflowWB--
		}
	}
	if kind == memctrl.WriteReq && b.totalOverflowWB == 0 {
		b.resumeAll(now)
	}
}

// resumeAll releases every throttled core.
func (b *backend) resumeAll(now timing.Time) {
	for id, th := range b.throttled {
		if th {
			b.throttled[id] = false
			b.sys.cores[id].Resume(now)
		}
	}
}

// IssueRefresh implements core.RefreshIssuer for the RRM.
func (b *backend) IssueRefresh(addr uint64, mode pcm.WriteMode, kind pcm.WearKind) {
	if b.stopped {
		return
	}
	if b.sys.functional {
		// Functional fast-forward: the refresh completes instantly (the
		// retention state machine is what matters, not queueing).
		b.RecordWrite(addr, mode, kind)
		return
	}
	req := b.sys.dev.AcquireRequest()
	req.Kind, req.Addr, req.Mode, req.Wear = memctrl.RefreshReq, addr, mode, kind
	b.submit(req, -1, b.sys.eq.Now())
}

// RecordWrite implements memctrl.Recorder.
func (b *backend) RecordWrite(addr uint64, mode pcm.WriteMode, kind pcm.WearKind) {
	b.sys.wear.RecordBlockWrite(addr, mode, kind)
	b.sys.energy.AddBlockWrite(mode, kind)
	b.sys.checker.onWrite(addr, mode, b.sys.eq.Now())
	if b.sys.rel != nil {
		// Every completed rewrite — demand write, RRM refresh, slow or
		// patrol refresh — scrubs the line's accumulated error state.
		b.sys.rel.OnWrite(addr, mode, kind, b.sys.eq.Now())
	}
}

// RecordRead implements memctrl.Recorder.
func (b *backend) RecordRead(addr uint64) {
	b.sys.energy.AddBlockRead()
	b.sys.checker.onRead(addr, b.sys.eq.Now())
}
