// Package cpu models the processor cores of Table IV with a first-order
// out-of-order (interval) model: an 8-issue core commits non-memory
// instructions at the workload's base CPI, overlaps LLC-miss loads up to
// its MSHR/MLP budget, stalls when the reorder buffer fills behind the
// oldest outstanding miss, and retires stores asynchronously. This class
// of model reproduces the memory-latency and bandwidth sensitivity of a
// detailed OoO core at a tiny fraction of the cost, which is what the
// paper's experiments need: the write-mode policies differ only through
// the memory system.
package cpu

import (
	"fmt"

	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// AccessReply is the backend's answer to one data access.
type AccessReply struct {
	// Stall is synchronous on-chip latency to charge the core (partial
	// exposure of L2/LLC hit latency).
	Stall timing.Time
	// Pending means the access misses to memory; the done callback
	// passed to Access fires when data returns.
	Pending bool
	// Throttle tells the core to stop issuing until its resume
	// callback fires (memory-side backpressure, e.g. a full write
	// queue blocking LLC evictions).
	Throttle bool
}

// Backend is the memory system a core issues accesses into. Access must
// always accept the operation: backpressure is expressed via Throttle
// plus the core's resume callback, never by rejection (so the core never
// needs to replay an operation whose cache side effects already
// happened). instNum is the issuing instruction's commit number: with
// (core, store, instNum) a state snapshot can rebuild the done callback
// of an in-flight miss via MissCallback.
type Backend interface {
	Access(core int, addr uint64, store bool, instNum uint64, now timing.Time, done func(timing.Time)) AccessReply
}

// Config sizes one core.
type Config struct {
	ID         int
	ROB        int // reorder-buffer window (instructions); Table IV core: 192
	MSHRs      int // outstanding L1 misses (Table IV: 8)
	Quantum    timing.Time
	MaxOpsStep int // safety valve per step call
}

// DefaultConfig returns the Table IV core: 8-issue OoO, 192-entry window,
// 8 MSHRs. The quantum bounds how far a core runs ahead of the global
// event clock between reschedules (cross-core interleaving granularity
// for on-chip state; memory-level timing stays exact).
func DefaultConfig(id int) Config {
	return Config{ID: id, ROB: 192, MSHRs: 8, Quantum: 2 * timing.Microsecond, MaxOpsStep: 1 << 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ROB <= 0 || c.MSHRs <= 0 || c.Quantum <= 0 || c.MaxOpsStep <= 0 {
		return fmt.Errorf("cpu: invalid config %+v", c)
	}
	return nil
}

// Stats reports a core's progress.
type Stats struct {
	Instructions  uint64
	MemOps        uint64
	Stores        uint64
	LoadMisses    uint64 // LLC-miss loads
	StoreMisses   uint64
	StallROB      uint64 // times the core stalled on a full window
	StallMSHR     uint64
	StallThrottle uint64
	LocalTime     timing.Time
}

// IPC returns committed instructions per CPU cycle.
func (s Stats) IPC() float64 {
	if s.LocalTime == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.LocalTime.CPUCycles())
}

// Core is one simulated processor core.
type Core struct {
	cfg Config
	gen trace.Stream
	be  Backend
	eq  *timing.EventQueue

	cpiPerInst timing.Time // BaseCPI in picoseconds, rounded
	baseCPI    float64     // cached: Stream guarantees it is constant
	opBuf      trace.Op    // reusable Next buffer (see step)
	cpiFrac    float64     // fractional picosecond accumulator
	maxMLP     int

	localTime timing.Time
	stats     Stats

	loadMissInsts []uint64 // instruction numbers of outstanding load misses
	storeMisses   int
	throttled     bool
	stopAt        timing.Time
	stepArmed     bool
	stepAt        timing.Time // when the armed step fires (snapshot bookkeeping)
	stepSeq       int64       // its event sequence number

	stepFn  func(timing.Time) // bound once: step (avoids a closure per arm)
	tokFree []*missToken      // recycled miss-completion tokens
}

// missToken carries one outstanding miss's completion context. Tokens
// are pooled per core with a once-bound callback, so steady-state misses
// allocate no closures.
type missToken struct {
	c       *Core
	store   bool
	instNum uint64
	fn      func(timing.Time)
}

// acquireToken returns a miss token bound to this core.
func (c *Core) acquireToken(store bool, instNum uint64) *missToken {
	var tok *missToken
	if n := len(c.tokFree); n > 0 {
		tok = c.tokFree[n-1]
		c.tokFree[n-1] = nil
		c.tokFree = c.tokFree[:n-1]
	} else {
		tok = &missToken{c: c}
		tok.fn = func(t timing.Time) {
			store, instNum := tok.store, tok.instNum
			tok.c.tokFree = append(tok.c.tokFree, tok)
			tok.c.memDone(store, instNum, t)
		}
	}
	tok.store, tok.instNum = store, instNum
	return tok
}

// releaseToken returns an unused token (the access hit on-chip).
func (c *Core) releaseToken(tok *missToken) {
	c.tokFree = append(c.tokFree, tok)
}

// New builds a core running gen against be, self-scheduling on eq.
func New(cfg Config, gen trace.Stream, be Backend, eq *timing.EventQueue) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || be == nil || eq == nil {
		return nil, fmt.Errorf("cpu: nil generator, backend or event queue")
	}
	mlp := cfg.MSHRs
	if m := gen.MaxMLP(); m > 0 && m < mlp {
		mlp = m
	}
	c := &Core{
		cfg:        cfg,
		gen:        gen,
		be:         be,
		eq:         eq,
		maxMLP:     mlp,
		baseCPI:    gen.BaseCPI(),
		cpiPerInst: timing.Time(gen.BaseCPI() * float64(timing.CPUCycle)),
		stopAt:     timing.Forever,
	}
	c.stepFn = c.step
	return c, nil
}

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats {
	s := c.stats
	s.LocalTime = c.localTime
	return s
}

// ID returns the core's index.
func (c *Core) ID() int { return c.cfg.ID }

// Start begins execution at the event queue's current time and runs
// until stopAt (set via StopAt) or forever.
func (c *Core) Start() {
	c.localTime = c.eq.Now()
	c.armStep(c.eq.Now())
}

// StopAt sets the simulation horizon: the core issues no work at or
// beyond this local time.
func (c *Core) StopAt(t timing.Time) { c.stopAt = t }

// Throttle blocks the core until Resume fires. The backend uses it when
// backpressure is discovered after Access has already returned (e.g. a
// writeback scheduled at the core's local time finds the write queue
// full).
func (c *Core) Throttle() { c.throttled = true }

// EnsureRunning re-arms a core that parked at a stop horizon: the local
// clock jumps forward to now (never backward) and a step is armed unless
// one is already pending or the core is waiting on a completion callback
// (which will arm it). Callers must first raise the horizon via StopAt,
// or the armed step parks again immediately.
func (c *Core) EnsureRunning(now timing.Time) {
	if c.localTime < now {
		c.localTime = now
	}
	if c.stepArmed || c.blocked() {
		return
	}
	c.armStep(now)
}

// Resume is the backpressure release callback: the backend calls it when
// a Throttle it issued to this core has cleared.
func (c *Core) Resume(now timing.Time) {
	if !c.throttled {
		return
	}
	c.throttled = false
	c.armStep(now)
}

// armStep schedules a step if none is armed.
func (c *Core) armStep(at timing.Time) {
	if c.stepArmed {
		return
	}
	c.scheduleStep(timing.Max(at, c.eq.Now()))
}

// scheduleStep unconditionally arms a step at the given time, recording
// (at, seq) so a snapshot can re-create the pending event on restore.
func (c *Core) scheduleStep(at timing.Time) {
	c.stepArmed = true
	c.stepAt = at
	c.stepSeq = c.eq.Schedule(at, c.stepFn).Seq()
}

// MissCallback mints the completion callback of an outstanding miss
// identified by (store, instNum): the exact closure Access handed to
// the backend when the miss issued, reconstructed during restore.
func (c *Core) MissCallback(store bool, instNum uint64) func(timing.Time) {
	return c.acquireToken(store, instNum).fn
}

// blocked reports whether the core cannot issue and must wait for a
// callback.
func (c *Core) blocked() bool {
	if c.throttled {
		return true
	}
	if len(c.loadMissInsts) > 0 && c.stats.Instructions-c.loadMissInsts[0] >= uint64(c.cfg.ROB) {
		return true
	}
	if len(c.loadMissInsts) >= c.maxMLP {
		return true
	}
	if len(c.loadMissInsts)+c.storeMisses >= c.cfg.MSHRs {
		return true
	}
	return false
}

// step runs the core forward from the event time until it blocks, hits
// the quantum, or reaches the horizon.
func (c *Core) step(now timing.Time) {
	c.stepArmed = false
	if c.localTime < now {
		c.localTime = now
	}
	horizon := now + c.cfg.Quantum
	// The op buffer lives on the Core: a step-local would escape through
	// the trace.Stream interface call and cost one heap Op per step.
	op := &c.opBuf
	for n := 0; n < c.cfg.MaxOpsStep; n++ {
		if c.localTime >= c.stopAt {
			return // horizon reached; do not rearm
		}
		if c.blocked() {
			c.noteStall()
			return // a completion/resume callback will rearm
		}
		if c.localTime > horizon {
			c.armStep(c.localTime)
			return
		}

		c.gen.Next(op)
		c.advance(op.NonMem)
		c.stats.Instructions += uint64(op.NonMem) + 1
		c.stats.MemOps++
		if op.Store {
			c.stats.Stores++
		}

		instNum := c.stats.Instructions
		store := op.Store
		tok := c.acquireToken(store, instNum)
		reply := c.be.Access(c.cfg.ID, op.Addr, store, instNum, c.localTime, tok.fn)
		c.localTime += reply.Stall
		if reply.Pending {
			if store {
				c.stats.StoreMisses++
				c.storeMisses++
			} else {
				c.stats.LoadMisses++
				c.loadMissInsts = append(c.loadMissInsts, instNum)
			}
		} else {
			// The access completed on-chip; the callback will never
			// fire, so the token can be reused immediately.
			c.releaseToken(tok)
		}
		if reply.Throttle {
			c.throttled = true
		}
	}
	// Safety valve: extremely hit-heavy phases could loop too long in
	// one event; yield and continue.
	c.armStep(c.localTime)
}

// advance charges n non-memory instructions plus the memory op issue slot
// at the workload's base CPI, accumulating sub-picosecond remainders.
func (c *Core) advance(nonMem int) {
	insts := nonMem + 1
	c.localTime += timing.Time(insts) * c.cpiPerInst
	// Track the fractional picoseconds lost to integer rounding so the
	// long-run rate matches BaseCPI exactly.
	exact := float64(insts) * c.baseCPI * float64(timing.CPUCycle)
	c.cpiFrac += exact - float64(timing.Time(insts)*c.cpiPerInst)
	if c.cpiFrac >= 1 {
		whole := timing.Time(c.cpiFrac)
		c.localTime += whole
		c.cpiFrac -= float64(whole)
	}
}

// memDone handles a memory completion for this core.
func (c *Core) memDone(store bool, instNum uint64, now timing.Time) {
	if store {
		c.storeMisses--
	} else {
		for i, v := range c.loadMissInsts {
			if v == instNum {
				c.loadMissInsts = append(c.loadMissInsts[:i], c.loadMissInsts[i+1:]...)
				break
			}
		}
	}
	c.armStep(now)
}

// noteStall classifies why the core is blocked, for the stats counters.
func (c *Core) noteStall() {
	switch {
	case c.throttled:
		c.stats.StallThrottle++
	case len(c.loadMissInsts) > 0 && c.stats.Instructions-c.loadMissInsts[0] >= uint64(c.cfg.ROB):
		c.stats.StallROB++
	default:
		c.stats.StallMSHR++
	}
}
