package cache

import (
	"fmt"

	"rrmpcm/internal/timing"
)

// Registration is the LLC Write Registration message of paper §IV-B: sent
// to the RRM for every LLC write operation (an L2 dirty victim arriving at
// the LLC), carrying whether the written LLC line was previously dirty.
type Registration struct {
	Addr     uint64
	WasDirty bool
}

// HierarchyConfig sizes the three levels of Table IV.
type HierarchyConfig struct {
	Cores int
	L1D   Config
	L1I   Config
	L2    Config
	LLC   Config
}

// DefaultHierarchyConfig returns the Table IV processor cache setup:
// 32 KB 4-way L1 I/D per core (2-cycle), 256 KB 8-way L2 per core
// (12-cycle), shared 6 MB 24-way LLC (35-cycle).
func DefaultHierarchyConfig() HierarchyConfig {
	cpu := timing.CPUCycle
	return HierarchyConfig{
		Cores: 4,
		L1D:   Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2 * cpu, MSHRs: 8},
		L1I:   Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2 * cpu, MSHRs: 8},
		L2:    Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, HitLatency: 12 * cpu, MSHRs: 12},
		LLC:   Config{Name: "LLC", SizeBytes: 6 << 20, Ways: 24, LineBytes: 64, HitLatency: 35 * cpu, MSHRs: 32},
	}
}

// Validate checks every level.
func (c HierarchyConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cache: %d cores", c.Cores)
	}
	for _, lv := range []Config{c.L1D, c.L1I, c.L2, c.LLC} {
		if err := lv.Validate(); err != nil {
			return err
		}
		if lv.LineBytes != c.LLC.LineBytes {
			return fmt.Errorf("cache: level %s line size %d differs from LLC %d",
				lv.Name, lv.LineBytes, c.LLC.LineBytes)
		}
	}
	return nil
}

// Level identifies where an access was satisfied.
type Level int

const (
	InL1 Level = iota + 1
	InL2
	InLLC
	InMemory
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case InL1:
		return "L1"
	case InL2:
		return "L2"
	case InLLC:
		return "LLC"
	case InMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Result reports everything one demand access did to the hierarchy.
// Fixed-size arrays keep the access path allocation-free; a single access
// can cascade at most two writebacks toward memory (the L1→L2 victim's
// LLC displacement and the demand fill's LLC displacement).
type Result struct {
	Hit Level // level that supplied the data; InMemory means LLC missed

	// Latency is the on-chip lookup latency to the point of service
	// (memory time, if any, is added by the simulator).
	Latency timing.Time

	// MemReadAddr is the block address to fetch when Hit == InMemory.
	MemReadAddr uint64

	// MemWrites are block addresses of dirty LLC victims that must be
	// written to PCM.
	MemWrites    [4]uint64
	NumMemWrites int

	// Registrations are the LLC write-registration messages this access
	// produced (L2 dirty victims written into the LLC).
	Registrations    [4]Registration
	NumRegistrations int
}

// Hierarchy wires per-core L1/L2 to a shared LLC.
type Hierarchy struct {
	cfg HierarchyConfig
	l1d []*Cache
	l1i []*Cache
	l2  []*Cache
	llc *Cache

	insts uint64 // retired instructions reported by the cores, for MPKI
}

// NewHierarchy builds the configured hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, llc: New(cfg.LLC)}
	for i := 0; i < cfg.Cores; i++ {
		d, ic, l2 := cfg.L1D, cfg.L1I, cfg.L2
		d.Name = fmt.Sprintf("L1D.%d", i)
		ic.Name = fmt.Sprintf("L1I.%d", i)
		l2.Name = fmt.Sprintf("L2.%d", i)
		h.l1d = append(h.l1d, New(d))
		h.l1i = append(h.l1i, New(ic))
		h.l2 = append(h.l2, New(l2))
	}
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// LLC exposes the shared cache (read-only use: stats, lookups).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// L1DStats, L2Stats return per-core level stats.
func (h *Hierarchy) L1DStats(core int) Stats { return h.l1d[core].Stats() }

// L2Stats returns the private L2 stats of a core.
func (h *Hierarchy) L2Stats(core int) Stats { return h.l2[core].Stats() }

// CountInstructions adds retired instructions for MPKI accounting.
func (h *Hierarchy) CountInstructions(n uint64) { h.insts += n }

// LLCMPKI returns LLC misses per thousand retired instructions.
func (h *Hierarchy) LLCMPKI() float64 {
	if h.insts == 0 {
		return 0
	}
	return float64(h.llc.Stats().Misses) / float64(h.insts) * 1000
}

// Instructions returns the instruction count reported so far.
func (h *Hierarchy) Instructions() uint64 { return h.insts }

// Access performs a data access for core against the hierarchy, cascading
// writebacks level by level. Instruction fetches pass ifetch=true.
func (h *Hierarchy) Access(core int, addr uint64, kind AccessKind, ifetch bool) Result {
	var r Result
	h.AccessInto(core, addr, kind, ifetch, &r)
	return r
}

// AccessInto is Access writing into a caller-owned Result, for hot paths
// that recycle the (fairly large) struct instead of copying it up the
// stack. *r is fully overwritten.
func (h *Hierarchy) AccessInto(core int, addr uint64, kind AccessKind, ifetch bool, r *Result) {
	*r = Result{}
	l1 := h.l1d[core]
	if ifetch {
		l1 = h.l1i[core]
	}
	r.Latency = l1.cfg.HitLatency

	hit, victim, evicted := l1.Access(addr, kind)
	if evicted && victim.Dirty {
		h.writebackToL2(core, victim.Addr, r)
	}
	if hit {
		r.Hit = InL1
		return
	}

	l2 := h.l2[core]
	r.Latency += l2.cfg.HitLatency
	hit2, v2, ev2 := l2.Access(addr, Load) // fills below L1 are clean
	if ev2 && v2.Dirty {
		h.writebackToLLC(v2.Addr, r)
	}
	if hit2 {
		r.Hit = InL2
		return
	}

	r.Latency += h.llc.cfg.HitLatency
	hit3, v3, ev3 := h.llc.Access(addr, Load)
	if ev3 && v3.Dirty {
		h.memWrite(v3.Addr, r)
	}
	if hit3 {
		r.Hit = InLLC
		return
	}
	r.Hit = InMemory
	r.MemReadAddr = h.llc.lineAddr(addr)
}

// writebackToL2 pushes an L1 dirty victim into the core's L2.
func (h *Hierarchy) writebackToL2(core int, addr uint64, r *Result) {
	_, _, victim, evicted := h.l2[core].WritebackInto(addr)
	if evicted && victim.Dirty {
		h.writebackToLLC(victim.Addr, r)
	}
}

// writebackToLLC pushes an L2 dirty victim into the LLC, emitting the RRM
// write-registration message.
func (h *Hierarchy) writebackToLLC(addr uint64, r *Result) {
	_, wasDirty, victim, evicted := h.llc.WritebackInto(addr)
	if r.NumRegistrations < len(r.Registrations) {
		r.Registrations[r.NumRegistrations] = Registration{Addr: addr, WasDirty: wasDirty}
		r.NumRegistrations++
	}
	if evicted && victim.Dirty {
		h.memWrite(victim.Addr, r)
	}
}

func (h *Hierarchy) memWrite(addr uint64, r *Result) {
	if r.NumMemWrites < len(r.MemWrites) {
		r.MemWrites[r.NumMemWrites] = addr
		r.NumMemWrites++
	}
}
