package core

import (
	"fmt"
	"math"
	"math/bits"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// RRMConfig sizes the Region Retention Monitor (paper §IV, Table IV).
type RRMConfig struct {
	Sets int // paper default: 256
	Ways int // paper default: 24

	// RegionBytes is the entry coverage size (one Retention Region);
	// default 4 KB, the x86-64 page size. Sensitivity study F13 varies
	// it from 2 KB to 16 KB.
	RegionBytes uint64
	// BlockBytes is the memory block size covered by one bit of the
	// short-retention vector (64 B).
	BlockBytes uint64

	// HotThreshold is the number of dirty LLC writes a region must
	// accumulate to be classified hot (default 16). Lower is more
	// aggressive: more 3-SETs writes, more RRM refresh wear.
	HotThreshold int

	// AccessLatency is the RRM lookup latency (4 CPU cycles).
	AccessLatency timing.Time

	// ShortMode is the fast, short-retention write used for hot blocks;
	// LongMode the slow, long-retention default.
	ShortMode pcm.WriteMode
	LongMode  pcm.WriteMode

	// FastRefreshInterval is the short-retention interrupt period. The
	// paper uses 2 s: 0.01 s before the 2.01 s retention of the
	// 3-SETs-Write expires.
	FastRefreshInterval timing.Time
	// DecayInterval is the decay tick period (0.125 s: 1/16 of the
	// fast-refresh interval, matching the 4-bit decay counter).
	DecayInterval timing.Time
	// DecayBits sizes the cyclic decay counter (4 bits: a full wrap
	// spans one fast-refresh interval).
	DecayBits int

	// RefreshSampling simulates only a deterministic 1-in-N subset of
	// selective refreshes in the memory controller (0 or 1 = all). The
	// simulator sets it to TimeScale: with the retention clock
	// accelerated N-fold, sampling 1/N of the blocks makes the
	// simulated refresh stream's bandwidth and count equal the real
	// ones exactly, instead of N-fold denser. Wear, energy and the
	// retention checker all follow the same subset.
	RefreshSampling uint64

	// RegisterCleanWrites disables the streaming-write filter: LLC
	// writes to clean lines also bump the dirty-write counter. Only
	// for ablation A2; the paper argues (§IV-D) this misclassifies
	// streaming regions as hot.
	RegisterCleanWrites bool
}

// DefaultRRMConfig returns the Table IV RRM: 256 sets, 24 ways, 4 KB
// regions (4x LLC coverage for the 6 MB LLC), hot_threshold 16.
func DefaultRRMConfig() RRMConfig {
	return RRMConfig{
		Sets:                256,
		Ways:                24,
		RegionBytes:         4 << 10,
		BlockBytes:          64,
		HotThreshold:        16,
		AccessLatency:       4 * timing.CPUCycle,
		ShortMode:           pcm.Mode3SETs,
		LongMode:            pcm.Mode7SETs,
		FastRefreshInterval: 2 * timing.Second,
		DecayInterval:       125 * timing.Millisecond,
		DecayBits:           4,
	}
}

// WithCoverage returns the config resized to the given LLC coverage rate
// (Table VIII): sets are scaled so that Sets*Ways*RegionBytes equals
// coverage x llcBytes.
func (c RRMConfig) WithCoverage(coverage int, llcBytes uint64) RRMConfig {
	c.Sets = int(uint64(coverage) * llcBytes / (uint64(c.Ways) * c.RegionBytes))
	return c
}

// Validate checks the configuration.
func (c RRMConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("core: RRM sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("core: RRM ways %d", c.Ways)
	}
	if c.RegionBytes == 0 || c.RegionBytes&(c.RegionBytes-1) != 0 {
		return fmt.Errorf("core: region size %d must be a power of two", c.RegionBytes)
	}
	if c.BlockBytes == 0 || c.RegionBytes%c.BlockBytes != 0 {
		return fmt.Errorf("core: region %d not divisible by block %d", c.RegionBytes, c.BlockBytes)
	}
	if n := c.BlocksPerRegion(); n > maxBlocksPerRegion {
		return fmt.Errorf("core: %d blocks per region exceeds the %d-bit vector", n, maxBlocksPerRegion)
	}
	if c.HotThreshold <= 0 || int64(c.HotThreshold) > math.MaxUint32 {
		return fmt.Errorf("core: hot threshold %d must be in [1, 2^32)", c.HotThreshold)
	}
	if !c.ShortMode.Valid() || !c.LongMode.Valid() || c.ShortMode >= c.LongMode {
		return fmt.Errorf("core: short mode %v must be faster than long mode %v", c.ShortMode, c.LongMode)
	}
	if c.FastRefreshInterval <= 0 || c.FastRefreshInterval >= pcm.Retention(c.ShortMode) {
		return fmt.Errorf("core: fast refresh interval %v must be positive and below the %v retention %v",
			c.FastRefreshInterval, c.ShortMode, pcm.Retention(c.ShortMode))
	}
	if c.DecayInterval <= 0 || c.DecayBits <= 0 || c.DecayBits > 16 {
		return fmt.Errorf("core: decay interval %v / bits %d", c.DecayInterval, c.DecayBits)
	}
	return nil
}

// BlocksPerRegion returns the short-retention vector width.
func (c RRMConfig) BlocksPerRegion() int { return int(c.RegionBytes / c.BlockBytes) }

// CoveredBytes returns the memory the RRM can track at once.
func (c RRMConfig) CoveredBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * c.RegionBytes
}

// EntryBits returns the storage cost of one RRM entry, using the paper's
// field accounting: valid(1) + addr tag + hot(1) + dirty-write counter +
// short-retention vector + decay counter. With the defaults this is
// 1+52+1+6+64+4 = 128 bits.
func (c RRMConfig) EntryBits() int {
	addrBits := 64 - bits.TrailingZeros64(c.RegionBytes)
	counterBits := bits.Len(uint(c.HotThreshold))
	if counterBits < 6 {
		counterBits = 6
	}
	return 1 + addrBits + 1 + counterBits + c.BlocksPerRegion() + c.DecayBits
}

// StorageBytes returns the total RRM storage (Table VIII).
func (c RRMConfig) StorageBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * uint64(c.EntryBits()) / 8
}

// maxBlocksPerRegion bounds the short-retention vector (16 KB regions of
// 64 B blocks need 256 bits).
const maxBlocksPerRegion = 256

// vectorWords is the short-retention vector's width in the snapshot
// format (and in MultiModeRRM), whatever the configured region size.
const vectorWords = maxBlocksPerRegion / 64

// entry is one RRM entry (paper §IV-C) minus its short-retention vector,
// which lives in RRM.vecs. The counters are held at the 32-bit widths
// the snapshot writes them in, and the promotion generations at 32 bits,
// so an entry is 56 host bytes: 64 B with the default one-word vector,
// against the paper's 128-bit EntryBits.
type entry struct {
	tag     uint64 // region number
	lastUse uint64 // LRU timestamp

	// Live refresh-timer descriptor (snapshot bookkeeping): the pending
	// event of the current promotion generation's timer. Valid only
	// while timerGen == hotGen — reallocation or re-promotion leaves a
	// dead timer pending whose fields no longer match.
	timerAt  timing.Time
	timerSeq int64
	timerGen int32

	hotGen       int32  // promotion generation; ends on demote/evict
	dirtyWrites  uint32 // saturates at HotThreshold
	decayCounter uint32
	valid        bool
	hot          bool
}

// Stats counts RRM activity.
type Stats struct {
	Registrations  uint64 // LLC write registrations received
	CleanFiltered  uint64 // registrations ignored by the streaming filter
	RegHits        uint64
	RegMisses      uint64
	Allocations    uint64
	Evictions      uint64
	EvictionFlush  uint64 // slow refreshes issued for evicted live entries
	Promotions     uint64 // cold -> hot transitions
	Demotions      uint64 // hot -> cold decay transitions
	FastRefreshes  uint64 // 3-SETs refreshes issued
	SlowRefreshes  uint64 // 7-SETs refreshes issued on demotion/eviction
	ShortDecisions uint64 // memory writes steered to ShortMode
	LongDecisions  uint64 // memory writes left at LongMode
}

// ShortWriteFraction returns the fraction of write decisions steered to
// the fast mode.
func (s Stats) ShortWriteFraction() float64 {
	total := s.ShortDecisions + s.LongDecisions
	if total == 0 {
		return 0
	}
	return float64(s.ShortDecisions) / float64(total)
}

// RRM is the Region Retention Monitor.
type RRM struct {
	cfg    RRMConfig
	issuer RefreshIssuer
	// entries is the table, set-major: set s is entries[s*Ways:][:Ways].
	// Entry i's short-retention vector is vecs[i*vecWords:][:vecWords],
	// sized from BlocksPerRegion rather than the 256-block maximum.
	entries  []entry
	vecs     []uint64
	vecWords int
	setMask  uint64
	useClock uint64
	stats    Stats

	regionShift uint
	blockShift  uint

	decayWrap int

	// eq is set by Start; per-entry refresh timers schedule on it.
	eq *timing.EventQueue

	// Pending decay-tick descriptor (snapshot bookkeeping).
	decayAt  timing.Time
	decaySeq int64
	decayFn  func(timing.Time) // bound once; re-schedules itself
	// decaySuspended gates the tick body (not its schedule): set during
	// sampling skips, when time passes but no traffic flows. Transient —
	// never set while a snapshot is taken, so it is not serialized.
	decaySuspended bool
}

// NewRRM builds the monitor. The issuer receives the selective refresh
// requests; it must not be nil (use NopIssuer to discard).
func NewRRM(cfg RRMConfig, issuer RefreshIssuer) (*RRM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if issuer == nil {
		return nil, fmt.Errorf("core: nil refresh issuer")
	}
	n := cfg.Sets * cfg.Ways
	vecWords := (cfg.BlocksPerRegion() + 63) / 64
	r := &RRM{
		cfg:       cfg,
		issuer:    issuer,
		entries:   make([]entry, n),
		vecs:      make([]uint64, n*vecWords),
		vecWords:  vecWords,
		setMask:   uint64(cfg.Sets - 1),
		decayWrap: 1 << cfg.DecayBits,
	}
	r.regionShift = uint(bits.TrailingZeros64(cfg.RegionBytes))
	r.blockShift = uint(bits.TrailingZeros64(cfg.BlockBytes))
	return r, nil
}

// Config returns the monitor's configuration.
func (r *RRM) Config() RRMConfig { return r.cfg }

// Stats returns a copy of the counters.
func (r *RRM) Stats() Stats { return r.stats }

// Name implements WritePolicy.
func (r *RRM) Name() string { return "RRM" }

// DecisionLatency implements WritePolicy.
func (r *RRM) DecisionLatency() timing.Time { return r.cfg.AccessLatency }

// GlobalRefreshMode implements WritePolicy: RRM's global refresh uses the
// long mode (7-SETs, every ~3054 s).
func (r *RRM) GlobalRefreshMode() pcm.WriteMode { return r.cfg.LongMode }

func (r *RRM) region(addr uint64) uint64 { return addr >> r.regionShift }

func (r *RRM) blockIndex(addr uint64) int {
	return int((addr >> r.blockShift) & (uint64(r.cfg.BlocksPerRegion()) - 1))
}

// vec returns entry i's short-retention vector; vecGet, vecSet,
// vecClear and vecPopCount read and write it.
func (r *RRM) vec(i int) []uint64 { return r.vecs[i*r.vecWords : (i+1)*r.vecWords] }
func (r *RRM) vecGet(i, b int) bool {
	return r.vecs[i*r.vecWords+b>>6]&(1<<(uint(b)&63)) != 0
}
func (r *RRM) vecSet(i, b int) { r.vecs[i*r.vecWords+b>>6] |= 1 << (uint(b) & 63) }
func (r *RRM) vecClear(i int)  { clear(r.vec(i)) }
func (r *RRM) vecPopCount(i int) int {
	n := 0
	for _, w := range r.vec(i) {
		n += bits.OnesCount64(w)
	}
	return n
}

// setBase returns the index of the first entry of region's set.
func (r *RRM) setBase(region uint64) int { return int(region&r.setMask) * r.cfg.Ways }

// lookup finds the index of the entry for a region, or -1.
func (r *RRM) lookup(region uint64) int {
	base := r.setBase(region)
	set := r.entries[base : base+r.cfg.Ways]
	for i := range set {
		if set[i].valid && set[i].tag == region {
			return base + i
		}
	}
	return -1
}

// RegisterLLCWrite implements WritePolicy (paper §IV-D, Figure 6 top).
func (r *RRM) RegisterLLCWrite(addr uint64, wasDirty bool, now timing.Time) {
	r.stats.Registrations++
	if !wasDirty && !r.cfg.RegisterCleanWrites {
		// Streaming-write filter: only writes to already-dirty LLC
		// entries indicate temporal write locality.
		r.stats.CleanFiltered++
		return
	}
	region := r.region(addr)
	i := r.lookup(region)
	if i < 0 {
		r.stats.RegMisses++
		i = r.allocate(region)
	} else {
		r.stats.RegHits++
	}
	e := &r.entries[i]
	r.useClock++
	e.lastUse = r.useClock

	if e.dirtyWrites < uint32(r.cfg.HotThreshold) {
		e.dirtyWrites++
		if e.dirtyWrites == uint32(r.cfg.HotThreshold) && !e.hot {
			e.hot = true
			e.hotGen++
			r.stats.Promotions++
			r.armEntryTimer(i)
		}
	}
	if e.hot {
		// Future memory writes to this block use the fast mode.
		r.vecSet(i, r.blockIndex(addr))
	}
}

// allocate installs a fresh entry for region, evicting LRU if needed.
// An evicted entry with live short-retention blocks must have them
// rewritten with long-retention writes first, or their data would expire
// untracked (correctness requirement implied by Figure 6).
func (r *RRM) allocate(region uint64) int {
	base := r.setBase(region)
	set := r.entries[base : base+r.cfg.Ways]
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		oldest := ^uint64(0)
		for i := range set {
			if set[i].lastUse < oldest {
				oldest = set[i].lastUse
				victim = i
			}
		}
		r.stats.Evictions++
		r.flushEntry(base+victim, &r.stats.EvictionFlush)
	}
	r.stats.Allocations++
	r.useClock++
	set[victim] = entry{valid: true, tag: region, lastUse: r.useClock}
	return base + victim
}

// flushEntry issues slow refreshes for every live short-retention block
// of entry i, counting them in counter.
func (r *RRM) flushEntry(i int, counter *uint64) {
	e := &r.entries[i]
	if !e.valid {
		return
	}
	base := e.tag << r.regionShift
	for b := 0; b < r.cfg.BlocksPerRegion(); b++ {
		if r.vecGet(i, b) {
			r.issuer.IssueRefresh(base+uint64(b)<<r.blockShift, r.cfg.LongMode, pcm.WearSlowRefresh)
			r.stats.SlowRefreshes++
			if counter != nil {
				*counter++
			}
		}
	}
	r.vecClear(i)
	e.hot = false
	e.hotGen++
}

// DecideWriteMode implements WritePolicy (paper §IV-E, Figure 6 bottom
// left): a hit with the block's short-retention bit set selects the fast
// mode, everything else the slow default.
func (r *RRM) DecideWriteMode(addr uint64, now timing.Time) pcm.WriteMode {
	if i := r.lookup(r.region(addr)); i >= 0 && r.vecGet(i, r.blockIndex(addr)) {
		r.stats.ShortDecisions++
		return r.cfg.ShortMode
	}
	r.stats.LongDecisions++
	return r.cfg.LongMode
}

// FastRefreshTick performs one short-retention interrupt (paper §IV-F,
// Figure 6 bottom middle): every short-retention block of every hot entry
// is re-written with the fast mode through the high-priority RRM refresh
// queue.
//
// When eq is non-nil the per-entry refreshes are issued staggered: each
// entry has a fixed phase (a hash of its tag) within the first half of
// the refresh interval, so every entry is still refreshed exactly once
// per interval — the deadline guarantee is unchanged — but the memory
// controller sees a smooth refresh stream instead of a burst of every
// hot block at once. Controllers stagger refresh for the same reason.
// With eq nil all refreshes issue immediately (tests, simple uses).
func (r *RRM) FastRefreshTick(now timing.Time) {
	for i := range r.entries {
		if e := &r.entries[i]; e.valid && e.hot {
			r.refreshEntryBlocks(i)
		}
	}
}

// refreshEntryBlocks issues fast refreshes for the (sampled) short-
// retention blocks of entry i, returning how many were issued.
func (r *RRM) refreshEntryBlocks(i int) int {
	base := r.entries[i].tag << r.regionShift
	n := 0
	for b := 0; b < r.cfg.BlocksPerRegion(); b++ {
		if r.vecGet(i, b) {
			addr := base + uint64(b)<<r.blockShift
			if !SampledBlock(addr, r.cfg.RefreshSampling) {
				continue
			}
			r.issuer.IssueRefresh(addr, r.cfg.ShortMode, pcm.WearRRMRefresh)
			r.stats.FastRefreshes++
			n++
		}
	}
	return n
}

// SampledBlock reports whether a block participates in the 1-in-sampling
// simulated refresh subset. The hash must be shared by every consumer
// (monitors, retention checker) so they agree on the subset.
func SampledBlock(addr uint64, sampling uint64) bool {
	if sampling <= 1 {
		return true
	}
	return ((addr>>6)*0x9E3779B97F4A7C15)>>33%sampling == 0
}

// RefreshSampling exposes the monitor's sampling factor to the metrics
// pipeline (see sim).
func (r *RRM) RefreshSampling() uint64 {
	if r.cfg.RefreshSampling <= 1 {
		return 1
	}
	return r.cfg.RefreshSampling
}

// armEntryTimer starts a per-entry periodic refresh timer for a freshly
// promoted entry. Each hot entry carries its own timer with period
// exactly FastRefreshInterval, started at promotion, so:
//
//   - every short-retention bit is refreshed at most one interval after
//     it is set (the bit can only be set while the entry is hot, i.e.
//     while the timer is live), which meets the retention deadline of
//     interval + 0.01 s with the issue slack to spare; and
//   - refresh traffic is naturally staggered by promotion times instead
//     of arriving as a burst of every hot block at once — the same
//     reason DRAM controllers stagger refresh.
//
// The timer dies silently when its promotion generation ends (demotion,
// eviction, or reallocation of the entry); those paths slow-refresh the
// live blocks themselves.
func (r *RRM) armEntryTimer(i int) {
	if r.eq == nil {
		return // not attached to a simulation; FastRefreshTick drives refreshes
	}
	// Small deterministic jitter so simultaneous promotions (e.g. at
	// program phase changes) do not fire in lockstep forever. Firing
	// early never violates a deadline.
	jitter := timing.Time((r.entries[i].tag * 0x9E3779B97F4A7C15) % uint64(r.cfg.FastRefreshInterval/64+1))
	r.scheduleEntryTimer(i, r.eq.Now()+r.cfg.FastRefreshInterval-jitter)
}

// scheduleEntryTimer arms entry i's refresh timer at the given time,
// binding it to the entry's current (tag, generation) and recording the
// event descriptor on the entry so snapshots can re-create it.
func (r *RRM) scheduleEntryTimer(i int, at timing.Time) {
	e := &r.entries[i]
	tag, gen := e.tag, e.hotGen
	var fire func(now timing.Time)
	fire = func(now timing.Time) {
		if !e.valid || !e.hot || e.tag != tag || e.hotGen != gen {
			return
		}
		r.refreshEntryBlocks(i)
		next := now + r.cfg.FastRefreshInterval
		e.timerAt = next
		e.timerSeq = r.eq.Schedule(next, fire).Seq()
	}
	e.timerGen = gen
	e.timerAt = at
	e.timerSeq = r.eq.Schedule(at, fire).Seq()
}

// DecayTick advances every entry's cyclic decay counter (paper §IV-G,
// Figure 6 bottom right). On wrap, an entry that re-accumulated a full
// hot_threshold of dirty writes stays hot with its counter halved; any
// other hot entry is demoted: its short-retention blocks are re-written
// with slow long-retention refreshes and its vector cleared.
func (r *RRM) DecayTick(now timing.Time) {
	for i := range r.entries {
		e := &r.entries[i]
		if !e.valid {
			continue
		}
		e.decayCounter++
		if e.decayCounter < uint32(r.decayWrap) {
			continue
		}
		e.decayCounter = 0
		if e.dirtyWrites >= uint32(r.cfg.HotThreshold) {
			// Still hot: halve the counter and re-check next wrap.
			e.dirtyWrites /= 2
			continue
		}
		if e.hot {
			r.stats.Demotions++
			r.flushEntry(i, nil)
		}
	}
}

// Start attaches the monitor to a simulation clock: the periodic decay
// tick is armed, and every hot entry (current and future) gets its own
// per-interval refresh timer (see armEntryTimer).
func (r *RRM) Start(eq *timing.EventQueue) {
	r.eq = eq
	for i := range r.entries {
		if e := &r.entries[i]; e.valid && e.hot {
			r.armEntryTimer(i)
		}
	}
	r.armDecay(eq.Now() + r.cfg.DecayInterval)
}

// SuspendDecay pauses (or resumes) the periodic heat decay without
// disturbing its schedule. Decay models traffic recency, so a sampling
// skip — which advances simulated time with the cores parked and no
// traffic flowing — must not tick it, or the hot set would evaporate at
// a rate the (paused) write stream can never sustain. Retention timers
// are unaffected: they track real deadlines and keep firing.
func (r *RRM) SuspendDecay(v bool) { r.decaySuspended = v }

// armDecay schedules the periodic decay tick at the given time,
// recording the event descriptor for snapshots.
func (r *RRM) armDecay(at timing.Time) {
	if r.decayFn == nil {
		r.decayFn = func(now timing.Time) {
			if !r.decaySuspended {
				r.DecayTick(now)
			}
			r.armDecay(now + r.cfg.DecayInterval)
		}
	}
	r.decayAt = at
	r.decaySeq = r.eq.Schedule(at, r.decayFn).Seq()
}

// HotEntries returns the current number of hot entries and tracked
// short-retention blocks (metrics).
func (r *RRM) HotEntries() (hotEntries, shortBlocks int) {
	for i := range r.entries {
		if e := &r.entries[i]; e.valid && e.hot {
			hotEntries++
			shortBlocks += r.vecPopCount(i)
		}
	}
	return hotEntries, shortBlocks
}
