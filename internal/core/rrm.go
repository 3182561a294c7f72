package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

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

	// MidTiers grades regions between LongMode and ShortMode, slowest
	// first: a region that reaches a tier's Threshold dirty writes
	// writes its blocks with the tier's Mode, refreshed every
	// RefreshInterval. LongMode is the base tier and ShortMode, at
	// HotThreshold, the top one. Empty — the default — is the paper's
	// two-mode monitor (§IV-A picks two modes "for implementation
	// simplicity"); ablation A4 adds 5-SETs at 8 dirty writes.
	MidTiers []RRMTier `json:",omitempty"`

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

// RRMTier is one intermediate write tier of the monitor (see
// RRMConfig.MidTiers).
type RRMTier struct {
	Mode            pcm.WriteMode
	Threshold       int         // dirty writes that promote a region to this tier
	RefreshInterval timing.Time // must undercut Mode's retention
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

// Scale returns the config with the retention clock accelerated k times:
// every tier's refresh interval and the decay tick divided by k, and the
// simulated tier refreshes sampled 1-in-k (see RefreshSampling). The
// tier list is copied, never scaled in the caller's backing array.
func (c RRMConfig) Scale(k float64) RRMConfig {
	scale := func(t timing.Time) timing.Time { return timing.Time(float64(t) / k) }
	c.FastRefreshInterval = scale(c.FastRefreshInterval)
	c.DecayInterval = scale(c.DecayInterval)
	c.MidTiers = slices.Clone(c.MidTiers)
	for i := range c.MidTiers {
		c.MidTiers[i].RefreshInterval = scale(c.MidTiers[i].RefreshInterval)
	}
	c.RefreshSampling = uint64(k)
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
	// Each mid tier is strictly faster and strictly easier to leave
	// than the one below it, which bounds the list by the modes between
	// ShortMode and LongMode (three at most).
	slower, below := c.LongMode, 0
	for k, t := range c.MidTiers {
		if !t.Mode.Valid() || t.Mode >= slower || t.Mode <= c.ShortMode {
			return fmt.Errorf("core: mid tier %d mode %v must be faster than %v and slower than short mode %v",
				k, t.Mode, slower, c.ShortMode)
		}
		if t.Threshold <= below || t.Threshold >= c.HotThreshold {
			return fmt.Errorf("core: mid tier %d threshold %d must be in (%d, %d)",
				k, t.Threshold, below, c.HotThreshold)
		}
		if t.RefreshInterval <= 0 || t.RefreshInterval >= pcm.Retention(t.Mode) {
			return fmt.Errorf("core: mid tier %d refresh interval %v must be positive and below the %v retention %v",
				k, t.RefreshInterval, t.Mode, pcm.Retention(t.Mode))
		}
		slower, below = t.Mode, t.Threshold
	}
	return nil
}

// Name labels the monitor in reports: "RRM" for the paper's two-tier
// monitor, the tiers' SETs counts slowest first ("RRM-7/5/3") for a
// tiered one.
func (c RRMConfig) Name() string {
	if len(c.MidTiers) == 0 {
		return "RRM"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "RRM-%d", c.LongMode.Sets())
	for _, t := range c.MidTiers {
		fmt.Fprintf(&b, "/%d", t.Mode.Sets())
	}
	fmt.Fprintf(&b, "/%d", c.ShortMode.Sets())
	return b.String()
}

// BlocksPerRegion returns the short-retention vector width.
func (c RRMConfig) BlocksPerRegion() int { return int(c.RegionBytes / c.BlockBytes) }

// CoveredBytes returns the memory the RRM can track at once.
func (c RRMConfig) CoveredBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * c.RegionBytes
}

// EntryBits returns the storage cost of one RRM entry, using the paper's
// field accounting: valid(1) + addr tag + tier + dirty-write counter +
// one vector per tier above LongMode + decay counter. With the defaults
// (the tier is the paper's one hot bit) this is 1+52+1+6+64+4 = 128
// bits; A4's three tiers take 1+52+2+6+2×64+4 = 193.
func (c RRMConfig) EntryBits() int {
	addrBits := 64 - bits.TrailingZeros64(c.RegionBytes)
	counterBits := bits.Len(uint(c.HotThreshold))
	if counterBits < 6 {
		counterBits = 6
	}
	tiers := len(c.MidTiers) + 1
	return 1 + addrBits + bits.Len(uint(tiers)) + counterBits + tiers*c.BlocksPerRegion() + c.DecayBits
}

// StorageBytes returns the total RRM storage (Table VIII).
func (c RRMConfig) StorageBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * uint64(c.EntryBits()) / 8
}

// maxBlocksPerRegion bounds the short-retention vector (16 KB regions of
// 64 B blocks need 256 bits).
const maxBlocksPerRegion = 256

// vectorWords is a tier vector's width in the snapshot format, whatever
// the configured region size.
const vectorWords = maxBlocksPerRegion / 64

// tierTimer is the bookkeeping of one tier's per-entry refresh timer.
// gen is the tier's promotion generation: it advances when the entry
// enters the tier and when the entry is flushed. The pending event
// (at, seq) is live while armedGen == gen and the entry sits at the
// tier or above; reallocation, a flush or a re-promotion leaves a dead
// timer pending whose generation no longer matches.
type tierTimer struct {
	at       timing.Time
	seq      int64
	armedGen int32
	gen      int32
}

// entry is one RRM entry (paper §IV-C) minus its vectors, which live in
// RRM.vecs and RRM.mid. The counters are held at the 32-bit widths
// the snapshot writes them in, and the generations at 32 bits, so an
// entry is 56 host bytes: 64 B with the default one-word vector, against
// the paper's 128-bit EntryBits.
type entry struct {
	tag     uint64 // region number
	lastUse uint64 // LRU timestamp

	timer tierTimer // the top (ShortMode) tier's refresh timer

	dirtyWrites  uint32 // saturates at HotThreshold
	decayCounter uint32
	valid        bool
	tier         uint8 // 0 = LongMode … RRM.top = ShortMode ("hot")
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
	Promotions     uint64 // promotions into a faster tier
	Demotions      uint64 // decay demotions down to the LongMode tier
	FastRefreshes  uint64 // refreshes in any faster-than-long tier's mode
	SlowRefreshes  uint64 // LongMode refreshes issued on demotion/eviction
	ShortDecisions uint64 // memory writes steered to any faster-than-long tier
	LongDecisions  uint64 // memory writes left at LongMode
}

// ShortWriteFraction returns the fraction of write decisions steered to
// a faster-than-long mode.
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
	// Entry i's short-retention (top-tier) vector is
	// vecs[i*vecWords:][:vecWords], sized from BlocksPerRegion rather
	// than the 256-block maximum.
	entries  []entry
	vecs     []uint64
	vecWords int
	setMask  uint64
	useClock uint64
	stats    Stats

	// top is ShortMode's tier index, len(MidTiers)+1; mid holds the
	// mid tiers' vectors and timers, nil for the paper's two-tier
	// monitor (which keeps sim.New's footprint unchanged).
	top int
	mid *midTables

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

	regionShift uint8
	blockShift  uint8
}

// midTables holds a tiered monitor's mid-tier state: mid tier t
// (0 < t < top) of entry i keeps its vector at vecs[k*vecWords:][:vecWords]
// and its refresh timer at timers[k], with k = i*(top-1)+t-1.
type midTables struct {
	vecs   []uint64
	timers []tierTimer
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
		top:       len(cfg.MidTiers) + 1,
	}
	if mid := len(cfg.MidTiers); mid > 0 {
		r.cfg.MidTiers = slices.Clone(cfg.MidTiers)
		r.mid = &midTables{
			vecs:   make([]uint64, n*mid*vecWords),
			timers: make([]tierTimer, n*mid),
		}
	}
	r.regionShift = uint8(bits.TrailingZeros64(cfg.RegionBytes))
	r.blockShift = uint8(bits.TrailingZeros64(cfg.BlockBytes))
	return r, nil
}

// Config returns the monitor's configuration.
func (r *RRM) Config() RRMConfig { return r.cfg }

// Stats returns a copy of the counters.
func (r *RRM) Stats() Stats { return r.stats }

// Name implements WritePolicy (see RRMConfig.Name).
func (r *RRM) Name() string { return r.cfg.Name() }

// DecisionLatency implements WritePolicy.
func (r *RRM) DecisionLatency() timing.Time { return r.cfg.AccessLatency }

// GlobalRefreshMode implements WritePolicy: RRM's global refresh uses the
// long mode (7-SETs, every ~3054 s).
func (r *RRM) GlobalRefreshMode() pcm.WriteMode { return r.cfg.LongMode }

func (r *RRM) region(addr uint64) uint64 { return addr >> r.regionShift }

func (r *RRM) blockIndex(addr uint64) int {
	return int((addr >> r.blockShift) & (uint64(r.cfg.BlocksPerRegion()) - 1))
}

// vec returns entry i's short-retention vector; vecGet and vecSet read
// and write its bits.
func (r *RRM) vec(i int) []uint64 { return r.vecs[i*r.vecWords : (i+1)*r.vecWords] }
func (r *RRM) vecGet(i, b int) bool {
	return r.vecs[i*r.vecWords+b>>6]&(1<<(uint(b)&63)) != 0
}
func (r *RRM) vecSet(i, b int) { r.vecs[i*r.vecWords+b>>6] |= 1 << (uint(b) & 63) }

// tierVec returns entry i's vector for tier t (0 < t <= top).
func (r *RRM) tierVec(i, t int) []uint64 {
	if t == r.top {
		return r.vec(i)
	}
	k := (i*(r.top-1) + t - 1) * r.vecWords
	return r.mid.vecs[k : k+r.vecWords]
}

// timer returns entry i's refresh-timer bookkeeping for tier t.
func (r *RRM) timer(i, t int) *tierTimer {
	if t == r.top {
		return &r.entries[i].timer
	}
	return &r.mid.timers[i*(r.top-1)+t-1]
}

// tierMode, tierThreshold and tierInterval give tier t's write mode,
// promote threshold and refresh period (0 < t <= top). Tier 0 is
// LongMode, which has no vector or timer; its threshold is
// HotThreshold, so the decay rule treats it as the paper's cold state.
func (r *RRM) tierMode(t int) pcm.WriteMode {
	if t == r.top {
		return r.cfg.ShortMode
	}
	return r.cfg.MidTiers[t-1].Mode
}

func (r *RRM) tierThreshold(t int) uint32 {
	if t == 0 || t == r.top {
		return uint32(r.cfg.HotThreshold)
	}
	return uint32(r.cfg.MidTiers[t-1].Threshold)
}

func (r *RRM) tierInterval(t int) timing.Time {
	if t == r.top {
		return r.cfg.FastRefreshInterval
	}
	return r.cfg.MidTiers[t-1].RefreshInterval
}

// tierAt returns the tier whose threshold is exactly n dirty writes, or
// 0 when n is no tier's threshold.
func (r *RRM) tierAt(n uint32) int {
	if n == uint32(r.cfg.HotThreshold) {
		return r.top
	}
	for k, t := range r.cfg.MidTiers {
		if n == uint32(t.Threshold) {
			return k + 1
		}
	}
	return 0
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
		if t := r.tierAt(e.dirtyWrites); t > int(e.tier) {
			e.tier = uint8(t)
			r.timer(i, t).gen++
			r.stats.Promotions++
			r.armTierTimer(i, t)
		}
	}
	// Future memory writes to this block use the entry's tier mode.
	if t := int(e.tier); t == r.top {
		r.vecSet(i, r.blockIndex(addr))
	} else if t > 0 {
		b := r.blockIndex(addr)
		r.tierVec(i, t)[b>>6] |= 1 << (uint(b) & 63)
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
	// The top tier's timer generation carries over: the eviction ended
	// the old region's timer by bumping it, and a reset would revive it.
	set[victim] = entry{valid: true, tag: region, lastUse: r.useClock,
		timer: tierTimer{gen: set[victim].timer.gen}}
	return base + victim
}

// flushEntry issues one slow refresh for every block of entry i tracked
// in any tier, counting them in counter, and drops the entry to the
// LongMode tier, ending every tier's timer generation.
func (r *RRM) flushEntry(i int, counter *uint64) {
	e := &r.entries[i]
	if !e.valid {
		return
	}
	base := e.tag << r.regionShift
	for w := 0; w < r.vecWords; w++ {
		word := r.vecs[i*r.vecWords+w]
		for t := 1; t < r.top; t++ {
			word |= r.tierVec(i, t)[w]
		}
		for ; word != 0; word &= word - 1 {
			b := w*64 + bits.TrailingZeros64(word)
			r.issuer.IssueRefresh(base+uint64(b)<<r.blockShift, r.cfg.LongMode, pcm.WearSlowRefresh)
			r.stats.SlowRefreshes++
			if counter != nil {
				*counter++
			}
		}
	}
	for t := 1; t <= r.top; t++ {
		clear(r.tierVec(i, t))
		r.timer(i, t).gen++
	}
	e.tier = 0
}

// DecideWriteMode implements WritePolicy (paper §IV-E, Figure 6 bottom
// left): a hit with the block's short-retention bit set selects the fast
// mode, a bit in a mid tier's vector that tier's mode (the fastest such
// tier wins), everything else the slow default.
func (r *RRM) DecideWriteMode(addr uint64, now timing.Time) pcm.WriteMode {
	if i := r.lookup(r.region(addr)); i >= 0 {
		b := r.blockIndex(addr)
		if r.vecGet(i, b) {
			r.stats.ShortDecisions++
			return r.cfg.ShortMode
		}
		for t := r.top - 1; t > 0; t-- {
			if r.tierVec(i, t)[b>>6]&(1<<(uint(b)&63)) != 0 {
				r.stats.ShortDecisions++
				return r.tierMode(t)
			}
		}
	}
	r.stats.LongDecisions++
	return r.cfg.LongMode
}

// FastRefreshTick performs one short-retention interrupt (paper §IV-F,
// Figure 6 bottom middle) without a clock: every tracked block of every
// promoted entry is re-written with its tier's mode through the
// high-priority RRM refresh queue. Attached to a simulation (Start), the
// per-entry timers of armTierTimer issue the same refreshes staggered
// instead.
func (r *RRM) FastRefreshTick(now timing.Time) {
	for i := range r.entries {
		if e := &r.entries[i]; e.valid {
			for t := 1; t <= int(e.tier); t++ {
				r.refreshTierBlocks(i, t)
			}
		}
	}
}

// refreshTierBlocks issues refreshes in tier t's mode for the (sampled)
// blocks of entry i's tier-t vector.
func (r *RRM) refreshTierBlocks(i, t int) {
	base := r.entries[i].tag << r.regionShift
	mode := r.tierMode(t)
	for w, word := range r.tierVec(i, t) {
		for ; word != 0; word &= word - 1 {
			addr := base + uint64(w*64+bits.TrailingZeros64(word))<<r.blockShift
			if !SampledBlock(addr, r.cfg.RefreshSampling) {
				continue
			}
			r.issuer.IssueRefresh(addr, mode, pcm.WearRRMRefresh)
			r.stats.FastRefreshes++
		}
	}
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

// armTierTimer starts entry i's periodic refresh timer for tier t, which
// the entry has just entered. Each promoted entry carries its own timer
// per tier, with period exactly that tier's refresh interval, started at
// promotion, so:
//
//   - every tier-t bit is refreshed at most one interval after it is set
//     (the bit can only be set while the entry sits at tier t, and the
//     timer stays live while the entry sits at tier t or above), which
//     meets the retention deadline with the issue slack to spare; and
//   - refresh traffic is naturally staggered by promotion times instead
//     of arriving as a burst of every hot block at once — the same
//     reason DRAM controllers stagger refresh.
//
// The timer dies silently when the tier's generation ends (demotion,
// eviction, or reallocation of the entry); those paths slow-refresh the
// live blocks themselves.
func (r *RRM) armTierTimer(i, t int) {
	if r.eq == nil {
		return // not attached to a simulation; FastRefreshTick drives refreshes
	}
	// Small deterministic jitter so simultaneous promotions (e.g. at
	// program phase changes) do not fire in lockstep forever. Firing
	// early never violates a deadline.
	iv := r.tierInterval(t)
	jitter := timing.Time((r.entries[i].tag * 0x9E3779B97F4A7C15) % uint64(iv/64+1))
	r.scheduleTierTimer(i, t, r.eq.Now()+iv-jitter)
}

// scheduleTierTimer arms entry i's tier-t refresh timer at the given
// time, binding it to the entry's tag and the tier's current generation
// and recording the event descriptor so snapshots can re-create it.
func (r *RRM) scheduleTierTimer(i, t int, at timing.Time) {
	e := &r.entries[i]
	tm := r.timer(i, t)
	tag, gen, iv := e.tag, tm.gen, r.tierInterval(t)
	var fire func(now timing.Time)
	fire = func(now timing.Time) {
		if !e.valid || int(e.tier) < t || e.tag != tag || tm.gen != gen {
			return
		}
		r.refreshTierBlocks(i, t)
		next := now + iv
		tm.at = next
		tm.seq = r.eq.Schedule(next, fire).Seq()
	}
	tm.armedGen = gen
	tm.at = at
	tm.seq = r.eq.Schedule(at, fire).Seq()
}

// timerLive reports whether entry i's tier-t timer has a live pending
// event (snapshot bookkeeping).
func (r *RRM) timerLive(i, t int) bool {
	tm := r.timer(i, t)
	return r.eq != nil && r.entries[i].valid && int(r.entries[i].tier) >= t && tm.armedGen == tm.gen
}

// DecayTick advances every entry's cyclic decay counter (paper §IV-G,
// Figure 6 bottom right). On wrap, an entry that re-accumulated its own
// tier's threshold of dirty writes keeps its tier with its counter
// halved; any other promoted entry is demoted all the way down: every
// tracked block is re-written with a slow long-retention refresh and
// its vectors cleared.
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
		if e.dirtyWrites >= r.tierThreshold(int(e.tier)) {
			// Still busy enough: halve the counter and re-check next wrap.
			e.dirtyWrites /= 2
			continue
		}
		if e.tier > 0 {
			r.stats.Demotions++
			r.flushEntry(i, nil)
		}
	}
}

// Start attaches the monitor to a simulation clock: the periodic decay
// tick is armed, and every promoted entry (current and future) gets its
// own per-interval refresh timer for each tier up to its own (see
// armTierTimer).
func (r *RRM) Start(eq *timing.EventQueue) {
	r.eq = eq
	for i := range r.entries {
		if e := &r.entries[i]; e.valid {
			for t := 1; t <= int(e.tier); t++ {
				r.armTierTimer(i, t)
			}
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

// HotEntries returns the current number of promoted entries and the
// blocks they track in any faster-than-long tier (metrics).
func (r *RRM) HotEntries() (hotEntries, shortBlocks int) {
	for i := range r.entries {
		e := &r.entries[i]
		if !e.valid || e.tier == 0 {
			continue
		}
		hotEntries++
		for w := 0; w < r.vecWords; w++ {
			word := r.vecs[i*r.vecWords+w]
			for t := 1; t < r.top; t++ {
				word |= r.tierVec(i, t)[w]
			}
			shortBlocks += bits.OnesCount64(word)
		}
	}
	return hotEntries, shortBlocks
}
