package core

import (
	"math/bits"
	"testing"
	"unsafe"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// recordingIssuer captures issued refreshes.
type recordingIssuer struct {
	refreshes []issued
}

type issued struct {
	addr uint64
	mode pcm.WriteMode
	kind pcm.WearKind
}

func (r *recordingIssuer) IssueRefresh(addr uint64, mode pcm.WriteMode, kind pcm.WearKind) {
	r.refreshes = append(r.refreshes, issued{addr, mode, kind})
}

func newRRM(t *testing.T, mutate func(*RRMConfig)) (*RRM, *recordingIssuer) {
	t.Helper()
	cfg := DefaultRRMConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	iss := &recordingIssuer{}
	r, err := NewRRM(cfg, iss)
	if err != nil {
		t.Fatal(err)
	}
	return r, iss
}

// heatRegion sends n dirty-write registrations to distinct blocks of the
// region at base.
func heatRegion(r *RRM, base uint64, n int) {
	for i := 0; i < n; i++ {
		r.RegisterLLCWrite(base+uint64(i%64)*64, true, 0)
	}
}

// makeHotWithBlocks promotes the region at base (threshold dirty writes
// to block 0) and then dirties the first nBlocks blocks while hot, so
// exactly those blocks carry short-retention vector bits (bits only
// accumulate after promotion, per paper §IV-D).
func makeHotWithBlocks(r *RRM, base uint64, nBlocks int) {
	for i := 0; i < r.Config().HotThreshold; i++ {
		r.RegisterLLCWrite(base, true, 0)
	}
	for i := 0; i < nBlocks; i++ {
		r.RegisterLLCWrite(base+uint64(i)*64, true, 0)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultRRMConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.EntryBits() != 128 {
		t.Errorf("entry bits = %d, want 128 (1+52+1+6+64+4)", cfg.EntryBits())
	}
	if got := cfg.StorageBytes(); got != 96<<10 {
		t.Errorf("storage = %d bytes, want 96KB", got)
	}
	if got := cfg.CoveredBytes(); got != 24<<20 {
		t.Errorf("coverage = %d, want 24MB (4x of 6MB LLC)", got)
	}
	if cfg.BlocksPerRegion() != 64 {
		t.Errorf("blocks per region = %d, want 64", cfg.BlocksPerRegion())
	}
}

func TestTable8CoverageConfigs(t *testing.T) {
	// Table VIII: coverage -> (sets, storage KB).
	llc := uint64(6 << 20)
	cases := []struct {
		coverage int
		sets     int
		kb       uint64
	}{
		{2, 128, 48}, {4, 256, 96}, {8, 512, 192}, {16, 1024, 384},
	}
	for _, c := range cases {
		cfg := DefaultRRMConfig().WithCoverage(c.coverage, llc)
		if cfg.Sets != c.sets {
			t.Errorf("coverage %dx: sets = %d, want %d", c.coverage, cfg.Sets, c.sets)
		}
		if got := cfg.StorageBytes(); got != c.kb<<10 {
			t.Errorf("coverage %dx: storage = %dKB, want %dKB", c.coverage, got>>10, c.kb)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("coverage %dx: %v", c.coverage, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*RRMConfig){
		func(c *RRMConfig) { c.Sets = 0 },
		func(c *RRMConfig) { c.Sets = 100 }, // not power of two
		func(c *RRMConfig) { c.Ways = 0 },
		func(c *RRMConfig) { c.RegionBytes = 3000 },
		func(c *RRMConfig) { c.BlockBytes = 100 },
		func(c *RRMConfig) { c.RegionBytes = 32 << 10 }, // vector > 256 bits
		func(c *RRMConfig) { c.HotThreshold = 0 },
		func(c *RRMConfig) { c.ShortMode = pcm.Mode7SETs },
		func(c *RRMConfig) { c.FastRefreshInterval = 3 * timing.Second }, // > 3-SETs retention
		func(c *RRMConfig) { c.DecayBits = 0 },
		// Mid tiers are outside input (rrmserve accepts full configs).
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(3, 8, 1)} },  // not slower than ShortMode
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(7, 8, 1)} },  // not faster than LongMode
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(0, 8, 1)} },  // no such mode
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(99, 8, 1)} }, // no such mode
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(5, 4, 1), tier(6, 8, 1)} },
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(5, 4, 1), tier(5, 8, 1)} },
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(6, 0, 1)} },
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(6, -3, 1)} },
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(6, 16, 1)} }, // = HotThreshold
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(6, 8, 1), tier(5, 8, 1)} },
		func(c *RRMConfig) { c.MidTiers = []RRMTier{tier(6, 8, 1), tier(5, 4, 1)} },
		func(c *RRMConfig) { c.MidTiers = []RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8}} },
		func(c *RRMConfig) {
			c.MidTiers = []RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: -timing.Second}}
		},
		func(c *RRMConfig) {
			c.MidTiers = []RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: pcm.Retention(pcm.Mode5SETs)}}
		},
		func(c *RRMConfig) {
			c.MidTiers = []RRMTier{tier(6, 4, 1), tier(5, 8, 1), tier(4, 12, 1), tier(4, 14, 1)}
		},
	}
	for i, mutate := range bad {
		cfg := DefaultRRMConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	for _, tiers := range [][]RRMTier{
		a4Tiers(),
		{tier(6, 4, 1), tier(5, 8, 1), tier(4, 12, 1)},
		{tier(4, 15, 1)},
	} {
		cfg := DefaultRRMConfig()
		cfg.MidTiers = tiers
		if err := cfg.Validate(); err != nil {
			t.Errorf("tiers %+v rejected: %v", tiers, err)
		}
	}
	if _, err := NewRRM(DefaultRRMConfig(), nil); err == nil {
		t.Error("nil issuer accepted")
	}
}

// tier is a mid tier with the given SETs count, threshold and refresh
// interval in seconds.
func tier(sets, threshold int, seconds timing.Time) RRMTier {
	return RRMTier{Mode: pcm.WriteMode(sets), Threshold: threshold, RefreshInterval: seconds * timing.Second}
}

// a4Tiers is ablation A4's mid tier: 5-SETs at 8 dirty writes,
// refreshed every 103 s (under its 104.4 s retention).
func a4Tiers() []RRMTier { return []RRMTier{tier(5, 8, 103)} }

// newTiered builds A4's three-tier monitor (7-SETs, 5-SETs at 8, 3-SETs
// at 16).
func newTiered(t *testing.T, mutate func(*RRMConfig)) (*RRM, *recordingIssuer) {
	t.Helper()
	return newRRM(t, func(c *RRMConfig) {
		c.MidTiers = a4Tiers()
		if mutate != nil {
			mutate(c)
		}
	})
}

func TestColdRegionUsesLongWrites(t *testing.T) {
	r, _ := newRRM(t, nil)
	if mode := r.DecideWriteMode(0x1000, 0); mode != pcm.Mode7SETs {
		t.Errorf("cold region mode = %v, want 7-SETs", mode)
	}
	s := r.Stats()
	if s.LongDecisions != 1 || s.ShortDecisions != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHotPromotionAtThreshold(t *testing.T) {
	r, _ := newRRM(t, nil)
	base := uint64(0x40000)
	heatRegion(r, base, 15)
	if mode := r.DecideWriteMode(base, 0); mode != pcm.Mode7SETs {
		t.Error("region hot before threshold")
	}
	heatRegion(r, base, 1) // 16th dirty write: promotion
	s := r.Stats()
	if s.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", s.Promotions)
	}
	// The block written at promotion time gets its vector bit; blocks
	// written while hot also do.
	r.RegisterLLCWrite(base+128, true, 0)
	if mode := r.DecideWriteMode(base+128, 0); mode != pcm.Mode3SETs {
		t.Errorf("hot block mode = %v, want 3-SETs", mode)
	}
	// A block of the hot region never written while hot stays long.
	if mode := r.DecideWriteMode(base+63*64, 0); mode != pcm.Mode3SETs {
		// block 63 was touched by heatRegion's modulo walk... pick one
		// outside: region has 64 blocks, heatRegion touched 0..15 and
		// the extra one. Block 40 was never written.
		_ = mode
	}
	if mode := r.DecideWriteMode(base+40*64, 0); mode != pcm.Mode7SETs {
		t.Errorf("untouched block of hot region = %v, want 7-SETs (per-block vector)", mode)
	}
}

func TestStreamingFilter(t *testing.T) {
	r, _ := newRRM(t, nil)
	base := uint64(0x80000)
	// 100 clean-line writes (streaming): never hot.
	for i := 0; i < 100; i++ {
		r.RegisterLLCWrite(base+uint64(i%64)*64, false, 0)
	}
	s := r.Stats()
	if s.CleanFiltered != 100 {
		t.Errorf("filtered = %d, want 100", s.CleanFiltered)
	}
	if s.Promotions != 0 {
		t.Error("streaming writes promoted a region")
	}
	if mode := r.DecideWriteMode(base, 0); mode != pcm.Mode7SETs {
		t.Error("streaming region classified hot")
	}
}

func TestRegisterCleanWritesAblation(t *testing.T) {
	r, _ := newRRM(t, func(c *RRMConfig) { c.RegisterCleanWrites = true })
	base := uint64(0x80000)
	for i := 0; i < 16; i++ {
		r.RegisterLLCWrite(base+uint64(i)*64, false, 0)
	}
	if r.Stats().Promotions != 1 {
		t.Error("ablation: clean writes should promote when filter disabled")
	}
}

func TestFastRefreshTick(t *testing.T) {
	r, iss := newRRM(t, nil)
	base := uint64(0x100000)
	makeHotWithBlocks(r, base, 16) // hot; blocks 0..15 short-retention
	r.FastRefreshTick(0)
	if len(iss.refreshes) != 16 {
		t.Fatalf("issued %d refreshes, want 16", len(iss.refreshes))
	}
	for _, ref := range iss.refreshes {
		if ref.mode != pcm.Mode3SETs || ref.kind != pcm.WearRRMRefresh {
			t.Errorf("refresh = %+v, want 3-SETs rrm-refresh", ref)
		}
		if ref.addr>>12 != base>>12 {
			t.Errorf("refresh addr %#x outside hot region", ref.addr)
		}
	}
	if got := r.Stats().FastRefreshes; got != 16 {
		t.Errorf("stats fast refreshes = %d", got)
	}
	// Cold entries are not refreshed.
	r2, iss2 := newRRM(t, nil)
	heatRegion(r2, base, 10)
	r2.FastRefreshTick(0)
	if len(iss2.refreshes) != 0 {
		t.Error("cold region received fast refreshes")
	}
}

func TestDecayDemotesIdleHotEntry(t *testing.T) {
	r, iss := newRRM(t, nil)
	base := uint64(0x200000)
	makeHotWithBlocks(r, base, 16)
	// Counter saturated at 16 == threshold: first wrap keeps it hot
	// (halves to 8). No new writes arrive, so the second wrap demotes.
	for i := 0; i < 16; i++ {
		r.DecayTick(0)
	}
	if r.Stats().Demotions != 0 {
		t.Error("first wrap should keep a saturated entry hot")
	}
	hot, blocks := r.HotEntries()
	if hot != 1 || blocks != 16 {
		t.Errorf("hot entries = %d/%d blocks, want 1/16", hot, blocks)
	}
	for i := 0; i < 16; i++ {
		r.DecayTick(0)
	}
	if r.Stats().Demotions != 1 {
		t.Errorf("demotions = %d, want 1 after second wrap", r.Stats().Demotions)
	}
	// Demotion rewrites the 16 short blocks with slow refreshes.
	slow := 0
	for _, ref := range iss.refreshes {
		if ref.kind == pcm.WearSlowRefresh && ref.mode == pcm.Mode7SETs {
			slow++
		}
	}
	if slow != 16 {
		t.Errorf("slow refreshes = %d, want 16", slow)
	}
	if mode := r.DecideWriteMode(base, 0); mode != pcm.Mode7SETs {
		t.Error("demoted region still steering short writes")
	}
}

func TestDecayKeepsBusyEntryHot(t *testing.T) {
	r, _ := newRRM(t, nil)
	base := uint64(0x300000)
	heatRegion(r, base, 16)
	// Keep re-dirtying between wraps: stays hot through many wraps.
	for wrap := 0; wrap < 4; wrap++ {
		for i := 0; i < 16; i++ {
			r.DecayTick(0)
		}
		heatRegion(r, base, 8) // counter back to threshold (8 halved + 8)
	}
	if r.Stats().Demotions != 0 {
		t.Errorf("busy entry demoted %d times", r.Stats().Demotions)
	}
	hot, _ := r.HotEntries()
	if hot != 1 {
		t.Error("busy entry lost hot status")
	}
}

func TestEvictionFlushesLiveBlocks(t *testing.T) {
	r, iss := newRRM(t, func(c *RRMConfig) { c.Sets = 1; c.Ways = 2 })
	// Two regions fill the single set; heating a third evicts the LRU.
	makeHotWithBlocks(r, 0, 16)
	makeHotWithBlocks(r, 4096, 16)
	makeHotWithBlocks(r, 8192, 16)
	s := r.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if s.EvictionFlush != 16 {
		t.Errorf("eviction flush refreshes = %d, want 16", s.EvictionFlush)
	}
	// Evicted region's blocks were rewritten with the long mode.
	slow := 0
	for _, ref := range iss.refreshes {
		if ref.kind == pcm.WearSlowRefresh && ref.addr < 4096 {
			slow++
		}
	}
	if slow != 16 {
		t.Errorf("slow refreshes for evicted region = %d, want 16", slow)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	r, _ := newRRM(t, func(c *RRMConfig) { c.Sets = 1; c.Ways = 2 })
	r.RegisterLLCWrite(0, true, 0)    // region 0
	r.RegisterLLCWrite(4096, true, 0) // region 1
	r.RegisterLLCWrite(0, true, 0)    // region 0 now MRU
	r.RegisterLLCWrite(8192, true, 0) // evicts region 1
	if r.lookup(0) < 0 {
		t.Error("MRU region evicted")
	}
	if r.lookup(1) >= 0 {
		t.Error("LRU region survived")
	}
	if r.lookup(2) < 0 {
		t.Error("new region not allocated")
	}
}

func TestHotThresholdAggressiveness(t *testing.T) {
	// Lower threshold -> hot sooner (paper §IV-H).
	for _, th := range []int{8, 16, 32, 64} {
		r, _ := newRRM(t, func(c *RRMConfig) { c.HotThreshold = th })
		base := uint64(0x500000)
		heatRegion(r, base, th-1)
		if hot, _ := r.HotEntries(); hot != 0 {
			t.Errorf("threshold %d: hot before threshold", th)
		}
		heatRegion(r, base, 1)
		if hot, _ := r.HotEntries(); hot != 1 {
			t.Errorf("threshold %d: not hot at threshold", th)
		}
	}
}

func TestEntrySizeVariants(t *testing.T) {
	// F13 sensitivity: 2KB/8KB/16KB regions must be representable.
	for _, kb := range []uint64{2, 4, 8, 16} {
		cfg := DefaultRRMConfig()
		cfg.RegionBytes = kb << 10
		if err := cfg.Validate(); err != nil {
			t.Errorf("%dKB region: %v", kb, err)
			continue
		}
		iss := &recordingIssuer{}
		r, err := NewRRM(cfg, iss)
		if err != nil {
			t.Fatal(err)
		}
		// Heat a region and confirm the vector covers its full span.
		base := uint64(1) << 22
		for i := 0; i < cfg.HotThreshold; i++ {
			r.RegisterLLCWrite(base+uint64(i)*64, true, 0)
		}
		last := base + cfg.RegionBytes - 64
		r.RegisterLLCWrite(last, true, 0)
		if mode := r.DecideWriteMode(last, 0); mode != pcm.Mode3SETs {
			t.Errorf("%dKB region: last block not steered short", kb)
		}
		// One block past the region is a different region: long.
		if mode := r.DecideWriteMode(base+cfg.RegionBytes, 0); mode != pcm.Mode7SETs {
			t.Errorf("%dKB region: boundary leak", kb)
		}
	}
}

func TestStartSchedulesPeriodicTicks(t *testing.T) {
	eq := timing.NewEventQueue()
	cfg := DefaultRRMConfig()
	cfg.FastRefreshInterval = 100 * timing.Microsecond
	cfg.DecayInterval = 10 * timing.Microsecond
	iss := &recordingIssuer{}
	r, err := NewRRM(cfg, iss)
	if err != nil {
		t.Fatal(err)
	}
	makeHotWithBlocks(r, 0, 16)
	r.Start(eq)
	eq.RunUntil(350 * timing.Microsecond)
	// The hot entry's timer fires once per 100 us interval (first fire
	// at most one interval after Start), 16 blocks each: 3 firings.
	if got := r.Stats().FastRefreshes; got != 48 {
		t.Errorf("fast refreshes = %d, want 48", got)
	}
	// Decay ticks: 35 of them; wraps at 16 and 32 - second wrap demotes
	// (counter halved to 8 < 16 at the second wrap).
	if got := r.Stats().Demotions; got != 1 {
		t.Errorf("demotions = %d, want 1", got)
	}
}

func TestStaticPolicy(t *testing.T) {
	for _, m := range pcm.Modes() {
		p := NewStatic(m)
		if p.DecideWriteMode(0x1234, 0) != m {
			t.Errorf("static %v decided differently", m)
		}
		if p.GlobalRefreshMode() != m {
			t.Errorf("static %v global refresh mode", m)
		}
		if p.DecisionLatency() != 0 {
			t.Error("static policy has lookup latency")
		}
		p.RegisterLLCWrite(0, true, 0) // must not panic
	}
	if NewStatic(pcm.Mode7SETs).Name() != "Static-7-SETs" {
		t.Error("static name")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewStatic(0) did not panic")
		}
	}()
	NewStatic(0)
}

func TestShortWriteFraction(t *testing.T) {
	var s Stats
	if s.ShortWriteFraction() != 0 {
		t.Error("idle fraction")
	}
	s.ShortDecisions, s.LongDecisions = 3, 1
	if s.ShortWriteFraction() != 0.75 {
		t.Error("fraction")
	}
}

func TestRRMInterfaceCompliance(t *testing.T) {
	var _ WritePolicy = &Static{}
	var _ WritePolicy = &RRM{}
	if r, _ := newTiered(t, nil); r.Name() != "RRM-7/5/3" {
		t.Errorf("tiered name %q, want RRM-7/5/3", r.Name())
	}
	r, _ := newRRM(t, nil)
	if r.Name() != "RRM" {
		t.Error("name")
	}
	if r.DecisionLatency() != 4*timing.CPUCycle {
		t.Error("decision latency")
	}
	if r.GlobalRefreshMode() != pcm.Mode7SETs {
		t.Error("global refresh mode")
	}
}

func TestVectorWordsBoundary(t *testing.T) {
	// 16KB region = 256 blocks: bits span all four vector words, and
	// the neighbouring entries' vectors stay untouched.
	r, _ := newRRM(t, func(c *RRMConfig) { c.RegionBytes = 16 << 10 })
	if r.vecWords != 4 {
		t.Fatalf("vecWords = %d, want 4", r.vecWords)
	}
	const i = 1
	for _, b := range []int{0, 63, 64, 127, 128, 255} {
		r.vecSet(i, b)
		if !r.vecGet(i, b) {
			t.Errorf("bit %d lost", b)
		}
	}
	pop := func(i int) int {
		n := 0
		for _, w := range r.vec(i) {
			n += bits.OnesCount64(w)
		}
		return n
	}
	if pop(i) != 6 {
		t.Errorf("popcount = %d, want 6", pop(i))
	}
	if pop(i-1) != 0 || pop(i+1) != 0 {
		t.Error("bits leaked into a neighbouring entry's vector")
	}
}

// TestEntryHostFootprint: at the default 64 blocks per region an entry
// plus its vector fits one 64 B cache line (the paper accounts 128 bits),
// and the paper's two-tier monitor allocates no mid-tier side arrays.
func TestEntryHostFootprint(t *testing.T) {
	r, _ := newRRM(t, nil)
	if got := unsafe.Sizeof(entry{}); got != 56 {
		t.Errorf("entry is %d host bytes, want 56", got)
	}
	if got := int(unsafe.Sizeof(entry{})) + 8*r.vecWords; got > 64 {
		t.Errorf("entry takes %d host bytes with its vector, want <= 64", got)
	}
	if r.mid != nil {
		t.Error("two-tier monitor allocated mid-tier side arrays")
	}
	tr, _ := newTiered(t, nil)
	if n := len(tr.entries); len(tr.mid.vecs) != n*tr.vecWords || len(tr.mid.timers) != n {
		t.Errorf("tiered side arrays %d/%d for %d entries", len(tr.mid.vecs), len(tr.mid.timers), n)
	}
	if got := tr.cfg.EntryBits(); got != 193 {
		t.Errorf("A4 entry bits = %d, want 193 (1+52+2+6+2x64+4)", got)
	}
	if r.vecWords*64 < r.cfg.BlocksPerRegion() {
		t.Errorf("%d vector words cannot hold %d blocks", r.vecWords, r.cfg.BlocksPerRegion())
	}
}

// TestTieredPromotion: a region reaching a mid tier's threshold writes
// its blocks with that tier's mode; reaching HotThreshold it writes new
// blocks with ShortMode, while blocks marked at the mid tier keep the
// mid mode until rewritten.
func TestTieredPromotion(t *testing.T) {
	r, _ := newTiered(t, nil)
	base := uint64(0x40000)
	if mode := r.DecideWriteMode(base, 0); mode != pcm.Mode7SETs {
		t.Errorf("cold mode = %v", mode)
	}
	for i := 0; i < 8; i++ {
		r.RegisterLLCWrite(base, true, 0)
	}
	if got := r.Stats().Promotions; got != 1 {
		t.Fatalf("promotions after 8 dirty writes = %d, want 1", got)
	}
	r.RegisterLLCWrite(base+64, true, 0)
	if mode := r.DecideWriteMode(base+64, 0); mode != pcm.Mode5SETs {
		t.Errorf("mid block mode = %v, want 5-SETs", mode)
	}
	for i := 0; i < 7; i++ {
		r.RegisterLLCWrite(base, true, 0)
	}
	if got := r.Stats().Promotions; got != 2 {
		t.Fatalf("promotions after 16 dirty writes = %d, want 2", got)
	}
	r.RegisterLLCWrite(base+128, true, 0)
	if mode := r.DecideWriteMode(base+128, 0); mode != pcm.Mode3SETs {
		t.Errorf("hot block mode = %v, want 3-SETs", mode)
	}
	if mode := r.DecideWriteMode(base+64, 0); mode != pcm.Mode5SETs {
		t.Errorf("mid block after hot promotion = %v, want 5-SETs", mode)
	}
	if s := r.Stats(); s.ShortDecisions != 3 || s.LongDecisions != 1 {
		t.Errorf("decision split = %+v, want 3 short (1 fast + 2 mid) and 1 long", s)
	}
	if hot, blocks := r.HotEntries(); hot != 1 || blocks != 3 {
		t.Errorf("hot entries %d with %d blocks, want 1 with 3 (blocks 0, 1, 2)", hot, blocks)
	}
}

func TestTieredStreamingFilter(t *testing.T) {
	r, _ := newTiered(t, nil)
	for i := 0; i < 100; i++ {
		r.RegisterLLCWrite(uint64(i%64)*64, false, 0)
	}
	if s := r.Stats(); s.CleanFiltered != 100 || s.Promotions != 0 {
		t.Errorf("streaming filter broken: %+v", s)
	}
}

// timedIssuer records each refresh with the queue time it was issued at.
type timedIssuer struct {
	eq   *timing.EventQueue
	refs []timedRef
}

type timedRef struct {
	issued
	at timing.Time
}

func (ti *timedIssuer) IssueRefresh(addr uint64, mode pcm.WriteMode, kind pcm.WearKind) {
	ti.refs = append(ti.refs, timedRef{issued{addr, mode, kind}, ti.eq.Now()})
}

// times returns when addr was refreshed with mode and kind.
func (ti *timedIssuer) times(addr uint64, mode pcm.WriteMode, kind pcm.WearKind) []timing.Time {
	var out []timing.Time
	for _, ref := range ti.refs {
		if ref.addr == addr && ref.mode == mode && ref.kind == kind {
			out = append(out, ref.at)
		}
	}
	return out
}

// startedTiered builds a started A4-shaped monitor with short intervals
// (fast 100 µs, mid 400 µs) and decay out of the way.
func startedTiered(t *testing.T, mutate func(*RRMConfig)) (*RRM, *timedIssuer, *timing.EventQueue) {
	t.Helper()
	cfg := DefaultRRMConfig()
	cfg.FastRefreshInterval = 100 * timing.Microsecond
	cfg.MidTiers = []RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: 400 * timing.Microsecond}}
	cfg.DecayInterval = timing.Second
	if mutate != nil {
		mutate(&cfg)
	}
	eq := timing.NewEventQueue()
	ti := &timedIssuer{eq: eq}
	r, err := NewRRM(cfg, ti)
	if err != nil {
		t.Fatal(err)
	}
	r.Start(eq)
	return r, ti, eq
}

// checkEveryInterval fails unless times covers [from, to] with gaps of
// at most iv: a refresh within iv of from, then at most iv apart, and
// the last within iv of to.
func checkEveryInterval(t *testing.T, what string, times []timing.Time, from, to, iv timing.Time) {
	t.Helper()
	prev := from
	for _, at := range append(times, to) {
		if at-prev > iv {
			t.Errorf("%s: %v without a refresh (%v .. %v), interval %v; refreshes at %v",
				what, at-prev, prev, at, iv, times)
			return
		}
		prev = at
	}
}

// TestTieredRefreshModes: promoted before Start, each tier's blocks are
// refreshed with its own mode at its own rate.
func TestTieredRefreshModes(t *testing.T) {
	cfg := DefaultRRMConfig()
	cfg.FastRefreshInterval = 100 * timing.Microsecond
	cfg.MidTiers = []RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: 400 * timing.Microsecond}}
	cfg.DecayInterval = timing.Second
	iss := &recordingIssuer{}
	r, err := NewRRM(cfg, iss)
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(0x100000)
	for i := 0; i < 8; i++ {
		r.RegisterLLCWrite(base, true, 0)
	}
	r.RegisterLLCWrite(base+64, true, 0) // mid block
	for i := 0; i < 8; i++ {
		r.RegisterLLCWrite(base, true, 0)
	}
	r.RegisterLLCWrite(base+128, true, 0) // fast block
	eq := timing.NewEventQueue()
	r.Start(eq)
	eq.RunUntil(450 * timing.Microsecond)
	var fast, mid int
	for _, ref := range iss.refreshes {
		switch {
		case ref.kind != pcm.WearRRMRefresh:
			t.Errorf("unexpected %v refresh", ref.kind)
		case (ref.addr == base || ref.addr == base+128) && ref.mode == pcm.Mode3SETs:
			fast++
		case (ref.addr == base || ref.addr == base+64) && ref.mode == pcm.Mode5SETs:
			mid++
		default:
			t.Errorf("refresh %+v in the wrong mode for its block", ref)
		}
	}
	// Block 0, written at both promotions, sits in both vectors. The
	// fast tier fires 4x in 450 µs (interval 100 µs) for its two blocks;
	// the mid tier once for each of its two.
	if fast != 8 || mid != 2 {
		t.Errorf("fast %d / mid %d refreshes, want 8 / 2", fast, mid)
	}
	if got := r.Stats().FastRefreshes; got != 10 {
		t.Errorf("FastRefreshes = %d, want 10 (every faster-than-long tier)", got)
	}
}

// TestTieredTimerSurvivesPromotion: a started monitor promotes a region
// live to the mid tier, marks a mid block, then promotes it to the fast
// tier. The mid block must keep its mid refreshes — at least one per mid
// interval — for as long as it is written with the mid mode.
func TestTieredTimerSurvivesPromotion(t *testing.T) {
	r, ti, eq := startedTiered(t, nil)
	const iv = 400 * timing.Microsecond
	base := uint64(0x100000)
	eq.RunUntil(10 * timing.Microsecond)
	for i := 0; i < 8; i++ {
		r.RegisterLLCWrite(base, true, eq.Now())
	}
	r.RegisterLLCWrite(base+64, true, eq.Now())
	set := eq.Now()
	eq.RunUntil(50 * timing.Microsecond)
	for i := 0; i < 8; i++ {
		r.RegisterLLCWrite(base, true, eq.Now())
	}
	r.RegisterLLCWrite(base+128, true, eq.Now())
	end := set + 5*iv
	eq.RunUntil(end)

	mid := ti.times(base+64, pcm.Mode5SETs, pcm.WearRRMRefresh)
	if len(mid) < 5 {
		t.Errorf("mid block refreshed %d times in 5 mid intervals, want >= 5", len(mid))
	}
	checkEveryInterval(t, "mid block", mid, set, end, iv)
	checkEveryInterval(t, "fast block", ti.times(base+128, pcm.Mode3SETs, pcm.WearRRMRefresh),
		50*timing.Microsecond, end, 100*timing.Microsecond)
	if mode := r.DecideWriteMode(base+64, eq.Now()); mode != pcm.Mode5SETs {
		t.Errorf("mid block mode = %v, want 5-SETs", mode)
	}
}

// TestTieredTimersAcrossDemotionAndEviction: a demotion or an eviction
// while mid timers are pending flushes the mid blocks with slow
// refreshes and kills the timers; re-promoting the slot — even to the
// same region — leaves exactly one live mid timer.
func TestTieredTimersAcrossDemotionAndEviction(t *testing.T) {
	const iv = 400 * timing.Microsecond
	warm := func(r *RRM, eq *timing.EventQueue, base uint64) {
		for i := 0; i < 8; i++ {
			r.RegisterLLCWrite(base, true, eq.Now())
		}
		r.RegisterLLCWrite(base+64, true, eq.Now())
	}
	t.Run("demotion", func(t *testing.T) {
		r, ti, eq := startedTiered(t, nil)
		base := uint64(0x100000)
		warm(r, eq, base)
		eq.RunUntil(100 * timing.Microsecond)
		for i := 0; i < 2*r.decayWrap; i++ { // halve to 4 at the first wrap, demote at the second
			r.DecayTick(eq.Now())
		}
		if got := r.Stats().Demotions; got != 1 {
			t.Fatalf("demotions = %d, want 1", got)
		}
		if n := len(ti.times(base+64, pcm.Mode7SETs, pcm.WearSlowRefresh)); n != 1 {
			t.Errorf("demotion slow-refreshed the mid block %d times, want 1", n)
		}
		eq.RunUntil(200 * timing.Microsecond)
		warm(r, eq, base) // counter 4 -> 8: back to the mid tier
		redo := eq.Now()
		eq.RunUntil(redo + 3*iv)
		var after []timing.Time
		for _, at := range ti.times(base+64, pcm.Mode5SETs, pcm.WearRRMRefresh) {
			if at > redo {
				after = append(after, at)
			}
		}
		if len(after) != 3 {
			t.Errorf("re-promoted mid block refreshed at %v, want exactly one per interval (3)", after)
		}
		checkEveryInterval(t, "re-promoted mid block", after, redo, redo+3*iv, iv)
	})
	t.Run("eviction", func(t *testing.T) {
		r, ti, eq := startedTiered(t, func(c *RRMConfig) { c.Sets, c.Ways = 1, 1 })
		a, b := uint64(0), uint64(4096)
		warm(r, eq, a)
		eq.RunUntil(100 * timing.Microsecond)
		r.RegisterLLCWrite(b, true, eq.Now()) // evicts a
		if got := r.Stats().EvictionFlush; got != 2 {
			t.Errorf("eviction flushed %d blocks, want 2 (blocks 0 and 1)", got)
		}
		eq.RunUntil(200 * timing.Microsecond)
		r.RegisterLLCWrite(a, true, eq.Now()) // evicts b; a returns to its old slot
		warm(r, eq, a)                        // counter 1 -> 9: mid again at the 8th
		redo := eq.Now()
		eq.RunUntil(redo + 3*iv)
		var before, after []timing.Time
		for _, at := range ti.times(a+64, pcm.Mode5SETs, pcm.WearRRMRefresh) {
			if at > redo {
				after = append(after, at)
			} else {
				before = append(before, at)
			}
		}
		if len(before) != 0 {
			t.Errorf("evicted mid block refreshed at %v while untracked", before)
		}
		if len(after) != 3 {
			t.Errorf("re-allocated mid block refreshed at %v, want exactly one per interval (3)", after)
		}
	})
	t.Run("eviction-two-tier", func(t *testing.T) {
		// The top tier's timer lives in the entry: re-allocating the way
		// must not revive the timer the eviction ended.
		const fast = 100 * timing.Microsecond
		r, ti, eq := startedTiered(t, func(c *RRMConfig) { c.Sets, c.Ways, c.MidTiers = 1, 1, nil })
		a, b := uint64(0), uint64(4096)
		heat := func() {
			for i := 0; i < r.cfg.HotThreshold; i++ {
				r.RegisterLLCWrite(a, true, eq.Now())
			}
		}
		heat()
		eq.RunUntil(20 * timing.Microsecond)
		r.RegisterLLCWrite(b, true, eq.Now()) // evicts a
		if got := r.Stats().EvictionFlush; got != 1 {
			t.Errorf("eviction flushed %d blocks, want 1", got)
		}
		eq.RunUntil(40 * timing.Microsecond)
		heat() // a returns to its old way and is promoted again
		redo := eq.Now()
		eq.RunUntil(redo + 5*fast)
		var after []timing.Time
		for _, at := range ti.times(a, r.cfg.ShortMode, pcm.WearRRMRefresh) {
			if at > redo {
				after = append(after, at)
			}
		}
		if len(after) != 5 {
			t.Errorf("re-promoted hot block refreshed at %v, want exactly one per interval (5)", after)
		}
		checkEveryInterval(t, "re-promoted hot block", after, redo, redo+5*fast, fast)
	})
}

// TestTieredDecay: on a decay wrap an entry keeps its tier only while it
// meets its own tier's threshold; otherwise it drops all the way to
// LongMode, slow-refreshing every tracked block of every tier.
func TestTieredDecay(t *testing.T) {
	r, iss := newTiered(t, nil)
	base := uint64(0x200000)
	for i := 0; i < 8; i++ {
		r.RegisterLLCWrite(base, true, 0)
	}
	r.RegisterLLCWrite(base+64, true, 0) // mid block; counter 9
	for i := 0; i < 7; i++ {
		r.RegisterLLCWrite(base, true, 0)
	}
	r.RegisterLLCWrite(base+128, true, 0) // fast block; counter 16
	wrap := func() {
		for i := 0; i < r.decayWrap; i++ {
			r.DecayTick(0)
		}
	}
	wrap() // 16 meets the top threshold: halve to 8, stay hot
	if hot, _ := r.HotEntries(); hot != 1 || r.Stats().Demotions != 0 {
		t.Fatal("first wrap should keep the saturated entry at the top tier")
	}
	wrap() // 8 misses the top threshold: demoted past the mid tier it meets
	if got := r.Stats().Demotions; got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}
	if i := r.lookup(r.region(base)); r.entries[i].tier != 0 {
		t.Errorf("demoted to tier %d, want 0", r.entries[i].tier)
	}
	var slow []uint64
	for _, ref := range iss.refreshes {
		if ref.kind == pcm.WearSlowRefresh && ref.mode == pcm.Mode7SETs {
			slow = append(slow, ref.addr)
		}
	}
	if len(slow) != 3 {
		t.Errorf("slow refreshes for %#x, want blocks 0, 1 and 2 once each", slow)
	}
	for _, a := range []uint64{base, base + 64, base + 128} {
		if mode := r.DecideWriteMode(a, 0); mode != pcm.Mode7SETs {
			t.Errorf("demoted block %#x still %v", a, mode)
		}
	}

	// A mid-tier entry is held to the mid threshold.
	r2, _ := newTiered(t, nil)
	for i := 0; i < 8; i++ {
		r2.RegisterLLCWrite(base, true, 0)
	}
	for i := 0; i < r2.decayWrap; i++ {
		r2.DecayTick(0)
	}
	if r2.Stats().Demotions != 0 {
		t.Error("mid entry at its threshold demoted on the first wrap")
	}
	for i := 0; i < r2.decayWrap; i++ {
		r2.DecayTick(0)
	}
	if r2.Stats().Demotions != 1 {
		t.Error("mid entry below its threshold kept its tier")
	}
}

// TestTieredEvictionFlush: evicting a tiered entry slow-refreshes the
// union of its tiers' blocks, once per block.
func TestTieredEvictionFlush(t *testing.T) {
	r, iss := newTiered(t, func(c *RRMConfig) { c.Sets = 1; c.Ways = 2 })
	for reg := uint64(0); reg < 3; reg++ {
		base := reg * 4096
		for i := 0; i < 8; i++ {
			r.RegisterLLCWrite(base, true, 0)
		}
		r.RegisterLLCWrite(base+64, true, 0) // mid
		for i := 0; i < 7; i++ {
			r.RegisterLLCWrite(base, true, 0)
		}
		r.RegisterLLCWrite(base+64, true, 0)  // now in both vectors
		r.RegisterLLCWrite(base+128, true, 0) // fast
	}
	s := r.Stats()
	if s.Evictions != 1 || s.EvictionFlush != 3 {
		t.Fatalf("evictions %d flushing %d blocks, want 1 flushing 3", s.Evictions, s.EvictionFlush)
	}
	var evicted []uint64
	for _, ref := range iss.refreshes {
		if ref.kind == pcm.WearSlowRefresh {
			evicted = append(evicted, ref.addr)
		}
	}
	if len(evicted) != 3 || evicted[0] != 0 || evicted[1] != 64 || evicted[2] != 128 {
		t.Errorf("eviction slow-refreshed %#x, want region 0's blocks 0, 1, 2", evicted)
	}
}

// TestMultiModeConfigValidation: the three-tier multi-mode monitor
// (ablation A4) is an RRM config with one mid tier; it validates, and
// breaking its geometry, thresholds, modes or refresh intervals is
// rejected.
func TestMultiModeConfigValidation(t *testing.T) {
	cfg := DefaultRRMConfig()
	cfg.MidTiers = a4Tiers()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*RRMConfig){
		func(c *RRMConfig) { c.Sets = 100 },
		func(c *RRMConfig) { c.Ways = 0 },
		func(c *RRMConfig) { c.RegionBytes = 3000 },
		func(c *RRMConfig) { c.MidTiers[0].Threshold = 0 },
		func(c *RRMConfig) { c.HotThreshold = c.MidTiers[0].Threshold },
		func(c *RRMConfig) { c.MidTiers[0].Mode = pcm.Mode3SETs },
		func(c *RRMConfig) { c.FastRefreshInterval = 0 },
		func(c *RRMConfig) { c.MidTiers[0].RefreshInterval = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultRRMConfig()
		cfg.MidTiers = a4Tiers()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestMultiModeScale: Scale divides every tier's refresh interval and
// the decay tick, samples refreshes 1-in-k and leaves the caller's tier
// list alone.
func TestMultiModeScale(t *testing.T) {
	base := DefaultRRMConfig()
	base.MidTiers = a4Tiers()
	cfg := base.Scale(100)
	if cfg.FastRefreshInterval != 20*timing.Millisecond {
		t.Errorf("scaled fast interval = %v", cfg.FastRefreshInterval)
	}
	if cfg.MidTiers[0].RefreshInterval != 1030*timing.Millisecond {
		t.Errorf("scaled mid interval = %v", cfg.MidTiers[0].RefreshInterval)
	}
	if cfg.DecayInterval != 1250*timing.Microsecond {
		t.Errorf("scaled decay = %v", cfg.DecayInterval)
	}
	if cfg.RefreshSampling != 100 {
		t.Errorf("refresh sampling = %d, want 100", cfg.RefreshSampling)
	}
	if base.MidTiers[0].RefreshInterval != 103*timing.Second {
		t.Errorf("Scale rewrote the caller's tier list: %v", base.MidTiers[0].RefreshInterval)
	}
}

// TestMultiModeInterface: the three-tier monitor is a WritePolicy with
// the RRM's decision latency and 7-SETs global refresh.
func TestMultiModeInterface(t *testing.T) {
	var _ WritePolicy = &RRM{}
	m, _ := newTiered(t, nil)
	if m.Name() != "RRM-7/5/3" {
		t.Errorf("name %q", m.Name())
	}
	if m.GlobalRefreshMode() != pcm.Mode7SETs {
		t.Error("global mode")
	}
	if m.DecisionLatency() != 4*timing.CPUCycle {
		t.Error("latency")
	}
}
