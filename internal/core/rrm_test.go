package core

import (
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
	}
	for i, mutate := range bad {
		cfg := DefaultRRMConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewRRM(DefaultRRMConfig(), nil); err == nil {
		t.Error("nil issuer accepted")
	}
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
	if r.vecPopCount(i) != 6 {
		t.Errorf("popcount = %d, want 6", r.vecPopCount(i))
	}
	if r.vecPopCount(i-1) != 0 || r.vecPopCount(i+1) != 0 {
		t.Error("bits leaked into a neighbouring entry's vector")
	}
	r.vecClear(i)
	if r.vecPopCount(i) != 0 {
		t.Error("clear failed")
	}
}

// TestEntryHostFootprint: at the default 64 blocks per region an entry
// plus its vector fits one 64 B cache line (the paper accounts 128 bits).
func TestEntryHostFootprint(t *testing.T) {
	r, _ := newRRM(t, nil)
	if got := int(unsafe.Sizeof(entry{})) + 8*r.vecWords; got > 64 {
		t.Errorf("entry takes %d host bytes with its vector, want <= 64", got)
	}
	if r.vecWords*64 < r.cfg.BlocksPerRegion() {
		t.Errorf("%d vector words cannot hold %d blocks", r.vecWords, r.cfg.BlocksPerRegion())
	}
}
