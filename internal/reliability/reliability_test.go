package reliability

import (
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// testConfig returns an enabled model with no programming errors, so
// tests control flip counts exactly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Enabled = true
	cfg.ProgBitErrorProb = 0
	return cfg
}

func TestBitErrorProbZeroThenMonotone(t *testing.T) {
	table := pcm.DefaultDriftTable()
	for _, mode := range pcm.Modes() {
		sets := mode.Sets()
		ret, err := table.Retention(sets)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly zero through the whole guardband window.
		for _, el := range []timing.Time{0, 1, ret / 2, ret - 1, ret} {
			if p := table.BitErrorProb(sets, el); p != 0 {
				t.Errorf("mode %v: BitErrorProb(%v) = %g, want 0 (retention %v)", mode, el, p, ret)
			}
		}
		// Continuous from zero: 0.1 % past the deadline the tail is tiny
		// but positive (at retention+1 ps it can underflow to exactly 0,
		// which the monotonicity loop below still accepts).
		if p := table.BitErrorProb(sets, ret+ret/1000); p <= 0 || p > 1e-3 {
			t.Errorf("mode %v: BitErrorProb(1.001*retention) = %g, want tiny positive", mode, p)
		}
		// Monotone non-decreasing past the deadline.
		last := 0.0
		for el := ret + 1; el < 100*timing.Second; el *= 2 {
			p := table.BitErrorProb(sets, el)
			if p < last {
				t.Fatalf("mode %v: BitErrorProb not monotone at %v: %g < %g", mode, el, p, last)
			}
			if p < 0 || p > 1 {
				t.Fatalf("mode %v: BitErrorProb(%v) = %g out of [0,1]", mode, el, p)
			}
			last = p
		}
	}
}

func TestBitErrorProbOutOfRangeSets(t *testing.T) {
	table := pcm.DefaultDriftTable()
	for _, sets := range []int{0, 2, 8, -1} {
		if p := table.BitErrorProb(sets, timing.Second); p != 1 {
			t.Errorf("BitErrorProb(sets=%d) = %g, want 1 (conservative for unknown modes)", sets, p)
		}
	}
}

// TestECCBoundaries drives the classifier across the exact correction
// boundary: t flips correct, t+1 flips are uncorrectable.
func TestECCBoundaries(t *testing.T) {
	cases := []struct {
		name        string
		flips       uint16
		wantClean   uint64
		wantCorr    uint64
		wantUncorr  uint64
		wantBits    uint64
		wantStalled bool
	}{
		{"zero flips", 0, 1, 0, 0, 0, false},
		{"one flip", 1, 0, 1, 0, 1, true},
		{"exactly t flips", 4, 0, 1, 0, 4, true},
		{"t plus one flips", 5, 0, 0, 1, 0, true},
		{"many flips", 512, 0, 0, 1, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(testConfig(), pcm.DefaultDriftTable(), 1, 1, 7)
			const addr = uint64(0x1000)
			e.OnWrite(addr, pcm.Mode7SETs, pcm.WearDemandWrite, 0)
			_, ls := e.lines.find(addr)
			ls.flips = tc.flips

			stall := e.OnDemandRead(addr, timing.Microsecond)
			m := e.Metrics()
			if m.ReadsChecked != 1 || m.CleanReads != tc.wantClean ||
				m.CorrectedReads != tc.wantCorr || m.UncorrectableReads != tc.wantUncorr ||
				m.BitFlipsCorrected != tc.wantBits {
				t.Errorf("metrics = %+v, want clean=%d corr=%d uncorr=%d bits=%d",
					m, tc.wantClean, tc.wantCorr, tc.wantUncorr, tc.wantBits)
			}
			if stalled := stall > 0; stalled != tc.wantStalled {
				t.Errorf("stall = %v, want stalled=%v", stall, tc.wantStalled)
			}
			if tc.wantStalled && stall != e.cfg.ECCLatency {
				t.Errorf("stall = %v, want ECCLatency %v", stall, e.cfg.ECCLatency)
			}
		})
	}
}

// TestScrubResetsState ages a Mode-3 line far past its retention so it
// accumulates flips, then rewrites it: the scrub must classify the old
// generation and the next read must be clean.
func TestScrubResetsState(t *testing.T) {
	e := New(testConfig(), pcm.DefaultDriftTable(), 1, 1, 7)
	const addr = uint64(0x2000)
	e.OnWrite(addr, pcm.Mode3SETs, pcm.WearDemandWrite, 0)

	// 100 s past a 2.01 s deadline: p is large, flips are certain.
	aged := 100 * timing.Second
	if e.OnDemandRead(addr, aged) == 0 {
		t.Fatal("expected a stalled (errored) read on the aged line")
	}
	if m := e.Metrics(); m.CorrectedReads+m.UncorrectableReads != 1 {
		t.Fatalf("aged read not classified as errored: %+v", m)
	}

	e.OnWrite(addr, pcm.Mode3SETs, pcm.WearRRMRefresh, aged)
	m := e.Metrics()
	// The first write only starts tracking; the refresh is the one scrub.
	if m.ScrubsOnRefresh != 1 || m.ScrubsOnWrite != 0 {
		t.Fatalf("scrub counters = refresh %d, write %d; want 1, 0",
			m.ScrubsOnRefresh, m.ScrubsOnWrite)
	}
	if m.ScrubFoundCorrected+m.ScrubFoundUncorrectable != 1 {
		t.Fatalf("scrub did not classify the old generation: %+v", m)
	}
	if m.LinesScrubbed != 1 {
		t.Fatalf("LinesScrubbed = %d, want 1", m.LinesScrubbed)
	}

	// Fresh generation, read within guardband: clean, no stall.
	if stall := e.OnDemandRead(addr, aged+timing.Microsecond); stall != 0 {
		t.Fatalf("post-scrub read stalled %v, want clean", stall)
	}
	if m := e.Metrics(); m.CleanReads != 1 {
		t.Fatalf("post-scrub read not clean: %+v", m)
	}
}

// TestDeterminism: identical seeds and op sequences produce identical
// metrics; the engine's randomness lives entirely in its seeded streams.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) Metrics {
		cfg := testConfig()
		cfg.ProgBitErrorProb = 0.01
		e := New(cfg, pcm.DefaultDriftTable(), 1000, 1, seed)
		for i := uint64(0); i < 200; i++ {
			e.OnWrite(i<<6, pcm.Mode3SETs, pcm.WearDemandWrite, timing.Time(i)*timing.Microsecond)
		}
		for i := uint64(0); i < 200; i += 3 {
			e.OnDemandRead(i<<6, 10*timing.Millisecond)
		}
		e.Finish(20 * timing.Millisecond)
		return e.Metrics()
	}
	if a, b := run(42), run(42); a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a, b := run(42), run(43); a == b {
		t.Errorf("different seeds produced identical metrics (suspicious): %+v", a)
	}
}

// TestUnsampledBlocksIgnored: blocks outside the policy's refresh sample
// are never tracked.
func TestUnsampledBlocksIgnored(t *testing.T) {
	e := New(testConfig(), pcm.DefaultDriftTable(), 1000, 1000, 7)
	for i := uint64(0); i < 2000; i++ {
		e.OnWrite(i<<6, pcm.Mode3SETs, pcm.WearDemandWrite, 0)
	}
	tracked := e.Tracked()
	if tracked == 0 || tracked >= 100 {
		t.Errorf("tracked = %d lines of 2000 at sampling 1000, want a small nonzero subset", tracked)
	}
	if m := e.Metrics(); m.LinesTracked != uint64(tracked) {
		t.Errorf("LinesTracked = %d, want %d", m.LinesTracked, tracked)
	}
}

func TestPatrolRoundRobin(t *testing.T) {
	cfg := testConfig()
	cfg.Patrol = true
	cfg.PatrolBatch = 2
	e := New(cfg, pcm.DefaultDriftTable(), 1, 1, 7)
	addrs := []uint64{0x0, 0x40, 0x80}
	for _, a := range addrs {
		e.OnWrite(a, pcm.Mode3SETs, pcm.WearDemandWrite, 0)
	}
	var emitted []uint64
	issue := func(addr uint64, mode pcm.WriteMode) {
		if mode != pcm.Mode3SETs {
			t.Errorf("patrol emitted mode %v, want Mode3SETs", mode)
		}
		emitted = append(emitted, addr)
	}
	for i := 0; i < 3; i++ {
		e.Patrol(issue)
	}
	want := []uint64{0x0, 0x40, 0x80, 0x0, 0x40, 0x80}
	if len(emitted) != len(want) {
		t.Fatalf("emitted %d addrs, want %d", len(emitted), len(want))
	}
	for i := range want {
		if emitted[i] != want[i] {
			t.Fatalf("emitted[%d] = %#x, want %#x (round-robin order)", i, emitted[i], want[i])
		}
	}
	if m := e.Metrics(); m.PatrolIssued != 6 {
		t.Errorf("PatrolIssued = %d, want 6", m.PatrolIssued)
	}
}

func TestBinomialSampler(t *testing.T) {
	state := uint64(12345)
	if got := binomial(&state, 1000, 0); got != 0 {
		t.Errorf("binomial(n=1000, p=0) = %d, want 0", got)
	}
	if got := binomial(&state, 1000, 1); got != 1000 {
		t.Errorf("binomial(n=1000, p=1) = %d, want 1000", got)
	}
	if got := binomial(&state, 0, 0.5); got != 0 {
		t.Errorf("binomial(n=0) = %d, want 0", got)
	}
	// Mean sanity: 200 draws of Binomial(1000, 0.1) average near 100.
	sum := 0
	for i := 0; i < 200; i++ {
		d := binomial(&state, 1000, 0.1)
		if d < 0 || d > 1000 {
			t.Fatalf("draw %d out of range [0,1000]", d)
		}
		sum += d
	}
	if mean := float64(sum) / 200; mean < 80 || mean > 120 {
		t.Errorf("mean of Binomial(1000, 0.1) draws = %.1f, want ~100", mean)
	}
}

func TestLineSeedIndependence(t *testing.T) {
	seen := make(map[uint64]bool)
	for addr := uint64(0); addr < 64; addr++ {
		for gen := uint64(1); gen <= 4; gen++ {
			s := lineSeed(7, addr<<6, gen)
			if seen[s] {
				t.Fatalf("lineSeed collision at addr %#x gen %d", addr<<6, gen)
			}
			seen[s] = true
		}
	}
}

func TestMetricsSubAndFinalize(t *testing.T) {
	a := Metrics{ReadsChecked: 2_000_000_000, CorrectedReads: 30, UncorrectableReads: 4,
		LinesTracked: 100, LinesScrubbed: 50}
	warm := Metrics{ReadsChecked: 1_000_000_000, CorrectedReads: 10, UncorrectableReads: 2,
		LinesTracked: 40, LinesScrubbed: 20}
	m := a.Sub(warm)
	m.Finalize()
	if m.ReadsChecked != 1_000_000_000 || m.CorrectedReads != 20 || m.UncorrectableReads != 2 {
		t.Fatalf("Sub wrong: %+v", m)
	}
	// Gauges survive subtraction; rates are per billion of the window.
	if m.LinesTracked != 100 || m.LinesScrubbed != 50 {
		t.Errorf("gauges should not be warmup-subtracted: %+v", m)
	}
	if m.CorrectedPerBillionReads != 20 || m.UncorrectablePerBillionReads != 2 {
		t.Errorf("per-billion rates wrong: %+v", m)
	}
	if m.ScrubCoverage != 0.5 {
		t.Errorf("ScrubCoverage = %g, want 0.5", m.ScrubCoverage)
	}
	if m.Uncorrectable() != 2 {
		t.Errorf("Uncorrectable() = %d, want 2", m.Uncorrectable())
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"defaults disabled", func(c *Config) { c.Enabled = false }, true},
		{"defaults enabled", func(c *Config) {}, true},
		{"disabled ignores garbage", func(c *Config) { c.Enabled = false; c.LineBits = -5 }, true},
		{"negative ecc bits", func(c *Config) { c.ECCBits = -1 }, false},
		{"zero line bits", func(c *Config) { c.LineBits = 0 }, false},
		{"huge line bits", func(c *Config) { c.LineBits = 1 << 20 }, false},
		{"ecc wider than line", func(c *Config) { c.ECCBits = 513 }, false},
		{"prob one", func(c *Config) { c.ProgBitErrorProb = 1 }, false},
		{"prob negative", func(c *Config) { c.ProgBitErrorProb = -0.1 }, false},
		{"negative latency", func(c *Config) { c.ECCLatency = -1 }, false},
		{"patrol zero interval", func(c *Config) { c.Patrol = true; c.PatrolInterval = 0 }, false},
		{"patrol zero batch", func(c *Config) { c.Patrol = true; c.PatrolBatch = 0 }, false},
		{"patrol valid", func(c *Config) { c.Patrol = true }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
