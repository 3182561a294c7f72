package sim

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rrmpcm/internal/core"
	"rrmpcm/internal/dram"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// quickConfig returns a config small enough for unit tests: a light
// workload, short window, aggressive retention-clock scaling.
func quickConfig(t *testing.T, scheme Scheme, workload string) Config {
	t.Helper()
	w, err := trace.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(scheme, w)
	cfg.Duration = 3 * timing.Millisecond
	cfg.Warmup = 1 * timing.Millisecond
	cfg.TimeScale = 1000
	return cfg
}

func TestConfigValidation(t *testing.T) {
	w, _ := trace.WorkloadByName("hmmer")
	base := DefaultConfig(RRMScheme(), w)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Workload.Cores = nil },
		func(c *Config) { c.Workload.Cores = c.Workload.Cores[:2] },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.TimeScale = 0.5 },
		func(c *Config) { c.HitStallFactor = 1.5 },
		func(c *Config) { c.Scheme = StaticScheme(pcm.WriteMode(9)) },
		func(c *Config) { c.Scheme = Scheme{Kind: SchemeRRM} },
		func(c *Config) { c.Scheme = Scheme{Kind: SchemeKind(9)} },
		// Profile fields that size New's allocations (1<<33 of either
		// would ask for 64 GiB; never built here).
		func(c *Config) {
			c.Workload.Cores = slices.Clone(c.Workload.Cores)
			c.Workload.Cores[1].HotRegions = 1 << 33
		},
		func(c *Config) {
			c.Workload.Cores = slices.Clone(c.Workload.Cores)
			c.Workload.Cores[1].SweepGapRegions = 1 << 33
		},
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(RRMScheme(), w)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestConfigValidationNonFinite: NaN and infinite floats are rejected
// by Validate (and so by New) with an error naming the field, instead of
// passing through to a panic or a silently meaningless run.
func TestConfigValidationNonFinite(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"TimeScale", func(c *Config) { c.TimeScale = math.NaN() }},
		{"TimeScale", func(c *Config) { c.TimeScale = math.Inf(1) }},
		{"HitStallFactor", func(c *Config) { c.HitStallFactor = math.NaN() }},
		{"ProgBitErrorProb", func(c *Config) {
			c.Reliability.Enabled = true
			c.Reliability.ProgBitErrorProb = math.NaN()
		}},
	} {
		cfg := quickConfig(t, RRMScheme(), "hmmer")
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want an error naming the field", tc.field, err)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.field)
		}
	}
}

// TestNestedConfigValidationNonFinite sets each float field of the
// nested device, DRAM-tier and workload configs in turn to NaN, +Inf and
// -Inf: Validate must reject every one with an error naming the field.
func TestNestedConfigValidationNonFinite(t *testing.T) {
	withHybrid := func(c *Config) *dram.HybridConfig {
		hc := dram.DefaultHybridConfig()
		c.Hybrid = &hc
		return c.Hybrid
	}
	fields := []struct {
		field string
		set   func(c *Config, v float64)
	}{
		{"EnduranceWrites", func(c *Config, v float64) { c.Device.EnduranceWrites = v }},
		{"WearLevelEfficiency", func(c *Config, v float64) { c.Device.WearLevelEfficiency = v }},
		{"DirtyHighWater", func(c *Config, v float64) { withHybrid(c).Migration.DirtyHighWater = v }},
		{"ReadEnergyJ", func(c *Config, v float64) { withHybrid(c).DRAM.ReadEnergyJ = v }},
		{"WriteEnergyJ", func(c *Config, v float64) { withHybrid(c).DRAM.WriteEnergyJ = v }},
		{"MemFraction", func(c *Config, v float64) { c.Workload.Cores[0].MemFraction = v }},
		{"StoreFraction", func(c *Config, v float64) { c.Workload.Cores[0].StoreFraction = v }},
		{"BaseCPI", func(c *Config, v float64) { c.Workload.Cores[0].BaseCPI = v }},
		{"HotLoadFrac", func(c *Config, v float64) { c.Workload.Cores[0].HotLoadFrac = v }},
		{"StreamLoadFrac", func(c *Config, v float64) { c.Workload.Cores[0].StreamLoadFrac = v }},
		{"HotStoreFrac", func(c *Config, v float64) { c.Workload.Cores[0].HotStoreFrac = v }},
		{"StreamStoreFrac", func(c *Config, v float64) { c.Workload.Cores[0].StreamStoreFrac = v }},
		{"HotSkew", func(c *Config, v float64) { c.Workload.Cores[0].HotSkew = v }},
		{"MinLoad", func(c *Config, v float64) {
			c.Workload.Dynamics = &trace.Dynamics{Diurnal: &trace.Diurnal{PeriodOps: 1 << 20, MinLoad: v}}
		}},
		{"OffLoad", func(c *Config, v float64) {
			c.Workload.Dynamics = &trace.Dynamics{Burst: &trace.Burst{OnOps: 1000, OffOps: 1000, OffLoad: v}}
		}},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := quickConfig(t, RRMScheme(), "hmmer")
			f.set(&cfg, v)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), f.field) {
				t.Errorf("%s = %v: Validate = %v, want an error naming the field", f.field, v, err)
			}
		}
	}
}

func TestSchemeNames(t *testing.T) {
	if got := StaticScheme(pcm.Mode7SETs).Name(); got != "Static-7-SETs" {
		t.Errorf("static name = %q", got)
	}
	if got := RRMScheme().Name(); got != "RRM" {
		t.Errorf("rrm name = %q", got)
	}
	if got := tieredScheme(a4Tiers()).Name(); got != "RRM-7/5/3" {
		t.Errorf("tiered rrm name = %q", got)
	}
}

func TestScaledRRM(t *testing.T) {
	w, _ := trace.WorkloadByName("hmmer")
	cfg := DefaultConfig(RRMScheme(), w)
	cfg.TimeScale = 100
	r := cfg.scaledRRM()
	if r.FastRefreshInterval != 20*timing.Millisecond {
		t.Errorf("scaled fast refresh = %v, want 20ms", r.FastRefreshInterval)
	}
	if r.DecayInterval != 1250*timing.Microsecond {
		t.Errorf("scaled decay = %v, want 1.25ms", r.DecayInterval)
	}
	if got := cfg.scaledRetention(pcm.Mode3SETs); got != timing.Nanoseconds(2.01e9/100) {
		t.Errorf("scaled retention = %v", got)
	}

	// Every tier's interval scales, in a copy of the caller's list.
	cfg.Scheme = tieredScheme(a4Tiers())
	r = cfg.scaledRRM()
	if got := r.MidTiers[0].RefreshInterval; got != 1030*timing.Millisecond {
		t.Errorf("scaled mid refresh = %v, want 1.03s", got)
	}
	if got := cfg.Scheme.RRM.MidTiers[0].RefreshInterval; got != 103*timing.Second {
		t.Errorf("scaling rewrote the caller's tier list: %v", got)
	}
	if r.RefreshSampling != 100 {
		t.Errorf("refresh sampling = %d, want 100", r.RefreshSampling)
	}
}

// a4Tiers is ablation A4's mid tier: 5-SETs at 8 dirty writes,
// refreshed every 103 s.
func a4Tiers() []core.RRMTier {
	return []core.RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: 103 * timing.Second}}
}

// tieredScheme is the default RRM with the given mid tiers.
func tieredScheme(tiers []core.RRMTier) Scheme {
	s := RRMScheme()
	s.RRM.MidTiers = tiers
	return s
}

// TestSampledSchemeValidation: a tiered RRM is an RRM, so it can be
// sampled (its state snapshots).
func TestSampledSchemeValidation(t *testing.T) {
	spec := &SamplingSpec{Windows: 4, Window: 250 * timing.Microsecond, DetailWarmup: 100 * timing.Microsecond}
	cfg := quickConfig(t, tieredScheme(a4Tiers()), "hmmer")
	cfg.Sampling = spec
	if err := cfg.Validate(); err != nil {
		t.Errorf("sampled tiered RRM rejected: %v", err)
	}
}

func TestRunProducesMetrics(t *testing.T) {
	sys, err := New(quickConfig(t, RRMScheme(), "hmmer"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Scheme != "RRM" || m.Workload != "hmmer" {
		t.Errorf("labels = %q/%q", m.Scheme, m.Workload)
	}
	if m.Instructions == 0 || m.IPC <= 0 {
		t.Errorf("no progress: %+v", m)
	}
	if len(m.PerCoreIPC) != 4 {
		t.Errorf("per-core IPC count = %d", len(m.PerCoreIPC))
	}
	if m.SimSeconds != 0.003 {
		t.Errorf("sim seconds = %v", m.SimSeconds)
	}
	if m.LLCMPKI <= 0 {
		t.Error("no MPKI")
	}
	if m.WearTotalRate <= 0 || m.LifetimeYears <= 0 {
		t.Errorf("wear/lifetime: %v / %v", m.WearTotalRate, m.LifetimeYears)
	}
	if m.RetentionViolations != 0 {
		t.Errorf("retention violations: %d (%s)", m.RetentionViolations, m.FirstViolation)
	}
	if m.EnergyTotalJ <= 0 {
		t.Error("no energy")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() Metrics {
		sys, err := New(quickConfig(t, RRMScheme(), "hmmer"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Instructions != b.Instructions || a.IPC != b.IPC ||
		a.WritesServed != b.WritesServed || a.RRM.FastRefreshes != b.RRM.FastRefreshes {
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := quickConfig(t, RRMScheme(), "hmmer")
	sysA, _ := New(cfg)
	a, err := sysA.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	sysB, _ := New(cfg)
	b, err := sysB.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Instructions == b.Instructions && a.WritesServed == b.WritesServed {
		t.Error("different seeds produced identical traffic")
	}
}

func TestStaticSchemeUsesOneMode(t *testing.T) {
	for _, mode := range []pcm.WriteMode{pcm.Mode3SETs, pcm.Mode7SETs} {
		sys, err := New(quickConfig(t, StaticScheme(mode), "hmmer"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		for got := range m.WritesByMode {
			if got != mode {
				t.Errorf("static-%d produced %v writes", mode.Sets(), got)
			}
		}
		if m.RefreshesServed != 0 {
			t.Errorf("static scheme served %d RRM refreshes", m.RefreshesServed)
		}
		// Global refresh wear rate must match the mode's retention.
		want := float64(sys.cfg.Device.TotalBlocks()) / pcm.Retention(mode).Seconds()
		if m.WearGlobalRate != want {
			t.Errorf("global refresh rate = %g, want %g", m.WearGlobalRate, want)
		}
	}
}

func TestRRMSchemeSplitsModes(t *testing.T) {
	cfg := quickConfig(t, RRMScheme(), "GemsFDTD")
	cfg.Duration = 6 * timing.Millisecond
	cfg.Warmup = 2 * timing.Millisecond
	cfg.TimeScale = 500
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.WritesByMode[pcm.Mode3SETs] == 0 {
		t.Error("RRM issued no short writes")
	}
	if m.WritesByMode[pcm.Mode7SETs] == 0 {
		t.Error("RRM issued no long writes")
	}
	if m.ShortWriteFraction <= 0 || m.ShortWriteFraction >= 1 {
		t.Errorf("short write fraction = %v", m.ShortWriteFraction)
	}
	if m.RRM.Promotions == 0 {
		t.Error("no promotions")
	}
	if m.RetentionViolations != 0 {
		t.Errorf("violations: %d (%s)", m.RetentionViolations, m.FirstViolation)
	}
}

func TestBackpressureThrottlesCores(t *testing.T) {
	cfg := quickConfig(t, StaticScheme(pcm.Mode7SETs), "GemsFDTD")
	cfg.Ctrl.WriteQueueCap = 4
	cfg.Ctrl.WriteDrainHigh = 4
	cfg.Ctrl.WriteDrainLow = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	throttles := uint64(0)
	for _, c := range sys.cores {
		throttles += c.Stats().StallThrottle
	}
	if throttles == 0 {
		t.Error("tiny write queue never throttled the cores")
	}
}

func TestSchemeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme comparison is slow")
	}
	// The paper's headline ordering on a write-heavy workload:
	// perf: Static-3 > RRM > Static-7; lifetime: Static-7 > RRM > Static-3.
	run := func(s Scheme) Metrics {
		w, _ := trace.WorkloadByName("GemsFDTD")
		cfg := DefaultConfig(s, w)
		cfg.Duration = 20 * timing.Millisecond
		cfg.Warmup = 10 * timing.Millisecond
		cfg.TimeScale = 100
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	s7 := run(StaticScheme(pcm.Mode7SETs))
	s3 := run(StaticScheme(pcm.Mode3SETs))
	rrm := run(RRMScheme())

	if !(s3.IPC > rrm.IPC && rrm.IPC > s7.IPC) {
		t.Errorf("IPC ordering broken: s3=%.3f rrm=%.3f s7=%.3f", s3.IPC, rrm.IPC, s7.IPC)
	}
	if !(s7.LifetimeYears > rrm.LifetimeYears && rrm.LifetimeYears > s3.LifetimeYears) {
		t.Errorf("lifetime ordering broken: s7=%.2f rrm=%.2f s3=%.2f",
			s7.LifetimeYears, rrm.LifetimeYears, s3.LifetimeYears)
	}
	if rrm.RetentionViolations+s3.RetentionViolations+s7.RetentionViolations != 0 {
		t.Error("retention violations in ordering test")
	}
	if rrm.ShortWriteFraction < 0.3 {
		t.Errorf("RRM short-write fraction only %.2f", rrm.ShortWriteFraction)
	}
}

func TestRetentionCheckerUnit(t *testing.T) {
	w, _ := trace.WorkloadByName("hmmer")
	cfg := DefaultConfig(RRMScheme(), w)
	cfg.TimeScale = 1
	rc := newRetentionChecker(cfg)

	// Short write then timely rewrite: fine.
	rc.onWrite(0, pcm.Mode3SETs, 0)
	rc.onWrite(0, pcm.Mode3SETs, timing.Second)
	if rc.violations != 0 {
		t.Error("timely rewrite flagged")
	}
	// Expired read.
	rc.onRead(0, 4*timing.Second)
	if rc.violations != 1 {
		t.Errorf("expired read not flagged: %d", rc.violations)
	}
	// Long write clears tracking.
	rc.onWrite(64, pcm.Mode7SETs, 0)
	rc.onRead(64, 100*timing.Second)
	if rc.violations != 1 {
		t.Error("long-mode block tracked as short")
	}
	// finish flags unrefreshed leftovers.
	rc.onWrite(128, pcm.Mode3SETs, 0)
	rc.finish(10 * timing.Second)
	if rc.violations != 2 {
		t.Errorf("finish missed expiry: %d", rc.violations)
	}
	if rc.firstViolation == "" {
		t.Error("no violation message")
	}
}

func TestRetentionCheckerHorizon(t *testing.T) {
	w, _ := trace.WorkloadByName("hmmer")
	cfg := DefaultConfig(RRMScheme(), w)
	cfg.TimeScale = 1
	rc := newRetentionChecker(cfg)
	rc.onWrite(0, pcm.Mode3SETs, 0)
	rc.horizon = timing.Second // deadline (2.01s) is past the horizon
	rc.finish(10 * timing.Second)
	if rc.violations != 0 {
		t.Error("post-horizon expiry flagged")
	}
}

func TestMetricsEnergyConsistency(t *testing.T) {
	sys, err := New(quickConfig(t, StaticScheme(pcm.Mode7SETs), "hmmer"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := m.EnergyDemandJ + m.EnergyRefreshJ + m.PowerReadW*m.EquivSeconds
	if diff := m.EnergyTotalJ - sum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("energy total %g != parts %g", m.EnergyTotalJ, sum)
	}
	if m.EquivSeconds != 5 {
		t.Errorf("equivalent window = %v, want 5s", m.EquivSeconds)
	}
}

func TestRefreshRateBookkeepingUnderTimeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-ms runs")
	}
	// DESIGN.md's scaling claim: the de-scaled selective-refresh wear
	// rate is a real rate, so it must not scale with TimeScale (the
	// hot-set size is workload property, not a clock one). Two runs at
	// 2x different K should agree within noise.
	run := func(k float64) Metrics {
		w, _ := trace.WorkloadByName("GemsFDTD")
		cfg := DefaultConfig(RRMScheme(), w)
		cfg.Duration = 8 * timing.Millisecond
		cfg.Warmup = 3 * timing.Millisecond
		cfg.TimeScale = k
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(250), run(500)
	if a.WearRRMRate <= 0 || b.WearRRMRate <= 0 {
		t.Fatalf("no selective-refresh wear measured: %g / %g", a.WearRRMRate, b.WearRRMRate)
	}
	ratio := a.WearRRMRate / b.WearRRMRate
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("refresh wear rate scaled with K: %g at K=250 vs %g at K=500", a.WearRRMRate, b.WearRRMRate)
	}
	// Global refresh is analytic and exactly K-independent.
	if a.WearGlobalRate != b.WearGlobalRate {
		t.Error("global refresh rate depends on K")
	}
}

// TestNewAllocBudget: building the default RRM GemsFDTD system must stay
// cheap. Every sampled window fork and every detailed run pays for New,
// so a dense per-address array (one entry per 4 KB region of the 8 GB
// device is 8 MiB) must not creep back in unnoticed. The cache
// hierarchy's line words (one uint64 per line, ~0.95 MB) are most of it;
// the packed RRM table (64 B per entry, ~0.38 MiB) is next. The hot-region
// lookup tables are shared across Systems and cost nothing here once
// built.
func TestNewAllocBudget(t *testing.T) {
	const budget = 3 << 19 // 1.5 MiB
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(RRMScheme(), w)
	// The least of a few trials: a stray allocation elsewhere in the
	// process can only inflate one.
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		sys.Close()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= budget {
		t.Errorf("sim.New allocated %.1f MiB, budget %.1f MiB", float64(least)/(1<<20), float64(budget)/(1<<20))
	}
	t.Logf("sim.New allocates %.2f MiB", float64(least)/(1<<20))
}
