package sampling

import (
	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/reliability"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/stats"
	"rrmpcm/internal/timing"
)

// aggregate merges the window metrics into one full-run estimate.
// Rates and ratios are window means; event counts are scaled from the
// measured coverage up to the full duration (count estimates, rounded);
// retention violations are summed unscaled — they are a correctness
// signal, not a rate estimate. The confidence-interval report covers the
// headline metrics the experiments consume.
func aggregate(cfg sim.Config, ms []sim.Metrics) sim.Metrics {
	sp := cfg.Sampling
	n := len(ms)
	fn := float64(n)
	// scale maps a summed per-window count to a full-duration estimate.
	scale := cfg.Duration.Seconds() / (fn * sp.Window.Seconds())
	scaled := func(f func(*sim.Metrics) uint64) uint64 {
		var sum uint64
		for i := range ms {
			sum += f(&ms[i])
		}
		return uint64(float64(sum)*scale + 0.5)
	}
	mean := func(f func(*sim.Metrics) float64) float64 {
		var sum float64
		for i := range ms {
			sum += f(&ms[i])
		}
		return sum / fn
	}
	samples := func(f func(*sim.Metrics) float64) []float64 {
		out := make([]float64, n)
		for i := range ms {
			out[i] = f(&ms[i])
		}
		return out
	}

	out := sim.Metrics{
		Scheme:     ms[0].Scheme,
		Workload:   ms[0].Workload,
		SimSeconds: cfg.Duration.Seconds(),
		TimeScale:  ms[0].TimeScale,
	}

	// Performance.
	out.Instructions = scaled(func(m *sim.Metrics) uint64 { return m.Instructions })
	ipcSamples := samples(func(m *sim.Metrics) float64 { return m.IPC })
	out.IPC = mean(func(m *sim.Metrics) float64 { return m.IPC })
	for c := range ms[0].PerCoreIPC {
		out.PerCoreIPC = append(out.PerCoreIPC,
			mean(func(m *sim.Metrics) float64 { return m.PerCoreIPC[c] }))
	}
	mpkiSamples := samples(func(m *sim.Metrics) float64 { return m.LLCMPKI })
	out.LLCMPKI = mean(func(m *sim.Metrics) float64 { return m.LLCMPKI })

	// Memory traffic.
	out.ReadsServed = scaled(func(m *sim.Metrics) uint64 { return m.ReadsServed })
	out.WritesServed = scaled(func(m *sim.Metrics) uint64 { return m.WritesServed })
	out.RefreshesServed = scaled(func(m *sim.Metrics) uint64 { return m.RefreshesServed })
	out.AvgReadLatency = timing.Time(mean(func(m *sim.Metrics) float64 { return float64(m.AvgReadLatency) }))
	for i := range ms {
		if ms[i].MaxRefreshLat > out.MaxRefreshLat {
			out.MaxRefreshLat = ms[i].MaxRefreshLat
		}
		if ms[i].RefreshBacklogMax > out.RefreshBacklogMax {
			out.RefreshBacklogMax = ms[i].RefreshBacklogMax
		}
	}
	out.RowBufHitRate = mean(func(m *sim.Metrics) float64 { return m.RowBufHitRate })
	out.WritePauses = scaled(func(m *sim.Metrics) uint64 { return m.WritePauses })

	// Write-mode split: scaled per-mode sums, fraction weighted by each
	// window's write volume.
	modeSum := make(map[pcm.WriteMode]uint64)
	var shortWeighted, writeTotal float64
	for i := range ms {
		var winTotal float64
		for mode, c := range ms[i].WritesByMode {
			modeSum[mode] += c
			winTotal += float64(c)
		}
		shortWeighted += ms[i].ShortWriteFraction * winTotal
		writeTotal += winTotal
	}
	if len(modeSum) > 0 {
		out.WritesByMode = make(sim.ModeWrites, len(modeSum))
		for mode, c := range modeSum {
			out.WritesByMode[mode] = uint64(float64(c)*scale + 0.5)
		}
	}
	shortSamples := samples(func(m *sim.Metrics) float64 { return m.ShortWriteFraction })
	if writeTotal > 0 {
		out.ShortWriteFraction = shortWeighted / writeTotal
	}

	// Wear and lifetime. The global-refresh term is analytic and
	// identical in every window.
	wearSamples := samples(func(m *sim.Metrics) float64 { return m.WearTotalRate })
	out.WearDemandRate = mean(func(m *sim.Metrics) float64 { return m.WearDemandRate })
	out.WearRRMRate = mean(func(m *sim.Metrics) float64 { return m.WearRRMRate })
	out.WearSlowRate = mean(func(m *sim.Metrics) float64 { return m.WearSlowRate })
	out.WearGlobalRate = ms[0].WearGlobalRate
	out.WearTotalRate = out.WearDemandRate + out.WearRRMRate + out.WearSlowRate + out.WearGlobalRate
	out.LifetimeYears = stats.LifetimeYears(cfg.Device, out.WearTotalRate)

	// Energy.
	out.PowerDemandW = mean(func(m *sim.Metrics) float64 { return m.PowerDemandW })
	out.PowerRefreshW = mean(func(m *sim.Metrics) float64 { return m.PowerRefreshW })
	out.PowerReadW = mean(func(m *sim.Metrics) float64 { return m.PowerReadW })
	out.EquivSeconds = ms[0].EquivSeconds
	out.EnergyDemandJ = out.PowerDemandW * out.EquivSeconds
	out.EnergyRefreshJ = out.PowerRefreshW * out.EquivSeconds
	out.EnergyTotalJ = out.EnergyDemandJ + out.EnergyRefreshJ + out.PowerReadW*out.EquivSeconds

	// RRM internals: scaled count estimates; hot-set size is end-state,
	// so the last window's view is the run's view.
	rrmCount := func(f func(*core.Stats) uint64) uint64 {
		var sum uint64
		for i := range ms {
			sum += f(&ms[i].RRM)
		}
		return uint64(float64(sum)*scale + 0.5)
	}
	out.RRM = core.Stats{
		Registrations:  rrmCount(func(s *core.Stats) uint64 { return s.Registrations }),
		CleanFiltered:  rrmCount(func(s *core.Stats) uint64 { return s.CleanFiltered }),
		RegHits:        rrmCount(func(s *core.Stats) uint64 { return s.RegHits }),
		RegMisses:      rrmCount(func(s *core.Stats) uint64 { return s.RegMisses }),
		Allocations:    rrmCount(func(s *core.Stats) uint64 { return s.Allocations }),
		Evictions:      rrmCount(func(s *core.Stats) uint64 { return s.Evictions }),
		EvictionFlush:  rrmCount(func(s *core.Stats) uint64 { return s.EvictionFlush }),
		Promotions:     rrmCount(func(s *core.Stats) uint64 { return s.Promotions }),
		Demotions:      rrmCount(func(s *core.Stats) uint64 { return s.Demotions }),
		FastRefreshes:  rrmCount(func(s *core.Stats) uint64 { return s.FastRefreshes }),
		SlowRefreshes:  rrmCount(func(s *core.Stats) uint64 { return s.SlowRefreshes }),
		ShortDecisions: rrmCount(func(s *core.Stats) uint64 { return s.ShortDecisions }),
		LongDecisions:  rrmCount(func(s *core.Stats) uint64 { return s.LongDecisions }),
	}
	out.HotEntries = ms[n-1].HotEntries
	out.HotBlocks = ms[n-1].HotBlocks

	// Retention violations are summed raw: any nonzero count must
	// surface, never be rounded away by coverage scaling.
	for i := range ms {
		out.RetentionViolations += ms[i].RetentionViolations
		if out.FirstViolation == "" {
			out.FirstViolation = ms[i].FirstViolation
		}
	}
	out.RetentionDetail = sumRetentionDetail(ms)
	out.Reliability = sumReliability(ms)
	if h := aggregateHybrid(ms, scale); h != nil {
		h.DRAMEnergyJ = h.DRAMPowerW * out.EquivSeconds
		out.EnergyTotalJ += h.DRAMEnergyJ
		out.Hybrid = h
	}

	out.Sampling = &sim.SamplingReport{
		Windows:             n,
		WindowSeconds:       sp.Window.Seconds(),
		DetailWarmupSeconds: sp.DetailWarmup.Seconds(),
		Coverage:            sp.Coverage(cfg.Duration),
		Confidence:          0.95,
		IPC:                 interval(ipcSamples),
		LLCMPKI:             interval(mpkiSamples),
		WearTotalRate:       interval(wearSamples),
		ShortWriteFraction:  mixInterval(shortSamples),
	}
	// Wear is a physical rate: a Student-t lower bound below zero is a
	// small-sample artifact, so the interval is clamped to the physical
	// floor before anything derives from it.
	if out.Sampling.WearTotalRate.Lo < 0 {
		out.Sampling.WearTotalRate.Lo = 0
	}
	// Lifetime is a monotone decreasing function of total wear, so its
	// interval is the wear interval mapped through it (ends swap; a wear
	// floor of exactly zero maps to an unbounded lifetime, which the
	// Interval JSON encoding represents as null).
	wiv := out.Sampling.WearTotalRate
	out.Sampling.LifetimeYears = stats.Interval{
		Mean: stats.LifetimeYears(cfg.Device, wiv.Mean),
		Lo:   stats.LifetimeYears(cfg.Device, wiv.Hi),
		Hi:   stats.LifetimeYears(cfg.Device, wiv.Lo),
	}
	return out
}

// sumRetentionDetail merges the per-window violation breakdowns (nil
// when every window was clean, matching full-run behavior).
func sumRetentionDetail(ms []sim.Metrics) *sim.RetentionDetail {
	var out sim.RetentionDetail
	any := false
	for i := range ms {
		d := ms[i].RetentionDetail
		if d == nil {
			continue
		}
		any = true
		out.Total += d.Total
		out.ExpiredOnRead += d.ExpiredOnRead
		out.ExpiredOnRewrite += d.ExpiredOnRewrite
		out.ExpiredAtEnd += d.ExpiredAtEnd
		if out.First == "" {
			out.First = d.First
		}
	}
	if !any {
		return nil
	}
	return &out
}

// sumReliability merges the window reliability counters (raw sums over
// the detailed coverage — reads are only inspected inside windows) and
// recomputes the derived rates.
func sumReliability(ms []sim.Metrics) *reliability.Metrics {
	var out reliability.Metrics
	any := false
	for i := range ms {
		r := ms[i].Reliability
		if r == nil {
			continue
		}
		any = true
		out.ReadsChecked += r.ReadsChecked
		out.CleanReads += r.CleanReads
		out.CorrectedReads += r.CorrectedReads
		out.UncorrectableReads += r.UncorrectableReads
		out.BitFlipsCorrected += r.BitFlipsCorrected
		out.CorrectionStall += r.CorrectionStall
		out.ScrubsOnWrite += r.ScrubsOnWrite
		out.ScrubsOnRefresh += r.ScrubsOnRefresh
		out.PatrolIssued += r.PatrolIssued
		out.ScrubFoundCorrected += r.ScrubFoundCorrected
		out.ScrubFoundUncorrectable += r.ScrubFoundUncorrectable
		out.SweepLines += r.SweepLines
		out.SweepCorrected += r.SweepCorrected
		out.SweepUncorrectable += r.SweepUncorrectable
		if r.LinesTracked > out.LinesTracked {
			out.LinesTracked = r.LinesTracked
		}
		if r.LinesScrubbed > out.LinesScrubbed {
			out.LinesScrubbed = r.LinesScrubbed
		}
	}
	if !any {
		return nil
	}
	out.Finalize()
	return &out
}

// aggregateHybrid merges the per-window hybrid-tier breakdowns (nil for
// PCM-only runs): traffic and migration counts are coverage-scaled like
// the top-level counts, rates and power are window means, and the
// occupancy gauges are end-state, so the last window's view stands for
// the run. DRAMEnergyJ is derived by the caller from the aggregated
// power and equivalent duration.
func aggregateHybrid(ms []sim.Metrics, scale float64) *sim.HybridMetrics {
	if ms[0].Hybrid == nil {
		return nil
	}
	n := len(ms)
	count := func(f func(*sim.HybridMetrics) uint64) uint64 {
		var sum uint64
		for i := range ms {
			sum += f(ms[i].Hybrid)
		}
		return uint64(float64(sum)*scale + 0.5)
	}
	mean := func(f func(*sim.HybridMetrics) float64) float64 {
		var sum float64
		for i := range ms {
			sum += f(ms[i].Hybrid)
		}
		return sum / float64(n)
	}
	out := &sim.HybridMetrics{
		PCMReads:        count(func(h *sim.HybridMetrics) uint64 { return h.PCMReads }),
		PCMWrites:       count(func(h *sim.HybridMetrics) uint64 { return h.PCMWrites }),
		DRAMReads:       count(func(h *sim.HybridMetrics) uint64 { return h.DRAMReads }),
		DRAMWrites:      count(func(h *sim.HybridMetrics) uint64 { return h.DRAMWrites }),
		DRAMReadHitRate: mean(func(h *sim.HybridMetrics) float64 { return h.DRAMReadHitRate }),
		WriteAbsorption: mean(func(h *sim.HybridMetrics) float64 { return h.WriteAbsorption }),
		Promotions:      count(func(h *sim.HybridMetrics) uint64 { return h.Promotions }),
		Demotions:       count(func(h *sim.HybridMetrics) uint64 { return h.Demotions }),
		CleanEvictions:  count(func(h *sim.HybridMetrics) uint64 { return h.CleanEvictions }),
		CoalesceBatches: count(func(h *sim.HybridMetrics) uint64 { return h.CoalesceBatches }),
		CopyReads:       count(func(h *sim.HybridMetrics) uint64 { return h.CopyReads }),
		WritebackBlocks: count(func(h *sim.HybridMetrics) uint64 { return h.WritebackBlocks }),
		ResidentPages:   ms[n-1].Hybrid.ResidentPages,
		DirtyPages:      ms[n-1].Hybrid.DirtyPages,
		DRAMRowHitRate:  mean(func(h *sim.HybridMetrics) float64 { return h.DRAMRowHitRate }),
		DRAMRefreshStalls: count(func(h *sim.HybridMetrics) uint64 {
			return h.DRAMRefreshStalls
		}),
		DRAMAvgReadLatency: timing.Time(mean(func(h *sim.HybridMetrics) float64 {
			return float64(h.DRAMAvgReadLatency)
		})),
		DRAMPowerW: mean(func(h *sim.HybridMetrics) float64 { return h.DRAMPowerW }),
	}
	return out
}
