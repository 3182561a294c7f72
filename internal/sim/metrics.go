package sim

import (
	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/reliability"
	"rrmpcm/internal/stats"
	"rrmpcm/internal/timing"
)

// Metrics is everything one run reports. All rates are real-time rates:
// demand quantities are measured directly; clock-driven refresh
// quantities are de-scaled by TimeScale (see the package comment).
type Metrics struct {
	Scheme   string
	Workload string

	// SimSeconds is the measured (post-warmup) window.
	SimSeconds float64
	TimeScale  float64

	// Performance.
	Instructions uint64
	IPC          float64 // sum of per-core IPC (paper's figures)
	PerCoreIPC   []float64
	LLCMPKI      float64

	// Memory traffic in the measured window.
	ReadsServed     uint64
	WritesServed    uint64
	RefreshesServed uint64
	AvgReadLatency  timing.Time
	MaxRefreshLat   timing.Time
	RowBufHitRate   float64
	WritePauses     uint64

	// Write-mode split of demand writes. ModeWrites serializes with
	// readable mode-name keys (see metrics_json.go).
	WritesByMode       ModeWrites
	ShortWriteFraction float64

	// Wear, as real block-writes per second, by cause.
	WearDemandRate float64
	WearRRMRate    float64
	WearSlowRate   float64
	WearGlobalRate float64
	WearTotalRate  float64
	LifetimeYears  float64

	// Energy, as real power (watts) by cause, plus totals over the
	// equivalent duration (the paper's 5 s window).
	PowerDemandW   float64
	PowerRefreshW  float64 // RRM + slow + global refresh
	PowerReadW     float64
	EquivSeconds   float64
	EnergyDemandJ  float64
	EnergyRefreshJ float64
	EnergyTotalJ   float64

	// RRM internals (zero value for static schemes).
	RRM               core.Stats
	HotEntries        int
	HotBlocks         int
	RefreshBacklogMax int

	// Retention checking. RetentionViolations is the total deadline-miss
	// count; RetentionDetail breaks it down by the action that exposed
	// each expiry, under readable JSON keys (nil — omitted — for clean
	// runs, which keeps older metrics documents and goldens unchanged).
	RetentionViolations uint64
	FirstViolation      string
	RetentionDetail     *RetentionDetail `json:"retention_detail,omitempty"`

	// Reliability is the drift-fault/ECC/scrub accounting of the
	// measurement window (nil — omitted — when the model is disabled).
	Reliability *reliability.Metrics `json:"reliability,omitempty"`

	// Sampling is the confidence-interval summary of a sampled run (nil
	// — omitted — for full runs, so their metrics documents and goldens
	// are unchanged).
	Sampling *SamplingReport `json:"sampling,omitempty"`

	// Hybrid is the per-tier and migration-traffic breakdown of a
	// hybrid DRAM–PCM run (nil — omitted — when the staging tier is
	// disabled, so PCM-only metrics documents and goldens are
	// unchanged). When present, ReadsServed/WritesServed cover both
	// tiers: Hybrid.PCMReads+Hybrid.DRAMReads == ReadsServed, and
	// likewise for writes.
	Hybrid *HybridMetrics `json:"hybrid,omitempty"`
}

// HybridMetrics is the hybrid tier's measurement-window breakdown.
type HybridMetrics struct {
	// Per-tier served traffic. The PCM side counts everything the PCM
	// array served in the window, including migration copy reads and
	// demotion writebacks; the DRAM side counts demand traffic the
	// staging tier served (reads) or absorbed (writes).
	PCMReads   uint64 `json:"pcm_reads"`
	PCMWrites  uint64 `json:"pcm_writes"`
	DRAMReads  uint64 `json:"dram_reads"`
	DRAMWrites uint64 `json:"dram_writes"`

	// DRAMReadHitRate is the staging tier's share of demand reads;
	// WriteAbsorption its share of demand writes.
	DRAMReadHitRate float64 `json:"dram_read_hit_rate"`
	WriteAbsorption float64 `json:"write_absorption"`

	// Migration traffic.
	Promotions      uint64 `json:"promotions"`
	Demotions       uint64 `json:"demotions"`
	CleanEvictions  uint64 `json:"clean_evictions"`
	CoalesceBatches uint64 `json:"coalesce_batches"`
	CopyReads       uint64 `json:"copy_reads"`
	WritebackBlocks uint64 `json:"writeback_blocks"`

	// End-of-window staging-tier occupancy gauges.
	ResidentPages int `json:"resident_pages"`
	DirtyPages    int `json:"dirty_pages"`

	// DRAM array behaviour.
	DRAMRowHitRate     float64     `json:"dram_row_hit_rate"`
	DRAMRefreshStalls  uint64      `json:"dram_refresh_stalls"`
	DRAMAvgReadLatency timing.Time `json:"dram_avg_read_latency"`

	// DRAM energy as real power plus the equivalent-duration total
	// (added into EnergyTotalJ).
	DRAMPowerW  float64 `json:"dram_power_w"`
	DRAMEnergyJ float64 `json:"dram_energy_j"`
}

// RetentionDetail is the serializable deadline-violation breakdown.
type RetentionDetail struct {
	Total            uint64 `json:"total"`
	ExpiredOnRead    uint64 `json:"expired_on_read"`
	ExpiredOnRewrite uint64 `json:"expired_on_rewrite"`
	ExpiredAtEnd     uint64 `json:"expired_at_end"`
	First            string `json:"first,omitempty"`
}

// collect subtracts the measurement baseline and converts to real rates
// over a window of the given length (cfg.Duration for a full run, the
// sampling window length for a sampled measurement window).
func (s *System) collect(window timing.Time) Metrics {
	sn := &s.base
	m := Metrics{
		Scheme:    s.cfg.Scheme.Name(),
		Workload:  s.cfg.Workload.Name,
		TimeScale: s.cfg.TimeScale,
	}
	m.SimSeconds = window.Seconds()

	// Performance.
	for i, c := range s.cores {
		st := c.Stats()
		insts := st.Instructions - sn.coreInsts[i]
		cycles := (st.LocalTime - sn.coreTimes[i]).CPUCycles()
		m.Instructions += insts
		ipc := 0.0
		if cycles > 0 {
			ipc = float64(insts) / float64(cycles)
		}
		m.PerCoreIPC = append(m.PerCoreIPC, ipc)
		m.IPC += ipc
	}
	llc := s.hier.LLC().Stats()
	if m.Instructions > 0 {
		m.LLCMPKI = float64(llc.Misses-sn.llcMisses) / float64(m.Instructions) * 1000
	}

	// Controller activity.
	cs := s.ctl.Stats()
	m.ReadsServed = cs.ReadsServed - sn.ctl.ReadsServed
	m.WritesServed = cs.WritesServed - sn.ctl.WritesServed
	m.RefreshesServed = cs.RefreshesServed - sn.ctl.RefreshesServed
	m.AvgReadLatency = cs.AvgReadLatency()
	m.MaxRefreshLat = cs.RefreshLatencyMax
	m.RowBufHitRate = cs.RowBufHitRate()
	m.WritePauses = cs.WritePauses - sn.ctl.WritePauses

	// Write-mode split. Deltas are staged in a fixed array so the result
	// map is allocated once, at its exact final size.
	var shortW, totalW uint64
	var deltas [5]uint64
	nonzero := 0
	for i, mode := range pcm.Modes() {
		n := s.wear.ByMode(mode) - sn.wearMode[mode-pcm.Mode3SETs]
		deltas[i] = n
		if n > 0 {
			nonzero++
		}
		totalW += n
		if mode < s.policy.GlobalRefreshMode() {
			shortW += n
		}
	}
	m.WritesByMode = make(ModeWrites, nonzero)
	for i, mode := range pcm.Modes() {
		if deltas[i] > 0 {
			m.WritesByMode[mode] = deltas[i]
		}
	}
	if totalW > 0 {
		m.ShortWriteFraction = float64(shortW) / float64(totalW)
	}

	// Wear rates (real). Demand is measured directly. Selective (RRM)
	// refreshes run on the accelerated retention clock but are sampled
	// 1-in-sampling, so the divisor is TimeScale/sampling (1 for the
	// built-in monitors, which sample at exactly TimeScale). Slow
	// refreshes are decay-clock-driven and unsampled: de-scale fully.
	// Global refresh is analytic.
	sec := m.SimSeconds
	k := s.cfg.TimeScale
	rrmDiv := k / float64(s.refreshSampling())
	m.WearDemandRate = float64(s.wear.ByKind(pcm.WearDemandWrite)-sn.wearKind[0]) / sec
	m.WearRRMRate = float64(s.wear.ByKind(pcm.WearRRMRefresh)-sn.wearKind[1]) / sec / rrmDiv
	m.WearSlowRate = float64(s.wear.ByKind(pcm.WearSlowRefresh)-sn.wearKind[2]) / sec / k
	m.WearGlobalRate = stats.GlobalRefreshWearRate(s.cfg.Device, s.policy.GlobalRefreshMode())
	m.WearTotalRate = m.WearDemandRate + m.WearRRMRate + m.WearSlowRate + m.WearGlobalRate
	m.LifetimeYears = stats.LifetimeYears(s.cfg.Device, m.WearTotalRate)

	// Energy (real watts).
	m.PowerDemandW = (s.energy.WriteEnergy(pcm.WearDemandWrite) - sn.energyW[0]) / sec
	rrmW := (s.energy.WriteEnergy(pcm.WearRRMRefresh) - sn.energyW[1]) / sec / rrmDiv
	slowW := (s.energy.WriteEnergy(pcm.WearSlowRefresh) - sn.energyW[2]) / sec / k
	globalW := m.WearGlobalRate * pcm.BlockWriteEnergy(s.cfg.Device.BlockBytes, s.policy.GlobalRefreshMode())
	m.PowerRefreshW = rrmW + slowW + globalW
	m.PowerReadW = (s.energy.ReadEnergy() - sn.energyR) / sec

	equiv := s.cfg.EquivalentDuration
	if equiv <= 0 {
		equiv = 5 * timing.Second
	}
	m.EquivSeconds = equiv.Seconds()
	m.EnergyDemandJ = m.PowerDemandW * m.EquivSeconds
	m.EnergyRefreshJ = m.PowerRefreshW * m.EquivSeconds
	m.EnergyTotalJ = m.EnergyDemandJ + m.EnergyRefreshJ + m.PowerReadW*m.EquivSeconds

	if s.migr != nil {
		s.collectHybrid(&m)
	}

	// RRM internals.
	if s.rrm != nil {
		cur := s.rrm.Stats()
		m.RRM = core.Stats{
			Registrations:  cur.Registrations - sn.rrm.Registrations,
			CleanFiltered:  cur.CleanFiltered - sn.rrm.CleanFiltered,
			RegHits:        cur.RegHits - sn.rrm.RegHits,
			RegMisses:      cur.RegMisses - sn.rrm.RegMisses,
			Allocations:    cur.Allocations - sn.rrm.Allocations,
			Evictions:      cur.Evictions - sn.rrm.Evictions,
			EvictionFlush:  cur.EvictionFlush - sn.rrm.EvictionFlush,
			Promotions:     cur.Promotions - sn.rrm.Promotions,
			Demotions:      cur.Demotions - sn.rrm.Demotions,
			FastRefreshes:  cur.FastRefreshes - sn.rrm.FastRefreshes,
			SlowRefreshes:  cur.SlowRefreshes - sn.rrm.SlowRefreshes,
			ShortDecisions: cur.ShortDecisions - sn.rrm.ShortDecisions,
			LongDecisions:  cur.LongDecisions - sn.rrm.LongDecisions,
		}
		m.HotEntries, m.HotBlocks = s.rrm.HotEntries()
		m.RefreshBacklogMax = s.backend.maxRefreshBacklog
	}

	m.RetentionViolations = s.checker.violations
	m.FirstViolation = s.checker.firstViolation
	m.RetentionDetail = s.checker.detail()

	// Reliability: counter deltas over the measurement window, then the
	// derived per-billion-read rates.
	if s.rel != nil {
		rel := s.rel.Metrics().Sub(sn.rel)
		rel.Finalize()
		m.Reliability = &rel
	}
	return m
}

// collectHybrid fills Metrics.Hybrid and folds the staging tier into the
// global traffic and energy totals. Called after the controller and
// energy sections: m.ReadsServed/WritesServed hold the PCM-side window
// deltas at this point and are widened to cover both tiers.
func (s *System) collectHybrid(m *Metrics) {
	sn := &s.base
	mg := s.migr.Stats()
	ds := s.dramDev.Stats()
	h := &HybridMetrics{
		PCMReads:        m.ReadsServed,
		PCMWrites:       m.WritesServed,
		DRAMReads:       mg.DRAMReadHits - sn.mig.DRAMReadHits,
		DRAMWrites:      mg.DRAMWriteHits - sn.mig.DRAMWriteHits,
		Promotions:      mg.Promotions - sn.mig.Promotions,
		Demotions:       mg.Demotions - sn.mig.Demotions,
		CleanEvictions:  mg.CleanEvictions - sn.mig.CleanEvictions,
		CoalesceBatches: mg.CoalesceBatches - sn.mig.CoalesceBatches,
		CopyReads:       mg.CopyReads - sn.mig.CopyReads,
		WritebackBlocks: mg.WritebackBlocks - sn.mig.WritebackBlocks,
		ResidentPages:   s.migr.ResidentPages(),
		DirtyPages:      s.migr.DirtyPages(),
	}
	m.ReadsServed += h.DRAMReads
	m.WritesServed += h.DRAMWrites
	if d := h.DRAMReads + (mg.PCMReads - sn.mig.PCMReads); d > 0 {
		h.DRAMReadHitRate = float64(h.DRAMReads) / float64(d)
	}
	if d := h.DRAMWrites + (mg.PCMWrites - sn.mig.PCMWrites); d > 0 {
		h.WriteAbsorption = float64(h.DRAMWrites) / float64(d)
	}
	if hits, misses := ds.RowHits-sn.dram.RowHits, ds.RowMisses-sn.dram.RowMisses; hits+misses > 0 {
		h.DRAMRowHitRate = float64(hits) / float64(hits+misses)
	}
	h.DRAMRefreshStalls = ds.RefreshStalls - sn.dram.RefreshStalls
	if reads := ds.Reads - sn.dram.Reads; reads > 0 {
		h.DRAMAvgReadLatency = (ds.ReadLatencySum - sn.dram.ReadLatencySum) / timing.Time(reads)
	}
	h.DRAMPowerW = (ds.EnergyReadJ - sn.dram.EnergyReadJ + ds.EnergyWriteJ - sn.dram.EnergyWriteJ) / m.SimSeconds
	h.DRAMEnergyJ = h.DRAMPowerW * m.EquivSeconds
	m.EnergyTotalJ += h.DRAMEnergyJ
	m.Hybrid = h
}
