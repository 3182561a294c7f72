// Package dram models the DRAM staging tier of a hybrid DRAM–PCM main
// memory. The dominant deployment story for PCM is hybrid (MigrantStore,
// Hameed et al.): a small DRAM region in front of the PCM absorbs the
// write stream and serves hot reads at DRAM latency, which interacts
// directly with the RRM's retention/relaxation trade-off — writes that
// never reach the PCM array neither wear it nor need short-retention
// refresh coverage.
//
// The package has two components behind the memctrl.Device seam:
//
//   - Device: a DRAM timing model — per-channel/per-bank row-buffer
//     state, tRCD/tCAS/tWR/bus-transfer latencies and tREFI/tRFC refresh
//     windows. DRAM has no wear and no retention machinery, so the
//     optional PCM capability hooks (wear tracker, retention checker,
//     fault injector) are simply never invoked for DRAM-served traffic.
//   - Migrator: the migration engine. It implements memctrl.Device and
//     fronts the PCM controller: demand traffic to DRAM-resident pages is
//     served by (reads) or absorbed into (writes) the staging tier;
//     everything else passes through to PCM unchanged. Hot pages are
//     promoted by a pluggable policy (write-count à la MigrantStore, or
//     recency), filled by real PCM copy reads, and demoted cold-dirty
//     pages are written back in coalesced batches.
package dram

import (
	"fmt"
	"math"
	"math/bits"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// Promotion policy names (MigrationConfig.Policy).
const (
	// PolicyWriteCount promotes a page after PromoteThreshold demand
	// writes miss the staging tier (MigrantStore-style: the write stream
	// selects what to stage, and the triggering write is absorbed).
	PolicyWriteCount = "wcount"
	// PolicyRecency promotes after PromoteThreshold demand accesses of
	// either kind (reads included), favouring read-hot pages too.
	PolicyRecency = "recency"
)

// DeviceConfig describes the DRAM staging array. Timings are DDR-class
// constants (unscaled — DRAM refresh is milliseconds-scale and needs no
// retention-clock acceleration).
type DeviceConfig struct {
	// CapBytes is the staging capacity (must be a multiple of the
	// migration page size).
	CapBytes uint64
	// Banks per channel (power of two). The DRAM reuses the PCM address
	// map's channel/row decomposition; bank indices fold modulo Banks.
	Banks int

	// Row activate, column access, write recovery and data bus transfer.
	TRCD    timing.Time
	TCAS    timing.Time
	TWR     timing.Time
	BusXfer timing.Time

	// Refresh: every TREFI the array is unavailable for TRFC (accesses
	// landing inside a window are pushed past it). TRFC=0 disables.
	TREFI timing.Time
	TRFC  timing.Time

	// Per-block access energy in joules.
	ReadEnergyJ  float64
	WriteEnergyJ float64
}

// DefaultDeviceConfig returns a 64 MB DDR3-class staging array.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		CapBytes:     64 << 20,
		Banks:        8,
		TRCD:         14 * timing.Nanosecond,
		TCAS:         14 * timing.Nanosecond,
		TWR:          15 * timing.Nanosecond,
		BusXfer:      8 * timing.Nanosecond,
		TREFI:        7800 * timing.Nanosecond,
		TRFC:         350 * timing.Nanosecond,
		ReadEnergyJ:  1.2e-9,
		WriteEnergyJ: 1.5e-9,
	}
}

// Validate checks the DRAM array parameters.
func (c DeviceConfig) Validate() error {
	if c.CapBytes == 0 {
		return fmt.Errorf("dram: zero capacity")
	}
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: banks %d must be a positive power of two", c.Banks)
	}
	if c.TRCD <= 0 || c.TCAS <= 0 || c.TWR < 0 || c.BusXfer <= 0 {
		return fmt.Errorf("dram: non-positive timing (tRCD %v, tCAS %v, tWR %v, bus %v)",
			c.TRCD, c.TCAS, c.TWR, c.BusXfer)
	}
	if c.TRFC < 0 || c.TREFI < 0 {
		return fmt.Errorf("dram: negative refresh timing")
	}
	if c.TRFC > 0 && c.TREFI <= c.TRFC {
		return fmt.Errorf("dram: tREFI %v must exceed tRFC %v", c.TREFI, c.TRFC)
	}
	// Float range checks are negated so that NaN, which fails every
	// comparison, fails them too.
	if !(c.ReadEnergyJ >= 0) || math.IsInf(c.ReadEnergyJ, 1) || !(c.WriteEnergyJ >= 0) || math.IsInf(c.WriteEnergyJ, 1) {
		return fmt.Errorf("dram: access energy (ReadEnergyJ %g, WriteEnergyJ %g) must be finite and >= 0",
			c.ReadEnergyJ, c.WriteEnergyJ)
	}
	return nil
}

// MigrationConfig parameterizes the hot-page migration engine.
type MigrationConfig struct {
	// PageBytes is the migration granularity (power of two, at least one
	// memory block, at most 64 blocks so a page's dirty bitmap fits a
	// word).
	PageBytes uint64
	// Policy selects the promotion trigger: PolicyWriteCount or
	// PolicyRecency.
	Policy string
	// PromoteThreshold is the miss count (writes for wcount, any access
	// for recency) after which a page is promoted.
	PromoteThreshold int
	// AgeInterval halves every candidate counter after this many demand
	// accesses, so stale candidates decay instead of accumulating
	// forever.
	AgeInterval int
	// DemoteBatch is the number of cold-dirty pages the write-coalescing
	// buffer demotes per batch once the dirty fraction crosses
	// DirtyHighWater.
	DemoteBatch int
	// DirtyHighWater is the dirty-page fraction of the staging capacity
	// that triggers a coalesced demotion batch, in (0, 1].
	DirtyHighWater float64
}

// DefaultMigrationConfig returns 4 KB pages with write-count promotion
// after 4 missed writes and batched demotion of 8 pages at 3/4 dirty.
func DefaultMigrationConfig() MigrationConfig {
	return MigrationConfig{
		PageBytes:        4096,
		Policy:           PolicyWriteCount,
		PromoteThreshold: 4,
		AgeInterval:      4096,
		DemoteBatch:      8,
		DirtyHighWater:   0.75,
	}
}

// HybridConfig enables the hybrid tier: the DRAM array plus the
// migration engine in front of the PCM.
type HybridConfig struct {
	DRAM      DeviceConfig
	Migration MigrationConfig
}

// DefaultHybridConfig returns the default staging tier.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		DRAM:      DefaultDeviceConfig(),
		Migration: DefaultMigrationConfig(),
	}
}

// Validate checks the hybrid configuration against the PCM device
// geometry it fronts.
func (c HybridConfig) Validate(dev pcm.DeviceConfig) error {
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	m := c.Migration
	if m.PageBytes == 0 || m.PageBytes&(m.PageBytes-1) != 0 {
		return fmt.Errorf("dram: page size %d must be a power of two", m.PageBytes)
	}
	if m.PageBytes < dev.BlockBytes {
		return fmt.Errorf("dram: page size %d below block size %d", m.PageBytes, dev.BlockBytes)
	}
	if n := m.PageBytes / dev.BlockBytes; n > 64 {
		return fmt.Errorf("dram: %d blocks per page exceeds the 64-block dirty bitmap", n)
	}
	if m.PageBytes > dev.MemBytes {
		return fmt.Errorf("dram: page size %d exceeds memory size", m.PageBytes)
	}
	if c.DRAM.CapBytes%m.PageBytes != 0 {
		return fmt.Errorf("dram: capacity %d not a multiple of page size %d", c.DRAM.CapBytes, m.PageBytes)
	}
	if c.DRAM.CapBytes > dev.MemBytes {
		return fmt.Errorf("dram: staging capacity %d exceeds PCM capacity %d", c.DRAM.CapBytes, dev.MemBytes)
	}
	pages := c.DRAM.CapBytes / m.PageBytes
	if pages < 2 {
		return fmt.Errorf("dram: capacity holds %d pages, need at least 2", pages)
	}
	switch m.Policy {
	case PolicyWriteCount, PolicyRecency:
	default:
		return fmt.Errorf("dram: unknown promotion policy %q", m.Policy)
	}
	if m.PromoteThreshold < 1 {
		return fmt.Errorf("dram: promote threshold %d must be >= 1", m.PromoteThreshold)
	}
	if m.AgeInterval < 1 {
		return fmt.Errorf("dram: age interval %d must be >= 1", m.AgeInterval)
	}
	if m.DemoteBatch < 1 {
		return fmt.Errorf("dram: demote batch %d must be >= 1", m.DemoteBatch)
	}
	if uint64(m.DemoteBatch) > pages {
		return fmt.Errorf("dram: demote batch %d exceeds capacity of %d pages", m.DemoteBatch, pages)
	}
	if !(m.DirtyHighWater > 0 && m.DirtyHighWater <= 1) {
		return fmt.Errorf("dram: DirtyHighWater %v out of (0, 1]", m.DirtyHighWater)
	}
	return nil
}

// log2 of a power of two.
func log2(v uint64) uint { return uint(bits.TrailingZeros64(v)) }
