package pcm

import "fmt"

// WearKind classifies the cause of a block (re)write for wear and energy
// accounting. Per Kim & Ahn (cited by the paper), the RESET pulse dominates
// cell endurance, so every block write costs one wear unit regardless of
// the write mode used.
type WearKind int

const (
	// WearDemandWrite is a write issued on behalf of the program (an LLC
	// dirty writeback reaching memory).
	WearDemandWrite WearKind = iota
	// WearRRMRefresh is a selective fast refresh (3-SETs) issued by the
	// RRM structure for hot short-retention blocks.
	WearRRMRefresh
	// WearSlowRefresh is a slow (7-SETs) refresh issued when a hot RRM
	// entry decays to cold or is evicted and its short-retention blocks
	// must be rewritten with long-retention writes.
	WearSlowRefresh
	// WearGlobalRefresh is the device's built-in global refresh stream
	// (every block, once per retention period of the scheme's long
	// mode). Its performance impact is not simulated — matching the
	// paper — but its wear and energy are accounted analytically.
	WearGlobalRefresh

	numWearKinds
)

// String implements fmt.Stringer.
func (k WearKind) String() string {
	switch k {
	case WearDemandWrite:
		return "demand-write"
	case WearRRMRefresh:
		return "rrm-refresh"
	case WearSlowRefresh:
		return "slow-refresh"
	case WearGlobalRefresh:
		return "global-refresh"
	default:
		return fmt.Sprintf("WearKind(%d)", int(k))
	}
}

// WearKinds lists all wear causes in display order.
func WearKinds() []WearKind {
	return []WearKind{WearDemandWrite, WearRRMRefresh, WearSlowRefresh, WearGlobalRefresh}
}

// WearTracker accumulates block-write counts split by cause and write
// mode, plus per-bank totals.
type WearTracker struct {
	amap *AddressMap

	byKind   [numWearKinds]uint64
	byMode   [Slowest - Fastest + 1]uint64
	bankWear []uint64
}

// NewWearTracker allocates tracking state for the mapped device.
func NewWearTracker(amap *AddressMap) *WearTracker {
	return &WearTracker{
		amap:     amap,
		bankWear: make([]uint64, amap.Config().TotalBanks()),
	}
}

// RecordBlockWrite charges one wear unit for a block write at byte address
// addr, caused by kind, using write mode m.
func (t *WearTracker) RecordBlockWrite(addr uint64, m WriteMode, kind WearKind) {
	t.byKind[kind]++
	t.byMode[m-Fastest]++
	t.bankWear[t.amap.Decode(addr).GlobalBank(t.amap.Config())]++
}

// AddAnalytic charges count block writes of the given kind and mode
// without attributing them to specific addresses (used for the built-in
// global refresh stream, which touches every block uniformly).
func (t *WearTracker) AddAnalytic(count uint64, m WriteMode, kind WearKind) {
	t.byKind[kind] += count
	t.byMode[m-Fastest] += count
}

// ByKind returns total block writes caused by kind.
func (t *WearTracker) ByKind(kind WearKind) uint64 { return t.byKind[kind] }

// ByMode returns total block writes performed with mode m.
func (t *WearTracker) ByMode(m WriteMode) uint64 { return t.byMode[m-Fastest] }

// Total returns all block writes from all causes.
func (t *WearTracker) Total() uint64 {
	var sum uint64
	for _, v := range t.byKind {
		sum += v
	}
	return sum
}

// BankWear returns per-global-bank address-attributed write counts.
func (t *WearTracker) BankWear() []uint64 {
	out := make([]uint64, len(t.bankWear))
	copy(out, t.bankWear)
	return out
}
