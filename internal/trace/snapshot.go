package trace

import "rrmpcm/internal/snapshot"

// Section tag for Mixture state inside a system snapshot.
const snapSection = 0x5452 // "TR"

// maxRevisit bounds the revisit ring a snapshot may carry. NewMixture
// sizes the ring at SweepGapRegions+2, so Profile.Validate bounds the
// gap by it too.
const maxRevisit = 1 << 20

// Snapshot writes the generator's mutable stream state. The profile,
// address partition and hot pool are construction-time constants (the
// hot pool is derived deterministically from the seed before the stream
// starts), so only the cursor state needs to travel.
func (m *Mixture) Snapshot(w *snapshot.Writer) {
	w.Section(snapSection)
	w.U64(m.rng.state)
	w.U64(m.streamPos)
	w.U64(m.sweepBase)
	w.I64(int64(m.sweepNext))
	w.I64(int64(m.sweepLeft))
	// The revisit ring travels as a FIFO sequence; restore rebuilds it
	// head-first, which preserves pop order (the only observable).
	w.U32(uint32(m.revisitLen))
	for i := 0; i < m.revisitLen; i++ {
		w.U64(m.revisit[(m.revisitHead+i)%len(m.revisit)])
	}
}

// Restore loads state written by Snapshot into a freshly constructed
// Mixture with the same profile and seed.
func (m *Mixture) Restore(r *snapshot.Reader) {
	r.Section(snapSection)
	m.rng.state = r.U64()
	m.streamPos = r.U64()
	m.sweepBase = r.U64()
	m.sweepNext = int(r.I64())
	m.sweepLeft = int(r.I64())
	n := r.Count(maxRevisit)
	m.revisitHead = 0
	m.revisitLen = 0
	for i := 0; i < n; i++ {
		m.revisitPush(r.U64())
	}
}
