package cache

import "rrmpcm/internal/snapshot"

const (
	snapLevelSection = 0x4341 // "CA"
	snapHierSection  = 0x4348 // "CH"
)

// Snapshot writes one level's counters, geometry and line words. The
// words are the live encoding (block<<1 | dirty, MRU first, emptyLine
// for an empty way), so a given cache state always encodes to the same
// bytes.
func (c *Cache) Snapshot(w *snapshot.Writer) {
	w.Section(snapLevelSection)
	w.U64(c.stats.Accesses)
	w.U64(c.stats.Hits)
	w.U64(c.stats.Misses)
	w.U64(c.stats.Evictions)
	w.U64(c.stats.Writebacks)
	w.U32(uint32(c.nsets))
	w.U32(uint32(c.cfg.Ways))
	w.U64s(c.lines)
}

// Restore loads state written by Snapshot into a same-geometry level.
// It rejects line words the live encoding cannot produce: a block that
// does not map to the set it sits in (or lies beyond a 64-bit address),
// the same block twice in one set, and a valid word after an empty one.
func (c *Cache) Restore(r *snapshot.Reader) {
	r.Section(snapLevelSection)
	c.stats.Accesses = r.U64()
	c.stats.Hits = r.U64()
	c.stats.Misses = r.U64()
	c.stats.Evictions = r.U64()
	c.stats.Writebacks = r.U64()
	if sets := r.U32(); r.Err() == nil && int(sets) != c.nsets {
		r.Fail("cache %s: snapshot has %d sets, live cache %d", c.cfg.Name, sets, c.nsets)
		return
	}
	if ways := r.U32(); r.Err() == nil && int(ways) != c.cfg.Ways {
		r.Fail("cache %s: snapshot has %d ways, live cache %d", c.cfg.Name, ways, c.cfg.Ways)
		return
	}
	r.U64s(c.lines)
	if r.Err() != nil {
		return
	}
	for set := 0; set < c.nsets; set++ {
		lines := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
		for i, w := range lines {
			switch blk := w >> 1; {
			case w == emptyLine:
			case i > 0 && lines[i-1] == emptyLine:
				r.Fail("cache %s: set %d has a valid line after an empty way", c.cfg.Name, set)
				return
			case blk&c.setMask != uint64(set) || blk>>(64-c.lineBits) != 0:
				r.Fail("cache %s: block %#x does not belong in set %d", c.cfg.Name, blk, set)
				return
			case find(lines[:i], w&^1) >= 0:
				r.Fail("cache %s: block %#x appears twice in set %d", c.cfg.Name, blk, set)
				return
			}
		}
	}
}

// Snapshot writes the whole hierarchy: every level plus the retired
// instruction counter.
func (h *Hierarchy) Snapshot(w *snapshot.Writer) {
	w.Section(snapHierSection)
	w.U64(h.insts)
	for core := 0; core < h.cfg.Cores; core++ {
		h.l1d[core].Snapshot(w)
		h.l1i[core].Snapshot(w)
		h.l2[core].Snapshot(w)
	}
	h.llc.Snapshot(w)
}

// Restore loads hierarchy state into a same-configuration hierarchy.
func (h *Hierarchy) Restore(r *snapshot.Reader) {
	r.Section(snapHierSection)
	h.insts = r.U64()
	for core := 0; core < h.cfg.Cores; core++ {
		h.l1d[core].Restore(r)
		h.l1i[core].Restore(r)
		h.l2[core].Restore(r)
	}
	h.llc.Restore(r)
}
