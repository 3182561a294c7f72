package reliability

// lineTable holds every tracked line. Lines are never untracked, so the
// table only grows:
//
//   - entries are appended in first-tracked order into fixed chunks of
//     chunkLen lines; a chunk never moves once allocated, so growing the
//     table never copies line state or keeps two copies of it live, and
//     a *lineState stays valid for the engine's lifetime;
//   - an open-addressed, linearly probed index maps a line address to
//     its entry's position. It keeps a one-byte tag per slot (0 = empty,
//     otherwise 0x80 | seven hash bits) beside the slot's position, so a
//     lookup of an untracked line — most demand reads — is answered from
//     the dense tag array and touches no entry. The index doubles at 3/4
//     load.
type lineTable struct {
	chunks []*[chunkLen]lineState
	n      int // tracked lines; entries 0..n-1 are live

	tags  []uint8  // per slot: 0 empty, else slotTag of the resident line
	pos   []uint32 // per slot: the resident line's entry position
	shift uint     // 64 - log2(len(tags)): the slot is the hash's top bits
}

const (
	chunkBits    = 12
	chunkLen     = 1 << chunkBits
	minIndexBits = 10
)

func newLineTable() lineTable {
	return lineTable{
		tags:  make([]uint8, 1<<minIndexBits),
		pos:   make([]uint32, 1<<minIndexBits),
		shift: 64 - minIndexBits,
	}
}

// slotTag derives a line's tag from its hash, mix64(address), whose top
// bits pick the line's home slot.
func slotTag(h uint64) uint8 { return 0x80 | uint8(h&0x7F) }

// at returns the entry at position p (p < n).
func (t *lineTable) at(p uint32) *lineState {
	return &t.chunks[p>>chunkBits][p&(chunkLen-1)]
}

// find returns blk's position and entry, or a nil entry if blk is not
// tracked. Probing stops at the first empty slot and compares addresses
// only where the tag matches.
func (t *lineTable) find(blk uint64) (uint32, *lineState) {
	h := mix64(blk)
	tag := slotTag(h)
	mask := uint64(len(t.tags) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		switch t.tags[i] {
		case 0:
			return 0, nil
		case tag:
			if p := t.pos[i]; t.at(p).blk == blk {
				return p, t.at(p)
			}
		}
	}
}

// insert appends an entry for blk, which must not be tracked yet, and
// returns its position and a pointer to it. Only blk is set.
func (t *lineTable) insert(blk uint64) (uint32, *lineState) {
	if 4*(t.n+1) > 3*len(t.tags) {
		t.grow()
	}
	p := uint32(t.n)
	if t.n == len(t.chunks)*chunkLen {
		t.chunks = append(t.chunks, new([chunkLen]lineState))
	}
	t.n++
	ls := t.at(p)
	ls.blk = blk
	t.place(blk, p)
	return p, ls
}

// place records position p for blk in the first free slot of its probe
// sequence.
func (t *lineTable) place(blk uint64, p uint32) {
	h := mix64(blk)
	mask := uint64(len(t.tags) - 1)
	i := h >> t.shift
	for t.tags[i] != 0 {
		i = (i + 1) & mask
	}
	t.tags[i] = slotTag(h)
	t.pos[i] = p
}

// grow doubles the index and re-places every entry. Entries stay where
// they are; only the 5-byte slots are rebuilt.
func (t *lineTable) grow() {
	t.tags = make([]uint8, 2*len(t.tags))
	t.pos = make([]uint32, len(t.tags))
	t.shift--
	for p := range t.n {
		t.place(t.at(uint32(p)).blk, uint32(p))
	}
}
