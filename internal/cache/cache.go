// Package cache implements the processor-side cache hierarchy of Table IV:
// split L1 I/D caches per core, a private L2 per core, and a shared L3
// (the LLC), all set-associative with LRU replacement, write-back and
// write-allocate.
//
// The hierarchy matters to the paper in one specific way: the LLC filters
// program stores into a much smaller stream of dirty writebacks, and the
// RRM learns only from *LLC write operations* (L2 dirty victims arriving
// at the LLC), each tagged with whether the written LLC line was already
// dirty. That dirty-or-not bit is RRM's streaming-write filter, so the
// hierarchy models dirty bits and writeback propagation exactly.
//
// Accesses are synchronous: Access walks the levels and reports where the
// request hit, which registrations the LLC emitted, and which dirty lines
// fell out of the LLC toward memory. Latency composition and the
// asynchronous memory round trip belong to the simulator layer.
package cache

import (
	"fmt"

	"rrmpcm/internal/timing"
)

// AccessKind distinguishes demand loads from stores. Instruction fetches
// use Load against the I-cache.
type AccessKind int

const (
	Load AccessKind = iota
	Store
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	if k == Load {
		return "load"
	}
	return "store"
}

// Config sizes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency timing.Time
	MSHRs      int // outstanding-miss budget; enforced by the simulator
}

// Sets returns the number of sets the configuration implies.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks the level for consistency.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.LineBytes < 8 {
		return fmt.Errorf("cache %s: line size %d below 8 bytes", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d", c.Name, c.Ways)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by way*line", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts the activity of one cache level.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions passed to the next level
}

// HitRate returns hits/accesses, or 0 for an idle cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// emptyLine marks an empty way. A line word is block<<1 | dirty, and
// Config.Validate keeps LineBytes >= 8, so a block address has at most
// 61 significant bits and no line word can equal the sentinel.
const emptyLine = ^uint64(0)

// Cache is one set-associative level. Each line is one word,
// block<<1 | dirty, and each set's Ways words are kept in recency order,
// most recent first: a hit moves its word to the front, a miss shifts
// the set down one place and inserts at the front, and the word that
// falls off the end is the victim. Sets fill from the front and no line
// is invalidated on its own, so empty ways are always at the tail and
// "first empty way, else least recently used" is simply the last way.
type Cache struct {
	cfg      Config
	lines    []uint64 // nsets*ways, set-major, MRU first; emptyLine = empty way
	nsets    int
	setMask  uint64
	lineBits uint
	stats    Stats
}

// New builds a cache level. It panics on an invalid config: level
// configurations are fixed tables, not user input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		lines:   make([]uint64, nsets*cfg.Ways),
		nsets:   nsets,
		setMask: uint64(nsets - 1),
	}
	for i := range c.lines {
		c.lines[i] = emptyLine
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// lineAddr returns the block-aligned address of addr.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

// set returns the line words of the set addr maps to, and addr's line
// word with the dirty bit clear.
func (c *Cache) set(addr uint64) (lines []uint64, key uint64) {
	blk := addr >> c.lineBits
	base := int(blk&c.setMask) * c.cfg.Ways
	return c.lines[base : base+c.cfg.Ways : base+c.cfg.Ways], blk << 1
}

// find returns the way holding key in lines, or -1.
func find(lines []uint64, key uint64) int {
	for i, w := range lines {
		if w&^1 == key {
			return i
		}
	}
	return -1
}

// touch moves way i of lines to the front, ORing dirty into its word,
// and returns the word as it was.
func touch(lines []uint64, i int, dirty uint64) uint64 {
	w := lines[i]
	copy(lines[1:i+1], lines[:i])
	lines[0] = w | dirty
	return w
}

// Lookup probes for addr without changing replacement or dirty state.
func (c *Cache) Lookup(addr uint64) bool {
	lines, key := c.set(addr)
	return find(lines, key) >= 0
}

// Victim describes a line pushed out of a level.
type Victim struct {
	Addr  uint64 // block-aligned address of the evicted line
	Dirty bool
}

// Access performs a demand access. On a hit it updates LRU (and the dirty
// bit for stores) and returns hit=true. On a miss it allocates the line
// (write-allocate), possibly evicting a victim, and returns hit=false.
// The victim, if any, is returned so the caller can propagate a dirty
// writeback to the next level.
func (c *Cache) Access(addr uint64, kind AccessKind) (hit bool, victim Victim, evicted bool) {
	c.stats.Accesses++
	var dirty uint64
	if kind == Store {
		dirty = 1
	}
	lines, key := c.set(addr)
	if i := find(lines, key); i >= 0 {
		c.stats.Hits++
		touch(lines, i, dirty)
		return true, Victim{}, false
	}
	c.stats.Misses++
	victim, evicted = c.insert(lines, key|dirty)
	return false, victim, evicted
}

// WritebackInto installs a dirty writeback arriving from the level above.
// It returns whether the line was already present and dirty (the LLC's
// "previously dirty" registration bit), plus any victim the allocation
// displaced.
func (c *Cache) WritebackInto(addr uint64) (wasPresent, wasDirty bool, victim Victim, evicted bool) {
	c.stats.Accesses++
	lines, key := c.set(addr)
	if i := find(lines, key); i >= 0 {
		c.stats.Hits++
		return true, touch(lines, i, 1)&1 != 0, Victim{}, false
	}
	// A full-line writeback allocates without fetching from below.
	c.stats.Misses++
	victim, evicted = c.insert(lines, key|1)
	return false, false, victim, evicted
}

// insert puts word at the front of lines, shifting the rest down one
// way; the word shifted out of the last way, if valid, is the victim.
func (c *Cache) insert(lines []uint64, word uint64) (victim Victim, evicted bool) {
	last := lines[len(lines)-1]
	copy(lines[1:], lines[:len(lines)-1])
	lines[0] = word
	if last == emptyLine {
		return Victim{}, false
	}
	c.stats.Evictions++
	if last&1 != 0 {
		c.stats.Writebacks++
	}
	return Victim{Addr: last >> 1 << c.lineBits, Dirty: last&1 != 0}, true
}
