package cache

import (
	"math/rand"
	"testing"

	"rrmpcm/internal/snapshot"
)

// stampLRU is a reference model of one cache level in the stamp-based
// form: a tag, a last-use stamp and a dirty flag per way, and a miss
// fills the first empty way, else the way with the oldest stamp.
type stampLRU struct {
	ways     int
	setMask  uint64
	lineBits uint
	valid    []bool
	tags     []uint64
	lastUse  []uint64
	dirty    []bool
	clock    uint64
	stats    Stats
}

func newStampLRU(cfg Config) *stampLRU {
	n := cfg.Sets() * cfg.Ways
	m := &stampLRU{
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
		valid:   make([]bool, n),
		tags:    make([]uint64, n),
		lastUse: make([]uint64, n),
		dirty:   make([]bool, n),
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		m.lineBits++
	}
	return m
}

// lookup returns the set's first way index and the way holding addr's
// block, or -1.
func (m *stampLRU) lookup(addr uint64) (base, way int, blk uint64) {
	blk = addr >> m.lineBits
	base = int(blk&m.setMask) * m.ways
	for i := 0; i < m.ways; i++ {
		if m.valid[base+i] && m.tags[base+i] == blk {
			return base, i, blk
		}
	}
	return base, -1, blk
}

func (m *stampLRU) allocate(base int, blk uint64, dirty bool) (Victim, bool) {
	way, oldest, empty := 0, ^uint64(0), false
	for i := 0; i < m.ways; i++ {
		if !m.valid[base+i] {
			way, empty = i, true
			break
		}
		if m.lastUse[base+i] < oldest {
			way, oldest = i, m.lastUse[base+i]
		}
	}
	var v Victim
	if !empty {
		v = Victim{Addr: m.tags[base+way] << m.lineBits, Dirty: m.dirty[base+way]}
		m.stats.Evictions++
		if v.Dirty {
			m.stats.Writebacks++
		}
	}
	m.valid[base+way], m.tags[base+way] = true, blk
	m.dirty[base+way], m.lastUse[base+way] = dirty, m.clock
	return v, !empty
}

func (m *stampLRU) access(addr uint64, kind AccessKind) (bool, Victim, bool) {
	m.stats.Accesses++
	m.clock++
	base, way, blk := m.lookup(addr)
	if way >= 0 {
		m.stats.Hits++
		m.lastUse[base+way] = m.clock
		if kind == Store {
			m.dirty[base+way] = true
		}
		return true, Victim{}, false
	}
	m.stats.Misses++
	v, ev := m.allocate(base, blk, kind == Store)
	return false, v, ev
}

func (m *stampLRU) writeback(addr uint64) (bool, bool, Victim, bool) {
	m.stats.Accesses++
	m.clock++
	base, way, blk := m.lookup(addr)
	if way >= 0 {
		m.stats.Hits++
		was := m.dirty[base+way]
		m.dirty[base+way], m.lastUse[base+way] = true, m.clock
		return true, was, Victim{}, false
	}
	m.stats.Misses++
	v, ev := m.allocate(base, blk, true)
	return false, false, v, ev
}

// roundTrip snapshots c and restores the blob into a fresh level.
func roundTrip(t *testing.T, c *Cache) *Cache {
	t.Helper()
	w := snapshot.NewWriter(0)
	w.Header(testMagic, 1)
	c.Snapshot(w)
	r, err := snapshot.NewReader(w.Finish(), testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(c.Config())
	fresh.Restore(r)
	if err := r.Done(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return fresh
}

const testMagic = 0x54455354 // "TEST"

// TestCacheMatchesStampLRU drives the recency-ordered Cache and the
// stamp-based reference with the same seeded streams of demand loads,
// stores and writebacks. Every return value and the final Stats must
// agree, including across a Snapshot/Restore in the middle of a stream.
func TestCacheMatchesStampLRU(t *testing.T) {
	hier := DefaultHierarchyConfig()
	for _, tc := range []struct {
		cfg Config
		ops int
	}{
		{tinyConfig(), 20000},
		{hier.L2, 200000},
		{hier.LLC, 400000},
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			c, ref := New(tc.cfg), newStampLRU(tc.cfg)
			rng := rand.New(rand.NewSource(int64(tc.cfg.Ways)))
			lines := uint64(tc.cfg.SizeBytes / tc.cfg.LineBytes)
			high := rng.Uint64() &^ (1<<40 - 1) // exercise high address bits
			for i := 0; i < tc.ops; i++ {
				if i == tc.ops/2 {
					c = roundTrip(t, c)
				}
				var addr uint64
				switch {
				case rng.Intn(100) == 0: // anywhere in the 64-bit space
					addr = rng.Uint64()
				case rng.Intn(4) == 0: // a small hot set that mostly hits
					addr = high + uint64(rng.Int63n(int64(lines/4)))*uint64(tc.cfg.LineBytes)
				default: // twice the capacity: hits and evictions
					addr = high + uint64(rng.Int63n(int64(2*lines)))*uint64(tc.cfg.LineBytes)
				}
				addr += uint64(rng.Intn(tc.cfg.LineBytes))
				switch op := rng.Intn(20); {
				case op < 3:
					p1, d1, v1, e1 := c.WritebackInto(addr)
					p2, d2, v2, e2 := ref.writeback(addr)
					if p1 != p2 || d1 != d2 || v1 != v2 || e1 != e2 {
						t.Fatalf("op %d WritebackInto(%#x) = %v %v %+v %v, reference %v %v %+v %v",
							i, addr, p1, d1, v1, e1, p2, d2, v2, e2)
					}
				default:
					kind := Load
					if op < 9 {
						kind = Store
					}
					h1, v1, e1 := c.Access(addr, kind)
					h2, v2, e2 := ref.access(addr, kind)
					if h1 != h2 || v1 != v2 || e1 != e2 {
						t.Fatalf("op %d Access(%#x, %v) = %v %+v %v, reference %v %+v %v",
							i, addr, kind, h1, v1, e1, h2, v2, e2)
					}
				}
			}
			if c.Stats() != ref.stats {
				t.Errorf("Stats = %+v, reference %+v", c.Stats(), ref.stats)
			}
			if s := c.Stats(); s.Hits == 0 || s.Evictions == 0 || s.Writebacks == 0 {
				t.Errorf("stream exercised too little: %+v", s)
			}
		})
	}
}
