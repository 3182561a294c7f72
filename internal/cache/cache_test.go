package cache

import (
	"testing"
	"testing/quick"

	"rrmpcm/internal/timing"
)

func tinyConfig() Config {
	return Config{Name: "tiny", SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 2 * timing.CPUCycle, MSHRs: 4}
}

func TestConfigSets(t *testing.T) {
	c := tinyConfig()
	if got := c.Sets(); got != 8 {
		t.Errorf("Sets = %d, want 8", got)
	}
	llc := DefaultHierarchyConfig().LLC
	if got := llc.Sets(); got != 4096 {
		t.Errorf("LLC sets = %d, want 4096 (6MB/24-way/64B)", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 1024, Ways: 2, LineBytes: 48},
		{Name: "b", SizeBytes: 1024, Ways: 0, LineBytes: 64},
		{Name: "c", SizeBytes: 1000, Ways: 2, LineBytes: 64},
		{Name: "d", SizeBytes: 3 * 64 * 2, Ways: 2, LineBytes: 64}, // 3 sets
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed", i)
		}
	}
	if err := tinyConfig().Validate(); err != nil {
		t.Errorf("tiny config rejected: %v", err)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(tinyConfig())
	hit, _, _ := c.Access(0x1000, Load)
	if hit {
		t.Error("cold access hit")
	}
	hit, _, _ = c.Access(0x1000, Load)
	if !hit {
		t.Error("second access missed")
	}
	hit, _, _ = c.Access(0x1038, Load) // same 64B line
	if !hit {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(tinyConfig()) // 8 sets, 2 ways
	// Three lines mapping to the same set (stride = sets*line = 512B).
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, Load)
	c.Access(b, Load)
	c.Access(a, Load)             // a is now MRU
	_, v, ev := c.Access(d, Load) // must evict b
	if !ev || v.Addr != b {
		t.Errorf("evicted %+v (ok=%v), want clean b=%#x", v, ev, b)
	}
	if v.Dirty {
		t.Error("clean victim marked dirty")
	}
	if hit, _, _ := c.Access(a, Load); !hit {
		t.Error("a should have survived")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New(tinyConfig())
	c.Access(0, Store)
	c.Access(512, Load)
	_, v, ev := c.Access(1024, Load)
	if !ev || v.Addr != 0 || !v.Dirty {
		t.Errorf("victim = %+v ev=%v, want dirty line 0", v, ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestStoreMarksDirtyOnHit(t *testing.T) {
	c := New(tinyConfig())
	c.Access(0, Load)  // clean fill
	c.Access(0, Store) // hit, dirties
	c.Access(512, Load)
	_, v, _ := c.Access(1024, Load)
	if !v.Dirty {
		t.Error("store hit did not dirty the line")
	}
}

func TestWritebackInto(t *testing.T) {
	c := New(tinyConfig())
	present, dirty, _, _ := c.WritebackInto(0)
	if present || dirty {
		t.Errorf("first writeback: present=%v dirty=%v, want false/false", present, dirty)
	}
	present, dirty, _, _ = c.WritebackInto(0)
	if !present || !dirty {
		t.Errorf("second writeback: present=%v dirty=%v, want true/true", present, dirty)
	}
	// A clean demand line then re-written reports wasDirty=false once.
	c2 := New(tinyConfig())
	c2.Access(64, Load)
	_, dirty, _, _ = c2.WritebackInto(64)
	if dirty {
		t.Error("writeback into clean present line should report wasDirty=false")
	}
	_, dirty, _, _ = c2.WritebackInto(64)
	if !dirty {
		t.Error("line should now be dirty")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	c := New(tinyConfig())
	f := func(raw uint32) bool {
		addr := uint64(raw) &^ 63
		cc := New(tinyConfig())
		cc.Access(addr, Store)
		// Evict by filling the set with 2 more lines.
		stride := uint64(cc.Config().Sets() * cc.Config().LineBytes)
		cc.Access(addr+stride, Load)
		_, v, ev := cc.Access(addr+2*stride, Load)
		return ev && v.Addr == addr && v.Dirty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	_ = c
}

func TestLookupDoesNotDisturb(t *testing.T) {
	c := New(tinyConfig())
	c.Access(0, Load)
	c.Access(512, Load)
	for i := 0; i < 10; i++ {
		if !c.Lookup(0) {
			t.Fatal("lookup miss")
		}
	}
	// 0 is still LRU despite lookups, so it gets evicted.
	_, v, ev := c.Access(1024, Load)
	if !ev || v.Addr != 0 {
		t.Errorf("victim %+v, want line 0 (Lookup must not touch LRU)", v)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("idle hit rate should be 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
}

func TestAccessKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("AccessKind strings")
	}
}
