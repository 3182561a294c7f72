package trace

import (
	"math"
	"testing"
)

func TestPRNGDeterminism(t *testing.T) {
	a, b := newPRNG(42), newPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
	c := newPRNG(43)
	same := 0
	a = newPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.next() == c.next() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d times", same)
	}
}

func TestPRNGUniformity(t *testing.T) {
	p := newPRNG(7)
	var sum float64
	n := 100_000
	for i := 0; i < n; i++ {
		f := p.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[p.intn(10)]++
	}
	for d, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("digit %d count %d far from uniform", d, c)
		}
	}
}

func TestAllProfilesValid(t *testing.T) {
	profs := Profiles()
	if len(profs) != 9 {
		t.Fatalf("have %d profiles, want 9 (Table VII)", len(profs))
	}
	mpki := PaperMPKI()
	for _, p := range profs {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if _, ok := mpki[p.Name]; !ok {
			t.Errorf("%s missing from PaperMPKI", p.Name)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	base, _ := ProfileByName("hmmer")
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MemFraction = 0 },
		func(p *Profile) { p.MemFraction = 1 },
		func(p *Profile) { p.StoreFraction = 1.5 },
		func(p *Profile) { p.BaseCPI = 0 },
		func(p *Profile) { p.HotLoadFrac = 0.9; p.StreamLoadFrac = 0.2 },
		func(p *Profile) { p.HotStoreFrac = -0.1 },
		func(p *Profile) { p.HotRegions = 0 },
		func(p *Profile) { p.StreamBytes = 0 },
		func(p *Profile) { p.WorkingSetBytes = 0 },
		func(p *Profile) { p.HotSkew = 0.5 },
		func(p *Profile) { p.HotBlockSpan = 65 },
		// Allocation-sizing fields: hot regions are distinct 4 KB
		// regions of the working set, and the revisit ring is bounded
		// by what Restore accepts. (Never built: 1<<33 would ask
		// NewMixture for 64 GiB.)
		func(p *Profile) { p.HotRegions = int(p.WorkingSetBytes>>12) + 1 },
		func(p *Profile) { p.HotRegions = 1 << 33 },
		func(p *Profile) { p.HotRegions = -1; p.HotLoadFrac = 0; p.HotStoreFrac = 0 },
		func(p *Profile) { p.SweepGapRegions = 1<<20 - 1 },
		func(p *Profile) { p.SweepGapRegions = 1 << 33 },
		func(p *Profile) { p.SweepGapRegions = -1 },
	}
	for i, mutate := range bad {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// The bounds are inclusive.
	p := base
	p.HotRegions = int(p.WorkingSetBytes >> 12)
	p.SweepGapRegions = 1<<20 - 2
	if err := p.Validate(); err != nil {
		t.Errorf("largest in-bound pool and gap rejected: %v", err)
	}
}

func TestWorkloads(t *testing.T) {
	ws := Workloads()
	if len(ws) != 11 {
		t.Fatalf("have %d workloads, want 11 (9 single + 2 mixes)", len(ws))
	}
	for _, w := range ws {
		if len(w.Cores) != 4 {
			t.Errorf("%s has %d cores, want 4", w.Name, len(w.Cores))
		}
	}
	mix2, err := WorkloadByName("MIX_2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"GemsFDTD", "libquantum", "lbm", "leslie3d"}
	for i, p := range mix2.Cores {
		if p.Name != want[i] {
			t.Errorf("MIX_2 core %d = %s, want %s", i, p.Name, want[i])
		}
	}
	if _, err := WorkloadByName("nonesuch"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := ProfileByName("nonesuch"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestMixtureDeterminism(t *testing.T) {
	p, _ := ProfileByName("GemsFDTD")
	a, err := NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewMixture(p, 0, 2<<30, 1)
	var oa, ob Op
	for i := 0; i < 10_000; i++ {
		a.Next(&oa)
		b.Next(&ob)
		if oa != ob {
			t.Fatalf("op %d diverged: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestMixtureStaysInPartition(t *testing.T) {
	for _, prof := range Profiles() {
		base := uint64(2) << 30
		span := uint64(2) << 30
		m, err := NewMixture(prof, base, span, 99)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		var op Op
		for i := 0; i < 50_000; i++ {
			m.Next(&op)
			if op.Addr < base || op.Addr >= base+span {
				t.Fatalf("%s: addr %#x outside [%#x, %#x)", prof.Name, op.Addr, base, base+span)
			}
			if op.Addr%64 != 0 {
				t.Fatalf("%s: addr %#x not block aligned", prof.Name, op.Addr)
			}
		}
	}
}

func TestMixtureStatistics(t *testing.T) {
	p, _ := ProfileByName("lbm")
	m, err := NewMixture(p, 0, 2<<30, 5)
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	n := 200_000
	stores, nonMemSum := 0, 0
	for i := 0; i < n; i++ {
		m.Next(&op)
		if op.Store {
			stores++
		}
		nonMemSum += op.NonMem
	}
	storeFrac := float64(stores) / float64(n)
	if math.Abs(storeFrac-p.StoreFraction) > 0.01 {
		t.Errorf("store fraction = %v, want ~%v", storeFrac, p.StoreFraction)
	}
	// Mean gap should give the configured memory fraction:
	// memFrac = 1 / (1 + avgNonMem).
	avgGap := float64(nonMemSum) / float64(n)
	memFrac := 1 / (1 + avgGap)
	if math.Abs(memFrac-p.MemFraction) > 0.02 {
		t.Errorf("memory fraction = %v, want ~%v", memFrac, p.MemFraction)
	}
}

func TestHotComponentConcentration(t *testing.T) {
	// Stores of a hot-heavy profile must concentrate in the hot pool:
	// the paper's observation (§III-C) that ~2 % of regions take the
	// vast majority of writes.
	p, _ := ProfileByName("GemsFDTD")
	m, err := NewMixture(p, 0, 2<<30, 3)
	if err != nil {
		t.Fatal(err)
	}
	hotSet := map[uint64]bool{}
	for _, b := range m.hotBases {
		hotSet[b>>12] = true
	}
	var op Op
	stores, hotStores := 0, 0
	regions := map[uint64]bool{}
	for i := 0; i < 500_000; i++ {
		m.Next(&op)
		if !op.Store {
			continue
		}
		stores++
		regions[op.Addr>>12] = true
		if hotSet[op.Addr>>12] {
			hotStores++
		}
	}
	frac := float64(hotStores) / float64(stores)
	if frac < 0.85 {
		t.Errorf("hot store fraction = %v, want >= 0.85 (profile says 0.92)", frac)
	}
	// Hot regions are a small part of the touched footprint.
	if len(m.hotBases) >= len(regions) {
		t.Errorf("hot pool (%d) not smaller than touched regions (%d)", len(m.hotBases), len(regions))
	}
}

func TestStreamComponentIsSequential(t *testing.T) {
	p, _ := ProfileByName("libquantum")
	p.HotLoadFrac, p.HotStoreFrac = 0, 0
	p.StreamLoadFrac, p.StreamStoreFrac = 1, 1
	m, err := NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	var prev uint64
	m.Next(&op)
	prev = op.Addr
	for i := 0; i < 10_000; i++ {
		m.Next(&op)
		if op.Addr != prev+64 && op.Addr != 0 { // wraps to base 0
			t.Fatalf("stream jumped from %#x to %#x", prev, op.Addr)
		}
		prev = op.Addr
	}
}

func TestStreamWraps(t *testing.T) {
	p, _ := ProfileByName("hmmer")
	p.StreamBytes = 1 << 20
	p.HotLoadFrac, p.HotStoreFrac = 0, 0
	p.StreamLoadFrac, p.StreamStoreFrac = 1, 1
	m, err := NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	var op Op
	seen := map[uint64]int{}
	for i := 0; i < 3*(1<<20)/64; i++ {
		m.Next(&op)
		seen[op.Addr]++
	}
	for addr, n := range seen {
		if n != 3 {
			t.Fatalf("addr %#x visited %d times, want 3 (wrap)", addr, n)
		}
	}
}

func TestPowerLawSkew(t *testing.T) {
	// Higher skew concentrates hot traffic in fewer regions.
	concentration := func(skew float64) float64 {
		p, _ := ProfileByName("GemsFDTD")
		p.HotSkew = skew
		m, _ := NewMixture(p, 0, 2<<30, 11)
		counts := map[uint64]int{}
		var op Op
		total := 0
		for i := 0; i < 300_000; i++ {
			m.Next(&op)
			if op.Store {
				counts[op.Addr>>12]++
				total++
			}
		}
		// Mass of the single hottest decile of regions.
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(total)
	}
	if concentration(3.0) <= concentration(1.0) {
		t.Error("higher skew did not concentrate writes")
	}
}

func TestNewMixtureErrors(t *testing.T) {
	p, _ := ProfileByName("mcf") // 1.5 GB working set
	if _, err := NewMixture(p, 0, 1<<30, 1); err == nil {
		t.Error("working set larger than span accepted")
	}
	if _, err := NewMixture(p, 0, 0, 1); err == nil {
		t.Error("zero span accepted")
	}
	p.Name = ""
	if _, err := NewMixture(p, 0, 2<<30, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestGeneratorAccessors(t *testing.T) {
	p, _ := ProfileByName("mcf")
	m, err := NewMixture(p, 0, 2<<30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "mcf" || m.MaxMLP() != 2 || m.BaseCPI() != p.BaseCPI {
		t.Error("accessors broken")
	}
	if m.Profile().Name != "mcf" {
		t.Error("profile accessor")
	}
}
