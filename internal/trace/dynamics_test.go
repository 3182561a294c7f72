package trace

import (
	"testing"

	"rrmpcm/internal/snapshot"
)

const testSnapMagic = 0x54455354 // scratch container for stream snapshots

func snapshotStream(s Stream) []byte {
	w := snapshot.NewWriter(1 << 12)
	w.Header(testSnapMagic, 1)
	s.Snapshot(w)
	return w.Finish()
}

func restoreStream(t *testing.T, s Stream, blob []byte) error {
	t.Helper()
	r, err := snapshot.NewReader(blob, testSnapMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Restore(r)
	return r.Err()
}

func testDynamics() *Dynamics {
	return &Dynamics{
		Phases:  []Phase{{Profile: "GemsFDTD", Ops: 10_000}, {Profile: "hmmer", Ops: 5_000}},
		Diurnal: &Diurnal{PeriodOps: 40_000, MinLoad: 0.25},
		Burst:   &Burst{OnOps: 3_000, OffOps: 1_000, OffLoad: 0.1},
	}
}

func newTestDynamic(t *testing.T, spec *Dynamics, seed uint64) *Dynamic {
	t.Helper()
	prof, err := ProfileByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(prof, spec, 0, 2<<30, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDynamicDeterminism(t *testing.T) {
	a := newTestDynamic(t, testDynamics(), 42)
	b := newTestDynamic(t, testDynamics(), 42)
	c := newTestDynamic(t, testDynamics(), 43)
	var oa, ob, oc Op
	diverged := false
	for i := 0; i < 50_000; i++ {
		a.Next(&oa)
		b.Next(&ob)
		c.Next(&oc)
		if oa != ob {
			t.Fatalf("op %d: same seed diverged: %+v vs %+v", i, oa, ob)
		}
		if oa != oc {
			diverged = true
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 produced identical streams")
	}
}

// TestDynamicPhaseSwitch pins the phase schedule: ops [0, Ops0) come
// from phase 0's mixture, [Ops0, Ops0+Ops1) from phase 1's, and the
// cycle wraps — each phase mixture advancing only while active, with
// the documented sub-seed derivation.
func TestDynamicPhaseSwitch(t *testing.T) {
	const seed = 7
	spec := &Dynamics{Phases: []Phase{{Profile: "GemsFDTD", Ops: 1000}, {Profile: "hmmer", Ops: 500}}}
	d := newTestDynamic(t, spec, seed)

	gems, _ := ProfileByName("GemsFDTD")
	hmmer, _ := ProfileByName("hmmer")
	golden := uint64(0x9E3779B97F4A7C15) // variable: constant 2*golden would overflow
	m0, err := NewMixture(gems, 0, 2<<30, seed+1*golden)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewMixture(hmmer, 0, 2<<30, seed+2*golden)
	if err != nil {
		t.Fatal(err)
	}
	var got, want Op
	for i := 0; i < 3000; i++ { // two full cycles
		d.Next(&got)
		if i%1500 < 1000 {
			m0.Next(&want)
		} else {
			m1.Next(&want)
		}
		if got != want {
			t.Fatalf("op %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestDynamicDiurnal checks the load modulation: around the trough
// (half a period in) the instruction footprint per memory op is about
// 1/MinLoad times the peak's.
func TestDynamicDiurnal(t *testing.T) {
	const period = 200_000
	spec := &Dynamics{Diurnal: &Diurnal{PeriodOps: period, MinLoad: 0.25}}
	d := newTestDynamic(t, spec, 42)
	window := func(n int) float64 {
		var op Op
		insts := 0
		for i := 0; i < n; i++ {
			d.Next(&op)
			insts += op.NonMem + 1
		}
		return float64(insts) / float64(n)
	}
	peak := window(8 * 1024)
	// Skip to just before the trough, then measure a window around it.
	var op Op
	for i := 8 * 1024; i < period/2-4*1024; i++ {
		d.Next(&op)
	}
	trough := window(8 * 1024)
	ratio := trough / peak
	if ratio < 2.5 || ratio > 4.5 {
		t.Errorf("trough/peak instruction footprint ratio %.2f, want ~%.1f", ratio, 1/0.25)
	}
}

// TestDynamicBurst checks the on/off dilution: with a heavy off-state
// stretch, the stream's total instruction footprint grows well past the
// stationary baseline, and the stationary address pattern is untouched.
func TestDynamicBurst(t *testing.T) {
	const n = 200_000
	spec := &Dynamics{Burst: &Burst{OnOps: 2000, OffOps: 2000, OffLoad: 0.1}}
	d := newTestDynamic(t, spec, 42)
	gems, _ := ProfileByName("GemsFDTD")
	plain, err := NewMixture(gems, 0, 2<<30, 42)
	if err != nil {
		t.Fatal(err)
	}
	var od, op Op
	var instD, instP int
	for i := 0; i < n; i++ {
		d.Next(&od)
		plain.Next(&op)
		if od.Addr != op.Addr || od.Store != op.Store {
			t.Fatalf("op %d: burst changed the address pattern", i)
		}
		if od.NonMem < op.NonMem {
			t.Fatalf("op %d: burst shrank the gap (%d < %d)", i, od.NonMem, op.NonMem)
		}
		instD += od.NonMem + 1
		instP += op.NonMem + 1
	}
	ratio := float64(instD) / float64(instP)
	// Expected average load is (1 + 1/OffLoad)/2 = 5.5x with equal dwells.
	if ratio < 2 || ratio > 10 {
		t.Errorf("burst footprint ratio %.2f, want within [2, 10]", ratio)
	}
}

// TestDynamicSnapshotRestore forks a mid-stream dynamic into a fresh
// same-spec stream and requires bit-identical continuation.
func TestDynamicSnapshotRestore(t *testing.T) {
	d := newTestDynamic(t, testDynamics(), 42)
	var op Op
	for i := 0; i < 23_456; i++ {
		d.Next(&op)
	}
	blob := snapshotStream(d)

	fresh := newTestDynamic(t, testDynamics(), 42)
	if err := restoreStream(t, fresh, blob); err != nil {
		t.Fatal(err)
	}
	var a, b Op
	for i := 0; i < 30_000; i++ {
		d.Next(&a)
		fresh.Next(&b)
		if a != b {
			t.Fatalf("op %d after restore: got %+v, want %+v", i, b, a)
		}
	}
}

func TestDynamicRestoreRejectsMismatch(t *testing.T) {
	d := newTestDynamic(t, testDynamics(), 42)
	blob := snapshotStream(d)
	other := newTestDynamic(t, &Dynamics{Phases: []Phase{{Profile: "lbm", Ops: 100}}}, 42)
	if err := restoreStream(t, other, blob); err == nil {
		t.Error("restore into a different phase count succeeded")
	}
}

func TestDynamicsValidation(t *testing.T) {
	bad := []*Dynamics{
		{}, // empty
		{Phases: []Phase{{Profile: "nonesuch", Ops: 100}}},
		{Phases: []Phase{{Profile: "lbm", Ops: 0}}},
		{Diurnal: &Diurnal{PeriodOps: 0, MinLoad: 0.5}},
		{Diurnal: &Diurnal{PeriodOps: 100, MinLoad: 0}},
		{Diurnal: &Diurnal{PeriodOps: 100, MinLoad: 1.5}},
		{Burst: &Burst{OnOps: 0, OffOps: 10, OffLoad: 0.5}},
		{Burst: &Burst{OnOps: 10, OffOps: 0, OffLoad: 0.5}},
		{Burst: &Burst{OnOps: 10, OffOps: 10, OffLoad: 0}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, spec)
		}
	}
	if err := testDynamics().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	prof, _ := ProfileByName("lbm")
	if _, err := NewDynamic(prof, nil, 0, 1<<30, 1); err == nil {
		t.Error("nil dynamics accepted")
	}
}

func TestStretchGap(t *testing.T) {
	if g := stretchGap(10, 1); g != 10 {
		t.Errorf("full load changed the gap: %d", g)
	}
	if g := stretchGap(10, 0.5); g != 21 {
		t.Errorf("stretchGap(10, 0.5) = %d, want 21", g)
	}
	if g := stretchGap(0, 0.1); g != 9 {
		t.Errorf("stretchGap(0, 0.1) = %d, want 9", g)
	}
	// Monotone: never shrinks.
	for nm := 0; nm < 100; nm++ {
		if g := stretchGap(nm, 0.9999); g < nm {
			t.Fatalf("stretchGap(%d, ~1) = %d shrank", nm, g)
		}
	}
}

func TestDynamicWorkloads(t *testing.T) {
	ws := DynamicWorkloads()
	if len(ws) != 3 {
		t.Fatalf("have %d dynamic workloads, want 3", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if len(w.Cores) != 4 {
			t.Errorf("%s has %d cores, want 4", w.Name, len(w.Cores))
		}
		if w.Dynamics == nil {
			t.Errorf("%s has no dynamics", w.Name)
		}
		got, err := WorkloadByName(w.Name)
		if err != nil {
			t.Errorf("WorkloadByName(%s): %v", w.Name, err)
		} else if got.Dynamics == nil {
			t.Errorf("WorkloadByName(%s) lost the dynamics", w.Name)
		}
	}
	// The paper's main workload matrix must stay untouched.
	for _, w := range Workloads() {
		if w.Dynamics != nil {
			t.Errorf("stationary workload %s gained dynamics", w.Name)
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	gems, _ := WorkloadByName("GemsFDTD")
	if err := gems.Validate(); err != nil {
		t.Errorf("GemsFDTD rejected: %v", err)
	}
	if n := gems.NumStreams(); n != 4 {
		t.Errorf("GemsFDTD NumStreams = %d, want 4", n)
	}
	bad := []Workload{
		{Name: "x", Cores: gems.Cores, Dynamics: &Dynamics{}},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
