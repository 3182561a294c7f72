package trace

import (
	"fmt"
	"math"
)

// Profile parameterizes one synthetic benchmark. The address stream is a
// mixture of three components:
//
//   - hot: a pool of HotRegions 4 KB regions re-written with millisecond
//     temporal locality (the Hot-Written Memory Regions of paper §III-C);
//     region choice is power-law skewed so the pool has hotter and cooler
//     tiers like Table III.
//   - stream: a sequential cursor sweeping StreamBytes, 64 B per access
//     (spatial locality without temporal write locality — exactly the
//     pattern RRM's dirty-write filter must reject).
//   - random: uniform over WorkingSetBytes (cold misses, written-once and
//     never-written regions).
type Profile struct {
	Name string

	// MemFraction is the fraction of instructions that access data
	// memory *beyond the L1-resident working set*; the remainder
	// (including L1-hit accesses, whose 2-cycle pipelined cost an OoO
	// core hides) advance the core by BaseCPI each. This is standard
	// trace filtering: only hierarchy-relevant references are replayed.
	MemFraction float64
	// StoreFraction is the fraction of memory operations that are
	// stores.
	StoreFraction float64
	// BaseCPI is the average cycles per non-memory instruction the
	// out-of-order core sustains (ILP of the benchmark).
	BaseCPI float64
	// MaxMLP caps outstanding LLC misses the core may overlap
	// (pointer-chasing codes like mcf have little memory parallelism).
	// Zero means "limited only by the MSHRs".
	MaxMLP int

	// Mixture weights for loads and stores; the hot and stream weights
	// must sum to <= 1, the remainder is the random component.
	HotLoadFrac     float64
	StreamLoadFrac  float64
	HotStoreFrac    float64
	StreamStoreFrac float64

	// HotRegions is the hot pool size in 4 KB regions (per copy).
	HotRegions int
	// HotSkew is the power-law exponent for region choice: 1.0 is
	// uniform; larger concentrates writes in fewer regions, producing
	// Table III's interval tiers.
	HotSkew float64
	// HotBlockSpan restricts each hot visit to the first N blocks of
	// the region (0 = whole region); smaller spans re-dirty individual
	// LLC lines sooner.
	HotBlockSpan int
	// SweepGapRegions enables paired sweeps: after a region is swept,
	// it is queued and swept a second time once this many other
	// regions have been swept (stencil codes make several passes over
	// each field per time step). The gap must exceed the L1+L2
	// residence so the second pass re-dirties LLC-resident lines —
	// the signature the RRM dirty-write filter detects. 0 disables.
	SweepGapRegions int

	// StreamBytes is the wrap length of the streaming cursor.
	StreamBytes uint64
	// WorkingSetBytes bounds the random component (per copy).
	WorkingSetBytes uint64
}

// Validate checks mixture consistency.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: empty profile name")
	}
	// Float range checks are negated so that NaN, which fails every
	// comparison, fails them too.
	if !(p.MemFraction > 0 && p.MemFraction < 1) {
		return fmt.Errorf("trace %s: MemFraction %v out of (0,1)", p.Name, p.MemFraction)
	}
	if !(p.StoreFraction >= 0 && p.StoreFraction <= 1) {
		return fmt.Errorf("trace %s: StoreFraction %v out of [0,1]", p.Name, p.StoreFraction)
	}
	if !(p.BaseCPI > 0) || math.IsInf(p.BaseCPI, 1) {
		return fmt.Errorf("trace %s: BaseCPI %v must be finite and > 0", p.Name, p.BaseCPI)
	}
	if !(p.HotLoadFrac >= 0 && p.StreamLoadFrac >= 0 && p.HotLoadFrac+p.StreamLoadFrac <= 1) {
		return fmt.Errorf("trace %s: load mixture invalid (HotLoadFrac %v, StreamLoadFrac %v)",
			p.Name, p.HotLoadFrac, p.StreamLoadFrac)
	}
	if !(p.HotStoreFrac >= 0 && p.StreamStoreFrac >= 0 && p.HotStoreFrac+p.StreamStoreFrac <= 1) {
		return fmt.Errorf("trace %s: store mixture invalid (HotStoreFrac %v, StreamStoreFrac %v)",
			p.Name, p.HotStoreFrac, p.StreamStoreFrac)
	}
	if (p.HotLoadFrac > 0 || p.HotStoreFrac > 0) && p.HotRegions <= 0 {
		return fmt.Errorf("trace %s: hot component without hot regions", p.Name)
	}
	if (p.StreamLoadFrac > 0 || p.StreamStoreFrac > 0) && p.StreamBytes == 0 {
		return fmt.Errorf("trace %s: stream component without stream bytes", p.Name)
	}
	if p.WorkingSetBytes == 0 {
		return fmt.Errorf("trace %s: zero working set", p.Name)
	}
	if !(p.HotSkew >= 1) || math.IsInf(p.HotSkew, 1) {
		return fmt.Errorf("trace %s: HotSkew %v must be finite and >= 1", p.Name, p.HotSkew)
	}
	if p.HotBlockSpan < 0 || p.HotBlockSpan > 64 {
		return fmt.Errorf("trace %s: HotBlockSpan %d", p.Name, p.HotBlockSpan)
	}
	// The two fields below size NewMixture's allocations, so they are
	// bounded by what they describe rather than left to exhaust memory.
	if p.HotRegions < 0 || uint64(p.HotRegions) > p.WorkingSetBytes>>12 {
		return fmt.Errorf("trace %s: HotRegions %d exceeds the %d distinct 4 KB regions of the working set",
			p.Name, p.HotRegions, p.WorkingSetBytes>>12)
	}
	if p.SweepGapRegions < 0 || p.SweepGapRegions > maxRevisit-2 {
		return fmt.Errorf("trace %s: SweepGapRegions %d out of [0, %d]", p.Name, p.SweepGapRegions, maxRevisit-2)
	}
	return nil
}

// Profiles returns the nine single benchmarks of Table VII, calibrated so
// the simulated hierarchy reproduces approximately the published LLC MPKI
// and the paper's qualitative write behaviour.
func Profiles() []Profile {
	return []Profile{
		{
			// bwaves: blocked wave solver; streaming with a moderate
			// re-written block set. MPKI 11.69.
			Name: "bwaves", MemFraction: 0.013, StoreFraction: 0.35, BaseCPI: 0.30,
			HotLoadFrac: 0.45, StreamLoadFrac: 0.30,
			HotStoreFrac: 0.80, StreamStoreFrac: 0.12,
			HotRegions: 2200, HotSkew: 1.6, HotBlockSpan: 0, SweepGapRegions: 25,
			StreamBytes: 256 << 20, WorkingSetBytes: 420 << 20,
		},
		{
			// GemsFDTD: finite-difference time domain; a large hot pool
			// re-swept every few milliseconds (Table III). MPKI 26.56.
			Name: "GemsFDTD", MemFraction: 0.042, StoreFraction: 0.55, BaseCPI: 0.32,
			HotLoadFrac: 0.50, StreamLoadFrac: 0.15,
			HotStoreFrac: 0.90, StreamStoreFrac: 0.04,
			HotRegions: 1200, HotSkew: 1.8, HotBlockSpan: 0, SweepGapRegions: 40,
			StreamBytes: 192 << 20, WorkingSetBytes: 840 << 20,
		},
		{
			// hmmer: profile HMM search; compute bound, tiny footprint.
			// MPKI 2.84.
			Name: "hmmer", MemFraction: 0.0045, StoreFraction: 0.28, BaseCPI: 0.22,
			HotLoadFrac: 0.70, StreamLoadFrac: 0.05,
			HotStoreFrac: 0.95, StreamStoreFrac: 0.01,
			HotRegions: 300, HotSkew: 1.4, HotBlockSpan: 0, SweepGapRegions: 12,
			StreamBytes: 8 << 20, WorkingSetBytes: 48 << 20,
		},
		{
			// lbm: lattice Boltzmann; the heaviest writer, long streaming
			// sweeps plus a hot collision set. MPKI 55.15.
			Name: "lbm", MemFraction: 0.056, StoreFraction: 0.45, BaseCPI: 0.34,
			HotLoadFrac: 0.25, StreamLoadFrac: 0.55,
			HotStoreFrac: 0.72, StreamStoreFrac: 0.24,
			HotRegions: 8200, HotSkew: 1.5, HotBlockSpan: 0, SweepGapRegions: 60,
			StreamBytes: 400 << 20, WorkingSetBytes: 800 << 20,
		},
		{
			// leslie3d: computational fluid dynamics. MPKI 10.46.
			Name: "leslie3d", MemFraction: 0.0113, StoreFraction: 0.38, BaseCPI: 0.28,
			HotLoadFrac: 0.45, StreamLoadFrac: 0.28,
			HotStoreFrac: 0.82, StreamStoreFrac: 0.10,
			HotRegions: 2600, HotSkew: 1.6, HotBlockSpan: 0, SweepGapRegions: 25,
			StreamBytes: 160 << 20, WorkingSetBytes: 360 << 20,
		},
		{
			// libquantum: quantum simulation; long repeated sweeps over
			// the state vector with a smaller re-toggled subset. MPKI
			// 52.07, the largest static-3 speedup in the paper.
			Name: "libquantum", MemFraction: 0.053, StoreFraction: 0.38, BaseCPI: 0.40,
			HotLoadFrac: 0.20, StreamLoadFrac: 0.70,
			HotStoreFrac: 0.76, StreamStoreFrac: 0.20,
			HotRegions: 6800, HotSkew: 1.3, HotBlockSpan: 0, SweepGapRegions: 50,
			StreamBytes: 512 << 20, WorkingSetBytes: 700 << 20,
		},
		{
			// mcf: single-depot vehicle scheduling; pointer chasing over
			// a big working set, read dominated, almost no memory
			// parallelism. MPKI 73.42.
			Name: "mcf", MemFraction: 0.074, StoreFraction: 0.12, BaseCPI: 0.45, MaxMLP: 2,
			HotLoadFrac: 0.08, StreamLoadFrac: 0.02,
			HotStoreFrac: 0.65, StreamStoreFrac: 0.02,
			HotRegions: 3400, HotSkew: 1.5, HotBlockSpan: 0, SweepGapRegions: 15,
			StreamBytes: 32 << 20, WorkingSetBytes: 1500 << 20,
		},
		{
			// milc: lattice QCD; scattered gather/scatter over a large
			// lattice with a hot gauge-field subset. MPKI 34.40.
			Name: "milc", MemFraction: 0.035, StoreFraction: 0.33, BaseCPI: 0.33,
			HotLoadFrac: 0.30, StreamLoadFrac: 0.12,
			HotStoreFrac: 0.82, StreamStoreFrac: 0.06,
			HotRegions: 4600, HotSkew: 1.5, HotBlockSpan: 0, SweepGapRegions: 40,
			StreamBytes: 128 << 20, WorkingSetBytes: 680 << 20,
		},
		{
			// zeusmp: magnetohydrodynamics; modest traffic. MPKI 7.64.
			Name: "zeusmp", MemFraction: 0.0088, StoreFraction: 0.32, BaseCPI: 0.26,
			HotLoadFrac: 0.55, StreamLoadFrac: 0.18,
			HotStoreFrac: 0.88, StreamStoreFrac: 0.05,
			HotRegions: 1600, HotSkew: 1.5, HotBlockSpan: 0, SweepGapRegions: 20,
			StreamBytes: 64 << 20, WorkingSetBytes: 220 << 20,
		},
	}
}

// ProfileByName finds a single-benchmark profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Workload names the per-core benchmark assignment of one experiment run:
// either four copies of one benchmark or one of the Table VII mixes.
//
// Dynamics is omitempty in the config-hash image, so every stationary
// workload keeps its hash (and its run cache entries and warm
// snapshots) unchanged.
type Workload struct {
	Name  string
	Cores []Profile

	// Dynamics, when set, makes the synthetic streams non-stationary
	// (phase switches, diurnal modulation, bursty arrivals). It applies
	// to every core.
	Dynamics *Dynamics `json:",omitempty"`
}

// NumStreams returns the number of per-core streams the workload
// describes: one per profile.
func (w Workload) NumStreams() int { return len(w.Cores) }

// Validate checks the workload's structural consistency (the profiles
// themselves are validated at stream construction).
func (w Workload) Validate() error {
	for _, p := range w.Cores {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if w.Dynamics != nil {
		if err := w.Dynamics.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Workloads returns the paper's eleven workloads: nine single-benchmark
// (4 identical copies) plus MIX_1 and MIX_2 (Table VII).
func Workloads() []Workload {
	var ws []Workload
	for _, p := range Profiles() {
		ws = append(ws, Workload{Name: p.Name, Cores: []Profile{p, p, p, p}})
	}
	byName := func(n string) Profile {
		p, err := ProfileByName(n)
		if err != nil {
			panic(err)
		}
		return p
	}
	ws = append(ws,
		Workload{Name: "MIX_1", Cores: []Profile{byName("mcf"), byName("bwaves"), byName("zeusmp"), byName("milc")}},
		Workload{Name: "MIX_2", Cores: []Profile{byName("GemsFDTD"), byName("libquantum"), byName("lbm"), byName("leslie3d")}},
	)
	return ws
}

// DynamicWorkloads returns the non-stationary workload set used by the
// W1 experiment: traffic whose hot sets move, dilute or vanish over
// time — the regimes where RRM's decay/demotion machinery (rather than
// just its hot-set capture) determines the outcome.
func DynamicWorkloads() []Workload {
	byName := func(n string) Profile {
		p, err := ProfileByName(n)
		if err != nil {
			panic(err)
		}
		return p
	}
	gems, lbm, milc := byName("GemsFDTD"), byName("lbm"), byName("milc")
	return []Workload{
		{
			// Program phases: a write-hot FDTD kernel alternating with a
			// compute-bound stretch and a streaming solver. Each switch
			// strands the previous phase's hot regions; RRM must decay
			// them back to long-retention mode.
			Name:  "PHASE_1",
			Cores: []Profile{gems, gems, gems, gems},
			Dynamics: &Dynamics{Phases: []Phase{
				{Profile: "GemsFDTD", Ops: 400_000},
				{Profile: "hmmer", Ops: 150_000},
				{Profile: "libquantum", Ops: 400_000},
			}},
		},
		{
			// On/off bursts: full-rate lbm writing interleaved with long
			// near-idle dwells (5% load) during which fast-refresh work
			// on the stranded hot set is pure overhead.
			Name:     "BURST_1",
			Cores:    []Profile{lbm, lbm, lbm, lbm},
			Dynamics: &Dynamics{Burst: &Burst{OnOps: 250_000, OffOps: 120_000, OffLoad: 0.05}},
		},
		{
			// Diurnal load swing: milc traffic between 100% and 15% on a
			// 500k-op period — hot regions stay hot but their rewrite
			// intervals stretch through the trough.
			Name:     "DIURNAL_1",
			Cores:    []Profile{milc, milc, milc, milc},
			Dynamics: &Dynamics{Diurnal: &Diurnal{PeriodOps: 500_000, MinLoad: 0.15}},
		},
	}
}

// WorkloadByName finds a workload (single benchmark, mix, or one of the
// non-stationary DynamicWorkloads).
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range DynamicWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("trace: unknown workload %q", name)
}

// PaperMPKI returns Table VII's published LLC MPKI for the nine single
// benchmarks, used by the calibration experiment (T7).
func PaperMPKI() map[string]float64 {
	return map[string]float64{
		"bwaves":     11.69,
		"GemsFDTD":   26.56,
		"hmmer":      2.84,
		"lbm":        55.15,
		"leslie3d":   10.46,
		"libquantum": 52.07,
		"mcf":        73.42,
		"milc":       34.40,
		"zeusmp":     7.64,
	}
}
