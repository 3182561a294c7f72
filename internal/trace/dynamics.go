package trace

import (
	"fmt"
	"math"

	"rrmpcm/internal/snapshot"
)

// Dynamics makes a workload's synthetic streams non-stationary. Each
// component is optional and they compose: Phases pick which mixture
// generates the next op, Diurnal and Burst then stretch its non-memory
// gap (diluting memory intensity without touching the address pattern).
// All three are deterministic, allocation-free after construction, and
// snapshot/restorable, so warm-start and sampling forks work unchanged.
//
// The fields are part of the config-hash image (trace.Workload travels
// whole); every field is omitempty so workloads without dynamics keep
// their pre-existing hashes, cache entries and warm snapshots.
type Dynamics struct {
	// Phases cycle the stream through different benchmark profiles by
	// memory-op count: phase k generates Ops ops with Profile's mixture,
	// then hands over to phase k+1 (wrapping). This is the piecewise
	// profile switch that finally exercises RRM's decay machinery — a
	// hot set forms, the phase ends, and the monitor must notice the
	// regions went cold.
	Phases []Phase `json:",omitempty"`
	// Diurnal modulates load on a fixed period (peak at phase 0).
	Diurnal *Diurnal `json:",omitempty"`
	// Burst switches between full-rate on-periods and diluted
	// off-periods with exponentially distributed dwell times
	// (MMPP-style on/off arrivals).
	Burst *Burst `json:",omitempty"`
}

// Phase is one segment of a phase-changing stream.
type Phase struct {
	// Profile names a Profiles() benchmark whose mixture generates this
	// phase's ops.
	Profile string
	// Ops is the phase length in memory operations.
	Ops uint64
}

// Diurnal describes cosine load modulation: load swings between 1 (at
// op 0 and every PeriodOps after) and MinLoad (half a period later).
// The non-memory gap is stretched by 1/load, so trough traffic is
// MinLoad times the profile's memory intensity.
type Diurnal struct {
	PeriodOps uint64
	MinLoad   float64
}

// Burst describes MMPP-style on/off arrivals: dwell times in each state
// are exponentially distributed with means OnOps and OffOps (in memory
// operations); during off-periods the non-memory gap is stretched by
// 1/OffLoad.
type Burst struct {
	OnOps   uint64
	OffOps  uint64
	OffLoad float64
}

// Validate checks the dynamics specification.
func (d *Dynamics) Validate() error {
	for i, p := range d.Phases {
		if _, err := ProfileByName(p.Profile); err != nil {
			return fmt.Errorf("trace: phase %d: %w", i, err)
		}
		if p.Ops == 0 {
			return fmt.Errorf("trace: phase %d (%s) has zero ops", i, p.Profile)
		}
	}
	if di := d.Diurnal; di != nil {
		if di.PeriodOps == 0 {
			return fmt.Errorf("trace: diurnal period is zero ops")
		}
		// Negated so that NaN fails the check too.
		if !(di.MinLoad > 0 && di.MinLoad <= 1) {
			return fmt.Errorf("trace: diurnal MinLoad %v out of (0,1]", di.MinLoad)
		}
	}
	if b := d.Burst; b != nil {
		if b.OnOps == 0 || b.OffOps == 0 {
			return fmt.Errorf("trace: burst dwell means must be positive (on %d, off %d)", b.OnOps, b.OffOps)
		}
		if !(b.OffLoad > 0 && b.OffLoad <= 1) {
			return fmt.Errorf("trace: burst OffLoad %v out of (0,1]", b.OffLoad)
		}
	}
	if len(d.Phases) == 0 && d.Diurnal == nil && d.Burst == nil {
		return fmt.Errorf("trace: empty dynamics (no phases, diurnal or burst)")
	}
	return nil
}

// diurnalQuantum is how often (in ops) the diurnal load factor is
// recomputed; within a quantum the load is constant. 1024 ops is far
// below any meaningful period and keeps the cosine off the per-op path.
const diurnalQuantum = 1024

// Dynamic wraps one or more Mixtures into a non-stationary Stream.
type Dynamic struct {
	name    string
	baseCPI float64
	maxMLP  int
	spec    Dynamics

	phases []*Mixture // len >= 1; index 0 is the base/current profile
	cur    int
	into   uint64 // ops generated in the current phase

	ops  uint64  // total ops generated (diurnal position)
	load float64 // cached diurnal load for the current quantum

	brng      prng // dedicated dwell-time stream (never the mixtures')
	burstOn   bool
	burstLeft uint64 // ops remaining in the current on/off dwell
}

// NewDynamic builds a non-stationary stream over [base, base+span).
// prof is the core's base profile: it defines the core-model parameters
// (BaseCPI, MaxMLP) and generates when no phases are declared; the
// stream name is the base profile's. Phase mixtures get sub-seeds
// derived from seed so the phase streams are mutually decorrelated.
func NewDynamic(prof Profile, spec *Dynamics, base, span, seed uint64) (*Dynamic, error) {
	if spec == nil {
		return nil, fmt.Errorf("trace: nil dynamics")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Dynamic{
		name:    prof.Name,
		baseCPI: prof.BaseCPI,
		maxMLP:  prof.MaxMLP,
		spec:    *spec,
		load:    1,
		brng:    newPRNG(seed ^ 0xB5297A4D2C5A28DD),
		burstOn: true,
	}
	if len(spec.Phases) == 0 {
		m, err := NewMixture(prof, base, span, seed)
		if err != nil {
			return nil, err
		}
		d.phases = []*Mixture{m}
	} else {
		for k, ph := range spec.Phases {
			p, err := ProfileByName(ph.Profile)
			if err != nil {
				return nil, err
			}
			m, err := NewMixture(p, base, span, seed+uint64(k+1)*0x9E3779B97F4A7C15)
			if err != nil {
				return nil, err
			}
			d.phases = append(d.phases, m)
		}
	}
	return d, nil
}

// Name implements Generator (the base profile's name).
func (d *Dynamic) Name() string { return d.name }

// MaxMLP implements Stream (constant: the base profile's).
func (d *Dynamic) MaxMLP() int { return d.maxMLP }

// BaseCPI implements Stream (constant: the base profile's).
func (d *Dynamic) BaseCPI() float64 { return d.baseCPI }

// Next implements Generator.
func (d *Dynamic) Next(op *Op) {
	if n := len(d.spec.Phases); n > 0 {
		if d.into >= d.spec.Phases[d.cur].Ops {
			d.cur++
			if d.cur == n {
				d.cur = 0
			}
			d.into = 0
		}
		d.into++
	}
	d.phases[d.cur].Next(op)

	if di := d.spec.Diurnal; di != nil {
		if d.ops%diurnalQuantum == 0 {
			pos := float64(d.ops%di.PeriodOps) / float64(di.PeriodOps)
			d.load = di.MinLoad + (1-di.MinLoad)*(0.5+0.5*math.Cos(2*math.Pi*pos))
		}
		op.NonMem = stretchGap(op.NonMem, d.load)
	}
	if b := d.spec.Burst; b != nil {
		if d.burstLeft == 0 {
			d.burstOn = !d.burstOn
			mean := b.OnOps
			if !d.burstOn {
				mean = b.OffOps
			}
			d.burstLeft = expDwell(&d.brng, mean)
		}
		d.burstLeft--
		if !d.burstOn {
			op.NonMem = stretchGap(op.NonMem, b.OffLoad)
		}
	}
	d.ops++
}

// stretchGap dilutes memory intensity to the given load in (0,1]: the
// op's instruction footprint (gap + the memory op itself) is divided by
// load, so memory ops per committed instruction scale by load exactly.
func stretchGap(nonMem int, load float64) int {
	if load >= 1 {
		return nonMem
	}
	g := int(float64(nonMem+1)/load+0.5) - 1
	if g < nonMem {
		g = nonMem
	}
	return g
}

// expDwell draws an exponentially distributed dwell time (>= 1 op).
func expDwell(p *prng, mean uint64) uint64 {
	u := p.float64()
	n := uint64(-float64(mean) * math.Log1p(-u))
	if n == 0 {
		n = 1
	}
	return n
}

// Section tag for Dynamic state inside a system snapshot.
const dynSection = 0x4459 // "DY"

// Snapshot implements Stream: every phase mixture's cursor plus the
// wrapper's own counters travel; the cached diurnal load is derived
// state, recomputed lazily after restore.
func (d *Dynamic) Snapshot(w *snapshot.Writer) {
	w.Section(dynSection)
	w.U32(uint32(len(d.phases)))
	for _, m := range d.phases {
		m.Snapshot(w)
	}
	w.U32(uint32(d.cur))
	w.U64(d.into)
	w.U64(d.ops)
	w.F64(d.load)
	w.U64(d.brng.state)
	w.Bool(d.burstOn)
	w.U64(d.burstLeft)
}

// Restore implements Stream (into a same-spec freshly built Dynamic).
func (d *Dynamic) Restore(r *snapshot.Reader) {
	r.Section(dynSection)
	if n := r.U32(); r.Err() == nil && int(n) != len(d.phases) {
		r.Fail("trace: dynamic snapshot has %d phases, stream %d", n, len(d.phases))
	}
	if r.Err() != nil {
		return
	}
	for _, m := range d.phases {
		m.Restore(r)
	}
	d.cur = int(r.U32())
	d.into = r.U64()
	d.ops = r.U64()
	d.load = r.F64()
	d.brng.state = r.U64()
	d.burstOn = r.Bool()
	d.burstLeft = r.U64()
	if r.Err() == nil && (d.cur < 0 || d.cur >= len(d.phases)) {
		r.Fail("trace: dynamic snapshot phase index %d out of range", d.cur)
	}
}
