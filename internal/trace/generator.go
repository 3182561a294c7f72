package trace

import (
	"fmt"
	"math"
	"sync"
)

// Op is one unit of work from a generator: NonMem non-memory instructions
// followed by a single memory access.
type Op struct {
	NonMem int
	Addr   uint64
	Store  bool
}

// Generator produces an infinite, deterministic instruction stream.
type Generator interface {
	// Next fills op with the next work unit.
	Next(op *Op)
	// Name identifies the benchmark.
	Name() string
}

// Mixture is the three-component generator described in Profile.
type Mixture struct {
	prof Profile
	rng  prng

	base uint64 // address-space offset of this copy
	span uint64 // address-space size available to this copy

	avgNonMem float64

	hotBases  []uint64 // region base addresses of the hot pool
	streamPos uint64

	// hotThresholds[j] is the smallest u with power-law bucket index
	// j+1, precomputed so the per-draw region choice is a binary search
	// instead of a math.Pow call (~half the generator's cost). The
	// boundaries are refined to exact float64 adjacency against the
	// original int(Pow(u, skew)*n) expression, so the chosen region is
	// bit-identical to evaluating it directly. It and hotCells depend
	// only on (HotRegions, HotSkew) and are read-only: built-in profiles
	// share one copy per process (see builtinHotTables).
	hotThresholds []float64

	// hotCells[j] counts thresholds strictly below j*2^-12: a draw u in
	// cell j = int(u*4096) only needs to scan hotThresholds in
	// [hotCells[j], hotCells[j+1]) — at typical pool sizes under a
	// handful of boundaries — instead of a full binary search.
	hotCells []int32

	// Hot-store sweep state: hot writes visit a region as a burst that
	// sweeps its blocks in order (the spatial pattern of stencil /
	// field-update codes), so a region's blocks are re-written at the
	// region revisit interval — the temporal-locality signature the
	// RRM's dirty-write filter detects. A uniform random spray would
	// spread re-writes of one block 64x further apart and no LLC line
	// would ever be re-dirtied while resident.
	sweepBase uint64
	sweepNext int
	sweepLeft int

	// revisit is a FIFO ring of regions awaiting their second sweep
	// (paired sweeps; see Profile.SweepGapRegions). A ring instead of a
	// shifted slice keeps pops O(1) and the backing array stable, so
	// steady-state generation is allocation-free.
	revisit     []uint64
	revisitHead int
	revisitLen  int
}

// NewMixture builds a generator for one benchmark copy. base/span carve
// the copy's address-space partition (the paper runs 4 copies in 8 GB, so
// each gets a 2 GB quarter); seed makes the stream unique per core.
func NewMixture(prof Profile, base, span uint64, seed uint64) (*Mixture, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if span == 0 {
		return nil, fmt.Errorf("trace: zero address span")
	}
	if prof.WorkingSetBytes > span {
		return nil, fmt.Errorf("trace %s: working set %d exceeds span %d",
			prof.Name, prof.WorkingSetBytes, span)
	}
	m := &Mixture{
		prof: prof,
		rng:  newPRNG(seed),
		base: base,
		span: span,
	}
	if g := prof.SweepGapRegions; g > 0 {
		// Steady-state ring occupancy is g+1 (one push per pop once the
		// gap is filled); pre-size so generation never allocates.
		m.revisit = make([]uint64, g+2)
	}
	// Average non-memory instructions between memory ops.
	m.avgNonMem = (1 - prof.MemFraction) / prof.MemFraction

	// Hot pool: distinct 4 KB regions scattered through the working
	// set, chosen once per copy (deterministically from the seed).
	if prof.HotRegions > 0 {
		wsRegions := prof.WorkingSetBytes >> 12
		if wsRegions == 0 {
			wsRegions = 1
		}
		m.hotBases = make([]uint64, prof.HotRegions)
		stride := wsRegions / uint64(prof.HotRegions)
		if stride == 0 {
			stride = 1
		}
		for i := range m.hotBases {
			// Evenly spread with random jitter: scattered but stable.
			region := (uint64(i)*stride + m.rng.next()%stride) % wsRegions
			m.hotBases[i] = base + region<<12
		}
		if len(m.hotBases) > 1 {
			m.hotThresholds, m.hotCells = builtinHotTables().tables(len(m.hotBases), prof.HotSkew)
		}
	}
	return m, nil
}

// buildHotThresholds precomputes, for each bucket i in [1, n), the
// smallest float64 u at which int(math.Pow(u, skew)*n), clamped to n-1,
// reaches i. Non-negative float64s order identically to their bit
// patterns, so the exact float boundary is found by galloping out from
// the analytic inverse (i/n)^(1/skew) — within a few ulps of the true
// edge — and bit-bisecting the bracket. Construction costs a handful of
// Pow calls per bucket (see builtinHotTables for who pays it).
func buildHotThresholds(n int, skew float64) []float64 {
	fn := float64(n)
	pred := func(b uint64, i int) bool {
		idx := int(math.Pow(math.Float64frombits(b), skew) * fn)
		if idx >= n {
			idx = n - 1
		}
		return idx >= i
	}
	one := math.Float64bits(1.0)
	th := make([]float64, n-1)
	for i := 1; i < n; i++ {
		gb := math.Float64bits(math.Pow(float64(i)/fn, 1/skew))
		if gb > one {
			gb = one
		}
		// Bracket [lo, hi] with pred(hi) true and pred(lo-1) false
		// (u=0 maps to bucket 0 and u=1 clamps to n-1, so both ends
		// are guaranteed).
		var lo, hi uint64
		if pred(gb, i) {
			lo, hi = 0, gb
			for step := uint64(1); hi >= step; step *= 2 {
				if c := hi - step; !pred(c, i) {
					lo = c + 1
					break
				}
			}
		} else {
			lo, hi = gb+1, one
			for step := uint64(1); lo+step <= one; step *= 2 {
				if c := lo + step; pred(c, i) {
					hi = c
					break
				}
			}
		}
		for lo < hi {
			mid := lo + (hi-lo)/2
			if pred(mid, i) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		th[i-1] = math.Float64frombits(lo)
	}
	return th
}

// buildHotCells builds the 4096-cell coarse index over the sorted
// threshold list: cells[j] = #{th[i] < j*2^-12}. The cell width 2^-12 is
// a power of two, so int(u*4096) is an exact bucketing of u.
func buildHotCells(th []float64) []int32 {
	cells := make([]int32, 4097)
	idx := 0
	for j := 0; j <= 4096; j++ {
		bound := float64(j) * (1.0 / 4096)
		for idx < len(th) && th[idx] < bound {
			idx++
		}
		cells[j] = int32(idx)
	}
	return cells
}

// hotKey identifies one power-law lookup table.
type hotKey struct {
	regions int
	skew    float64
}

// sharedHotTable is one lazily built, then read-only, lookup table.
type sharedHotTable struct {
	once       sync.Once
	thresholds []float64
	cells      []int32
}

// hotMemo holds one table slot per (HotRegions, HotSkew) pair of a fixed
// profile set. Its key set never changes after construction, so it is
// bounded by construction and safe to read from any goroutine; each
// slot's table is built on first use.
type hotMemo map[hotKey]*sharedHotTable

func newHotMemo(profiles []Profile) hotMemo {
	m := make(hotMemo)
	for _, p := range profiles {
		if p.HotRegions > 1 {
			m[hotKey{p.HotRegions, p.HotSkew}] = &sharedHotTable{}
		}
	}
	return m
}

// tables returns the threshold table and its cell index for an n-region
// pool with the given skew. A memoised pair is built once and then
// shared; any other pair is built for the caller alone, so arbitrary
// submitted profiles cannot grow the memo.
func (m hotMemo) tables(n int, skew float64) ([]float64, []int32) {
	t, ok := m[hotKey{n, skew}]
	if !ok {
		th := buildHotThresholds(n, skew)
		return th, buildHotCells(th)
	}
	t.once.Do(func() {
		t.thresholds = buildHotThresholds(n, skew)
		t.cells = buildHotCells(t.thresholds)
	})
	return t.thresholds, t.cells
}

// builtinHotTables is the process-wide memo over the built-in Profiles.
// Building a table costs ~5 Pow calls per region, most of a sim.New, and
// every sampled fork and service job builds a System. Tables are built
// on first use, never at init, so a process pins only the ones its
// workloads need (all nine would be ~400 KB).
var builtinHotTables = sync.OnceValue(func() hotMemo { return newHotMemo(Profiles()) })

// Name implements Generator.
func (m *Mixture) Name() string { return m.prof.Name }

// Next implements Generator.
func (m *Mixture) Next(op *Op) {
	// Geometric-ish gap around the profile average: uniform in
	// [0, 2*avg] keeps the mean while varying the spacing (rounded,
	// so truncation doesn't bias the mean down by half an
	// instruction).
	op.NonMem = int(m.rng.float64()*2*m.avgNonMem + 0.5)
	u := m.rng.float64()
	op.Store = u < m.prof.StoreFraction

	var hotFrac, streamFrac float64
	if op.Store {
		hotFrac, streamFrac = m.prof.HotStoreFrac, m.prof.StreamStoreFrac
	} else {
		hotFrac, streamFrac = m.prof.HotLoadFrac, m.prof.StreamLoadFrac
	}
	v := m.rng.float64()
	switch {
	case v < hotFrac:
		if op.Store {
			op.Addr = m.hotSweepAddr()
		} else {
			op.Addr = m.hotRandomAddr()
		}
	case v < hotFrac+streamFrac:
		op.Addr = m.streamAddr()
	default:
		op.Addr = m.randomAddr()
	}
}

// hotRegionIndex picks a hot-pool region with power-law skew: the
// bucket is the count of precomputed boundaries at or below the draw,
// which equals int(Pow(u, skew)*n) by construction (see
// buildHotThresholds) without paying for Pow on every access.
func (m *Mixture) hotRegionIndex() int {
	u := m.rng.float64()
	if m.hotCells == nil {
		return 0 // single-region pool: the draw still advances the rng
	}
	j := int(u * 4096)
	idx := int(m.hotCells[j])
	th := m.hotThresholds
	for e := int(m.hotCells[j+1]); idx < e && th[idx] <= u; idx++ {
	}
	return idx
}

// hotSweepAddr returns the next block of the current hot-store sweep,
// starting a new sweep over a (power-law chosen) region when the previous
// one finishes.
func (m *Mixture) hotSweepAddr() uint64 {
	if m.sweepLeft == 0 {
		if g := m.prof.SweepGapRegions; g > 0 && m.revisitLen > g {
			// Second pass over a region swept a while ago.
			m.sweepBase = m.revisitPop()
		} else {
			m.sweepBase = m.hotBases[m.hotRegionIndex()]
			if m.prof.SweepGapRegions > 0 {
				m.revisitPush(m.sweepBase)
			}
		}
		m.sweepNext = 0
		m.sweepLeft = m.prof.HotBlockSpan
		if m.sweepLeft == 0 {
			m.sweepLeft = 64
		}
	}
	addr := m.sweepBase + uint64(m.sweepNext)*64
	m.sweepNext++
	m.sweepLeft--
	return addr
}

// revisitPop removes and returns the oldest queued revisit region.
func (m *Mixture) revisitPop() uint64 {
	v := m.revisit[m.revisitHead]
	m.revisitHead++
	if m.revisitHead == len(m.revisit) {
		m.revisitHead = 0
	}
	m.revisitLen--
	return v
}

// revisitPush appends a region to the revisit ring, growing it when
// full (steady state never grows: the queue length is bounded by
// SweepGapRegions+1).
func (m *Mixture) revisitPush(base uint64) {
	if m.revisitLen == len(m.revisit) {
		grown := make([]uint64, 2*len(m.revisit)+2)
		for i := 0; i < m.revisitLen; i++ {
			grown[i] = m.revisit[(m.revisitHead+i)%len(m.revisit)]
		}
		m.revisit = grown
		m.revisitHead = 0
	}
	m.revisit[(m.revisitHead+m.revisitLen)%len(m.revisit)] = base
	m.revisitLen++
}

// hotRandomAddr picks a uniform block in a power-law chosen hot region
// (hot loads: read-modify-write traffic that also keeps hot lines warm in
// the LLC's LRU).
func (m *Mixture) hotRandomAddr() uint64 {
	span := m.prof.HotBlockSpan
	if span == 0 {
		span = 64
	}
	return m.hotBases[m.hotRegionIndex()] + uint64(m.rng.intn(span))*64
}

// streamAddr advances the sequential cursor one block.
func (m *Mixture) streamAddr() uint64 {
	addr := m.base + (m.streamPos % m.prof.StreamBytes)
	m.streamPos += 64
	return addr
}

// randomAddr picks a uniform block in the working set.
func (m *Mixture) randomAddr() uint64 {
	blocks := m.prof.WorkingSetBytes / 64
	return m.base + (m.rng.next()%blocks)*64
}

// MaxMLP exposes the profile's memory-parallelism cap for the core model.
func (m *Mixture) MaxMLP() int { return m.prof.MaxMLP }

// BaseCPI exposes the profile's non-memory CPI for the core model.
func (m *Mixture) BaseCPI() float64 { return m.prof.BaseCPI }

// Profile returns the generator's profile.
func (m *Mixture) Profile() Profile { return m.prof }
