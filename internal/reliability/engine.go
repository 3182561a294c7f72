package reliability

import (
	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// lineState is the per-tracked-line error state. Value-typed on purpose:
// updates copy it out of and back into the map, so the steady-state read
// path never allocates.
type lineState struct {
	writtenAt timing.Time // simulated-clock time of the last rewrite
	rng       uint64      // private SplitMix64 stream of this generation
	lastP     float64     // drift bit-error probability at last inspection
	flips     uint16      // accumulated wrong bits (programming + drift)
	mode      uint8       // pcm.WriteMode of the last rewrite
	scrubbed  bool        // rewritten at least once since first tracked
}

// Engine is the per-run fault injector + ECC model + scrub bookkeeping.
// It is driven synchronously from the simulation's event loop (backend
// write/read hooks, controller read path, patrol timer) and is not safe
// for concurrent use — one engine per run, like every other simulator
// component.
type Engine struct {
	cfg       Config
	table     pcm.DriftTable
	timeScale float64
	sampling  uint64
	seed      uint64

	lines      map[uint64]lineState
	generation uint64

	// Patrol round-robin queue: tracked line addresses in first-tracked
	// order. head indexes the next victim; popped lines re-append, so
	// the scrubber cycles the whole population deterministically.
	patrolQ    []uint64
	patrolHead int

	m Metrics
}

// New builds an engine for one run. table supplies the drift law,
// timeScale the retention-clock acceleration (simulated age × timeScale
// = real age), sampling the policy's simulated-refresh sampling factor
// (the engine tracks exactly the blocks whose refreshes the policy
// simulates, sharing core.SampledBlock's hash), and seed the run's
// dedicated reliability RNG stream.
func New(cfg Config, table pcm.DriftTable, timeScale float64, sampling uint64, seed uint64) *Engine {
	if timeScale < 1 {
		timeScale = 1
	}
	if sampling < 1 {
		sampling = 1
	}
	return &Engine{
		cfg:       cfg,
		table:     table,
		timeScale: timeScale,
		sampling:  sampling,
		seed:      seed,
		lines:     make(map[uint64]lineState),
	}
}

// updateFlips advances a line's accumulated bit flips to time now. Drift
// errors are monotone: with cumulative per-bit probability p(t), the
// increment since the last inspection at p0 is a conditional Bernoulli
// with probability (p(t)-p0)/(1-p0) over the still-correct bits — so
// repeated inspections sample the same distribution as a single one,
// and flip counts never decrease between rewrites.
func (e *Engine) updateFlips(ls *lineState, now timing.Time) {
	if now <= ls.writtenAt {
		return
	}
	realAge := timing.Time(float64(now-ls.writtenAt) * e.timeScale)
	p := e.table.BitErrorProb(pcm.WriteMode(ls.mode).Sets(), realAge)
	if p <= ls.lastP {
		return
	}
	pInc := (p - ls.lastP) / (1 - ls.lastP)
	ls.flips += uint16(binomial(&ls.rng, e.cfg.LineBits-int(ls.flips), pInc))
	ls.lastP = p
}

// OnWrite observes a completed block write or refresh: it classifies
// (and then wipes) the error state of an already-tracked line — the
// scrubbing action — and starts a fresh generation with newly sampled
// programming errors. Blocks outside the policy's simulated-refresh
// sample are not tracked: their refreshes are accounted statistically,
// so injecting drift errors for them would count failures the policy
// does prevent.
func (e *Engine) OnWrite(addr uint64, mode pcm.WriteMode, kind pcm.WearKind, now timing.Time) {
	blk := addr &^ 63
	if !core.SampledBlock(blk, e.sampling) {
		return
	}
	ls, tracked := e.lines[blk]
	if tracked {
		e.updateFlips(&ls, now)
		if f := int(ls.flips); f > e.cfg.ECCBits {
			e.m.ScrubFoundUncorrectable++
		} else if f > 0 {
			e.m.ScrubFoundCorrected++
		}
		if kind == pcm.WearDemandWrite {
			e.m.ScrubsOnWrite++
		} else {
			e.m.ScrubsOnRefresh++
		}
		if !ls.scrubbed {
			ls.scrubbed = true
			e.m.LinesScrubbed++
		}
	} else {
		e.m.LinesTracked++
		if e.cfg.Patrol {
			e.patrolQ = append(e.patrolQ, blk)
		}
	}
	e.generation++
	ls.writtenAt = now
	ls.mode = uint8(mode)
	ls.lastP = 0
	ls.rng = lineSeed(e.seed, blk, e.generation)
	ls.flips = uint16(binomial(&ls.rng, e.cfg.LineBits, e.cfg.ProgBitErrorProb))
	e.lines[blk] = ls
}

// OnDemandRead classifies a demand read of addr completing at now and
// returns the ECC stall to add to its latency (zero for untracked lines
// and clean reads). It implements the memory controller's read-integrity
// hook.
func (e *Engine) OnDemandRead(addr uint64, now timing.Time) timing.Time {
	blk := addr &^ 63
	ls, ok := e.lines[blk]
	if !ok {
		return 0
	}
	e.updateFlips(&ls, now)
	e.lines[blk] = ls
	e.m.ReadsChecked++
	var stall timing.Time
	switch f := int(ls.flips); {
	case f == 0:
		e.m.CleanReads++
	case f <= e.cfg.ECCBits:
		e.m.CorrectedReads++
		e.m.BitFlipsCorrected += uint64(f)
		stall = e.cfg.ECCLatency
	default:
		// Detection costs the same decode; the data loss is the point.
		e.m.UncorrectableReads++
		stall = e.cfg.ECCLatency
	}
	e.m.CorrectionStall += stall
	return stall
}

// Patrol emits up to PatrolBatch tracked lines, round-robin, for the
// caller to rewrite (issue refreshes for). Each emitted line re-enters
// the back of the queue, so the scrubber cycles the whole tracked
// population at a rate of PatrolBatch lines per tick.
func (e *Engine) Patrol(issue func(addr uint64, mode pcm.WriteMode)) {
	queued := len(e.patrolQ) - e.patrolHead
	if queued > e.cfg.PatrolBatch {
		queued = e.cfg.PatrolBatch
	}
	for i := 0; i < queued; i++ {
		blk := e.patrolQ[e.patrolHead]
		e.patrolQ[e.patrolHead] = 0
		e.patrolHead++
		e.patrolQ = append(e.patrolQ, blk)
		e.m.PatrolIssued++
		issue(blk, pcm.WriteMode(e.lines[blk].mode))
	}
	// Reclaim the consumed prefix once it dominates the backing array.
	if e.patrolHead > len(e.patrolQ)/2 {
		e.patrolQ = append(e.patrolQ[:0], e.patrolQ[e.patrolHead:]...)
		e.patrolHead = 0
	}
}

// Finish classifies every still-tracked line once at the end of the
// measurement window, so errors latent in lines the workload never
// re-read are reported too. Per-line RNG streams make the totals
// independent of map iteration order.
func (e *Engine) Finish(now timing.Time) {
	for blk, ls := range e.lines {
		e.updateFlips(&ls, now)
		e.lines[blk] = ls
		e.m.SweepLines++
		if f := int(ls.flips); f > e.cfg.ECCBits {
			e.m.SweepUncorrectable++
		} else if f > 0 {
			e.m.SweepCorrected++
		}
	}
}

// Metrics returns a snapshot of the accumulated counters.
func (e *Engine) Metrics() Metrics { return e.m }

// Tracked returns the number of currently tracked lines (tests).
func (e *Engine) Tracked() int { return len(e.lines) }
