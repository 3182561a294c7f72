package reliability

import (
	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// lineState is one tracked line: its address, its error state and its
// link in the patrol ring. The fields pack into 40 bytes; entries live
// in fixed chunks of the line table (table.go) and never move, so the
// hot paths update them in place through a pointer.
type lineState struct {
	blk       uint64      // line address (64-byte aligned)
	writtenAt timing.Time // simulated-clock time of the last rewrite
	rng       uint64      // private SplitMix64 stream of this generation
	lastP     float64     // drift bit-error probability at last inspection
	flips     uint16      // accumulated wrong bits (programming + drift)
	mode      uint8       // pcm.WriteMode of the last rewrite
	scrubbed  bool        // rewritten at least once since first tracked
	next      uint32      // patrol ring: position of the line popped after this one
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

	lines      lineTable
	generation uint64

	// Patrol round-robin queue: a circular list of every tracked line,
	// threaded through lineState.next. tail is the position of the
	// line at the back of the queue; the front is lines.at(tail).next.
	// A pop advances tail one step (the popped line is now the back)
	// and a newly tracked line is linked in after tail, so the
	// scrubber cycles the whole population in the order a FIFO of
	// first-tracked lines would. Valid only while Patrol is on and a
	// line is tracked.
	tail uint32

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
		lines:     newLineTable(),
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
	_, ls := e.lines.find(blk)
	if ls != nil {
		e.updateFlips(ls, now)
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
		ls = e.track(blk)
	}
	e.generation++
	ls.writtenAt = now
	ls.mode = uint8(mode)
	ls.lastP = 0
	ls.rng = lineSeed(e.seed, blk, e.generation)
	ls.flips = uint16(binomial(&ls.rng, e.cfg.LineBits, e.cfg.ProgBitErrorProb))
}

// track adds blk to the table and, with patrol on, links it in at the
// back of the patrol queue.
func (e *Engine) track(blk uint64) *lineState {
	p, ls := e.lines.insert(blk)
	if e.cfg.Patrol {
		if p == 0 {
			ls.next = p
		} else {
			back := e.lines.at(e.tail)
			ls.next = back.next
			back.next = p
		}
		e.tail = p
	}
	return ls
}

// OnDemandRead classifies a demand read of addr completing at now and
// returns the ECC stall to add to its latency (zero for untracked lines
// and clean reads). It implements the memory controller's read-integrity
// hook.
func (e *Engine) OnDemandRead(addr uint64, now timing.Time) timing.Time {
	blk := addr &^ 63
	_, ls := e.lines.find(blk)
	if ls == nil {
		return 0
	}
	e.updateFlips(ls, now)
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
	if !e.cfg.Patrol {
		return
	}
	queued := min(e.lines.n, e.cfg.PatrolBatch)
	for i := 0; i < queued; i++ {
		e.tail = e.lines.at(e.tail).next
		ls := e.lines.at(e.tail)
		e.m.PatrolIssued++
		issue(ls.blk, pcm.WriteMode(ls.mode))
	}
}

// Finish classifies every still-tracked line once at the end of the
// measurement window, so errors latent in lines the workload never
// re-read are reported too. Per-line RNG streams make the totals
// independent of the order the lines are visited in.
func (e *Engine) Finish(now timing.Time) {
	for p := range e.lines.n {
		ls := e.lines.at(uint32(p))
		e.updateFlips(ls, now)
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
func (e *Engine) Tracked() int { return e.lines.n }
