package sim

import (
	"context"
	"fmt"

	"rrmpcm/internal/stats"
	"rrmpcm/internal/timing"
)

// SamplingSpec configures SMARTS-style interval sampling of a run: the
// measured Duration is split into Windows equal segments, each segment
// contributes one detailed measurement window of length Window (preceded
// by DetailWarmup of detailed-but-discarded pre-roll that rebuilds queue
// and row-buffer state after a functional fast-forward), and the gaps
// between windows are fast-forwarded in functional-only mode. The
// executor lives in internal/sampling; this type lives here so it can
// ride on Config (and through the engine's config hash) without an
// import cycle.
//
// Error-vs-speed knob: more/longer windows shrink the confidence
// intervals and raise the detailed-coverage fraction
// Windows*(DetailWarmup+Window)/Duration, which is what bounds the
// speedup.
type SamplingSpec struct {
	// Windows is the number of detailed measurement windows (>= 2, so a
	// variance — and therefore a confidence interval — exists).
	Windows int `json:"windows"`
	// Window is the measured length of each detailed window.
	Window timing.Time `json:"window"`
	// DetailWarmup is detailed pre-roll simulated before each window's
	// measurement starts; its metrics are discarded.
	DetailWarmup timing.Time `json:"detail_warmup"`
	// FFStride thins the functional warming between windows: of each
	// inter-snapshot gap only the trailing 1/FFStride is fast-forwarded
	// with full functional traffic; the leading remainder is skipped with
	// the cores parked while event-driven machinery (RRM decay and
	// refreshes, patrol scrub, retention deadlines) still runs on true
	// simulated time. 0 and 1 both mean full warming. Values above 1
	// trade fidelity of slowly-evolving architectural state (cache
	// dirtiness, RRM heat) for speed; they are meant for long runs whose
	// state has reached steady state, where the per-window detailed
	// pre-roll rebuilds what the skip left stale.
	FFStride int `json:"ff_stride,omitempty"`
}

// Validate checks the spec against the run duration it will sample.
func (sp SamplingSpec) Validate(duration timing.Time) error {
	if sp.Windows < 2 {
		return fmt.Errorf("sim: sampling needs >= 2 windows (have %d)", sp.Windows)
	}
	if sp.Window <= 0 {
		return fmt.Errorf("sim: non-positive sampling window %v", sp.Window)
	}
	if sp.DetailWarmup < 0 {
		return fmt.Errorf("sim: negative sampling detail warmup %v", sp.DetailWarmup)
	}
	if sp.FFStride < 0 {
		return fmt.Errorf("sim: negative sampling fast-forward stride %d", sp.FFStride)
	}
	seg := duration / timing.Time(sp.Windows)
	if sp.DetailWarmup+sp.Window > seg {
		return fmt.Errorf("sim: sampling window %v + detail warmup %v exceed the %v segment (%v / %d windows)",
			sp.Window, sp.DetailWarmup, seg, duration, sp.Windows)
	}
	return nil
}

// Stride returns the effective fast-forward stride (>= 1).
func (sp SamplingSpec) Stride() int {
	if sp.FFStride < 2 {
		return 1
	}
	return sp.FFStride
}

// Coverage returns the detailed-simulation fraction of the duration.
func (sp SamplingSpec) Coverage(duration timing.Time) float64 {
	if duration <= 0 {
		return 0
	}
	return float64(sp.Windows) * float64(sp.DetailWarmup+sp.Window) / float64(duration)
}

// SamplingReport is the statistical summary attached to the metrics of a
// sampled run: per-metric means with two-sided Student-t confidence
// intervals over the window samples. Absent (nil) for full runs, so
// their metrics documents are unchanged.
type SamplingReport struct {
	Windows             int     `json:"windows"`
	WindowSeconds       float64 `json:"window_seconds"`
	DetailWarmupSeconds float64 `json:"detail_warmup_seconds"`
	// Coverage is the detailed fraction of the sampled duration.
	Coverage float64 `json:"coverage"`
	// Confidence is the two-sided confidence level of the intervals.
	Confidence float64 `json:"confidence"`

	IPC                stats.Interval `json:"ipc"`
	LLCMPKI            stats.Interval `json:"llc_mpki"`
	WearTotalRate      stats.Interval `json:"wear_total_rate"`
	LifetimeYears      stats.Interval `json:"lifetime_years"`
	ShortWriteFraction stats.Interval `json:"short_write_fraction"`
}

// FastForward advances a warmed system by span in functional-only mode:
// caches, write-policy state (RRM tables), wear, energy and retention
// deadlines all advance, but detailed timing — memory-controller
// scheduling, event-queue request latencies, reliability read-path
// inspection — is skipped. LLC misses charge a flat unloaded read
// latency, and memory writes and refreshes complete instantly at issue.
// The system stays warmed: FastForward can be interleaved with Snapshot
// to place measurement-window forks, and chunked fast-forwards compose
// exactly (FF(a) then FF(b) equals FF(a+b) bit for bit).
func (s *System) FastForward(ctx context.Context, span timing.Time) error {
	if s.phase != phaseWarm {
		return fmt.Errorf("sim: FastForward called on a %s system", s.phase)
	}
	if span < 0 {
		return fmt.Errorf("sim: negative fast-forward span %v", span)
	}
	if span == 0 {
		return nil
	}
	// Lift the stop horizon: fast-forward targets are chosen by the
	// sampler, not by cfg.Duration, and a core halted at a stale horizon
	// (cfg.Duration's, or a preceding SkipForward's) would never rearm.
	// Measure/MeasureWindow re-assert their own.
	now := s.eq.Now()
	for _, c := range s.cores {
		c.StopAt(timing.Forever)
		c.EnsureRunning(now)
	}
	s.functional = true
	defer func() { s.functional = false }()
	before := s.Instructions()
	err := s.runUntil(ctx, now+span)
	s.ffInsts, s.ffSpan = s.Instructions()-before, span
	return err
}

// Advance runs detailed simulation for span on a warmed system without
// measuring anything: the sampler's calibration probe, which observes the
// detailed machine's current instruction rate (via Instructions) so the
// functional fast-forward can be servoed to match it. The system stays
// warmed.
func (s *System) Advance(ctx context.Context, span timing.Time) error {
	if s.phase != phaseWarm {
		return fmt.Errorf("sim: Advance called on a %s system", s.phase)
	}
	if span < 0 {
		return fmt.Errorf("sim: negative advance span %v", span)
	}
	if span == 0 {
		return nil
	}
	now := s.eq.Now()
	for _, c := range s.cores {
		c.StopAt(timing.Forever)
		c.EnsureRunning(now)
	}
	return s.runUntil(ctx, now+span)
}

// Instructions returns the total instructions retired across all cores.
func (s *System) Instructions() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.Stats().Instructions
	}
	return n
}

// FunctionalRate returns instructions per simulated second executed
// during the most recent FastForward, or 0 before the first one.
func (s *System) FunctionalRate() float64 {
	if s.ffSpan <= 0 {
		return 0
	}
	return float64(s.ffInsts) / s.ffSpan.Seconds()
}

// ScaleFunctionalLatency multiplies the flat per-miss latency charged in
// functional mode by factor, clamped to [1/8, 16]x the configured base.
// The sampler's feedback loop uses it to keep the functional machine's
// instruction rate on the detailed machine's trajectory as the workload
// drifts (write backpressure and policy demotion slow the detailed
// machine in ways a fixed flat latency cannot track).
func (s *System) ScaleFunctionalLatency(factor float64) {
	lat := timing.Time(float64(s.backend.flatReadLat) * factor)
	if min := s.backend.flatBase / 8; lat < min {
		lat = min
	}
	if max := s.backend.flatBase * 16; lat > max {
		lat = max
	}
	s.backend.flatReadLat = lat
}

// SkipForward advances a warmed system by span with the cores parked: no
// instructions execute and no demand traffic reaches the caches, but the
// event queue still runs in functional mode, so time-driven machinery —
// RRM decay ticks and refreshes, patrol scrub, retention deadlines, and
// the drain of any in-flight requests — advances on true simulated time.
// It is the cheap half of a strided fast-forward (SamplingSpec.FFStride):
// architectural state freezes, retention state does not.
func (s *System) SkipForward(ctx context.Context, span timing.Time) error {
	if s.phase != phaseWarm {
		return fmt.Errorf("sim: SkipForward called on a %s system", s.phase)
	}
	if span < 0 {
		return fmt.Errorf("sim: negative skip span %v", span)
	}
	if span == 0 {
		return nil
	}
	// Park every core at the current horizon: an armed step fires, sees
	// the horizon and returns without rearming. A later FastForward or
	// MeasureWindow re-arms via EnsureRunning.
	now := s.eq.Now()
	for _, c := range s.cores {
		c.StopAt(now)
	}
	// Heat decay models traffic recency; with the write stream paused it
	// must pause too, or the skip would demote every hot region the
	// windows depend on. Retention and patrol timers keep running — they
	// track real deadlines, which is the point of skipping on true time.
	if s.rrm != nil {
		s.rrm.SuspendDecay(true)
		defer s.rrm.SuspendDecay(false)
	}
	s.functional = true
	defer func() { s.functional = false }()
	return s.runUntil(ctx, now+span)
}

// MeasureWindow measures one detailed sampling window of a warmed
// system: preroll of detailed simulation is run and discarded (it
// rebuilds the timing state a functional fast-forward does not track),
// then window is measured and collected exactly like Measure's full
// Duration. Like Measure, it consumes the system.
func (s *System) MeasureWindow(ctx context.Context, preroll, window timing.Time) (Metrics, error) {
	if s.phase != phaseWarm {
		return Metrics{}, fmt.Errorf("sim: MeasureWindow called on a %s system", s.phase)
	}
	if window <= 0 {
		return Metrics{}, fmt.Errorf("sim: non-positive measurement window %v", window)
	}
	if preroll < 0 {
		return Metrics{}, fmt.Errorf("sim: negative detail warmup %v", preroll)
	}
	now := s.eq.Now()
	end := now + preroll + window
	for _, c := range s.cores {
		c.StopAt(end)
		// A fork restored from a snapshot taken after a SkipForward has
		// its cores parked (no armed step to re-create); wake them.
		c.EnsureRunning(now)
	}
	if err := s.runUntil(ctx, end-window); err != nil {
		return Metrics{}, err
	}
	s.captureBaseline()
	return s.finishMeasure(ctx, end, window)
}
