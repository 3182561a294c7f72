// Package sampling is the SMARTS-style interval-sampling executor: it
// runs one simulation as alternating functional fast-forward and
// detailed measurement windows instead of one contiguous detailed
// window, and reports per-metric means with confidence intervals.
//
// Execution shape: the parent system simulates the configured warmup in
// full detail, then walks the measured duration once, snapshotting at
// the start of each of the Windows equal segments and fast-forwarding
// (sim.System.FastForward: functional-only mode — caches, RRM tables,
// wear/retention/reliability state advance; FR-FCFS scheduling, event
// latencies and the reliability read path are skipped) between them.
// Each snapshot is restored into a fresh fork as soon as it is written,
// pre-rolled for DetailWarmup of detailed-but-discarded simulation to
// rebuild queue and row-buffer state, and measured for Window. Forks are
// independent systems, so windows execute in parallel with the rest of
// the producer pass and with each other, GOMAXPROCS at a time counting
// the producer; results merge by window index, so any parallelism level
// produces byte-identical metrics.
//
// The error model is the SMARTS one: window means are treated as i.i.d.
// samples of the run mean and summarized with two-sided 95% Student-t
// intervals, widened by a small relative floor (biasFloor) that accounts
// for the systematic component functional fast-forward introduces and
// between-window variance cannot see. internal/sampling/validate_test.go
// is the statistical proof-of-correctness harness: sampled estimates of
// every golden config must land inside their own reported intervals
// around the full-run golden values, and intervals must shrink as the
// window budget grows.
package sampling

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"rrmpcm/internal/sim"
	"rrmpcm/internal/stats"
	"rrmpcm/internal/timing"
)

// biasFloor is the minimum relative half-width of every reported
// interval. The Student-t term only measures between-window variance;
// the functional fast-forward's state approximation (no queueing during
// gaps) adds a small systematic error on top, empirically well under
// this floor for the shipped workloads (see DESIGN.md §15).
const biasFloor = 0.04

// Write-mode-mix intervals carry a larger allowance: the mix is decided
// by the policy's slowly-mixing hot-set state, which functional
// fast-forward approximates most coarsely, and its mean can sit near
// zero (cold workloads promote rarely), where bursty promotions are a
// rare-event sampling problem no relative floor covers. 30% relative
// plus 1.5 percentage points absolute bounds both, empirically with
// margin across the golden fixtures.
const (
	mixBiasFloor = 0.30
	mixAbsFloor  = 0.015
)

// Run executes cfg as a sampled run (cfg.Sampling must be set) with
// GOMAXPROCS-way window parallelism.
func Run(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
	return RunParallel(ctx, cfg, 0)
}

// RunParallel is Run with an explicit window-parallelism bound
// (<= 0 means GOMAXPROCS). The result is identical at any bound.
//
// The schedule is pipelined: window i's fork starts as soon as the
// producer pass has written snapshot i, not after the whole pass. The
// producer holds one of the parallel slots for its pass, so forks take
// the free slots while it runs and every slot once it ends; at
// parallel=1 the work runs in the serial order.
func RunParallel(ctx context.Context, cfg sim.Config, parallel int) (sim.Metrics, error) {
	sp := cfg.Sampling
	if sp == nil {
		return sim.Metrics{}, fmt.Errorf("sampling: config has no sampling spec")
	}
	sys, err := sim.New(cfg) // validates the sampling spec
	if err != nil {
		return sim.Metrics{}, err
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	ms := make([]sim.Metrics, sp.Windows)
	errs := make([]error, sp.Windows)
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	sem <- struct{}{} // the producer's slot
	err = produce(ctx, cfg, sys, func(i int, blob []byte) {
		wg.Add(1)
		// blob is an argument, not a capture, so it is garbage as soon
		// as the fork has restored it.
		go func(i int, blob []byte) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ms[i], errs[i] = measureWindow(ctx, cfg, blob)
		}(i, blob)
	})
	<-sem
	wg.Wait()
	if err != nil {
		return sim.Metrics{}, err
	}
	for i, err := range errs {
		if err != nil {
			return sim.Metrics{}, fmt.Errorf("sampling: window %d: %w", i, err)
		}
	}
	return aggregate(cfg, ms), nil
}

// produce is the snapshot-producing pass over sys, a fresh System for
// cfg: it simulates the configured warmup in full detail, then walks the
// measured duration once, handing each of the Windows segment-start
// snapshots to emit as soon as it is written. The caller drops sys
// afterwards, so it is garbage from then on.
func produce(ctx context.Context, cfg sim.Config, sys *sim.System, emit func(i int, blob []byte)) error {
	sp := cfg.Sampling
	if err := sys.Warmup(ctx); err != nil {
		return err
	}

	// One pass over the duration: snapshot each segment start, functional
	// fast-forward between them. The fast-forward after the last snapshot
	// would only advance state nothing measures, so it is skipped.
	//
	// Each gap opens with a calibration probe of DetailWarmup detailed
	// simulation (the exact stretch every window fork re-traces as its
	// pre-roll, so it costs no extra trajectory): its instruction rate is
	// the servo target, and the flat functional latency is scaled so the
	// previous gap's functional rate converges onto the detailed one —
	// without this the functional machine holds a fixed rate while write
	// backpressure slows the detailed machine, and the forked state walks
	// off the real trajectory on long runs. With a stride above 1 the
	// remainder of the gap is split skip-then-warm — cores parked for the
	// leading (stride-1)/stride while time-driven machinery runs, full
	// functional traffic for the trailing 1/stride — so every snapshot
	// still sits right behind freshly-warmed state.
	n := sp.Windows
	seg := cfg.Duration / timing.Time(n)
	probe := sp.DetailWarmup
	var lastFFRate float64
	for i := 0; i < n; i++ {
		blob, err := sys.Snapshot()
		if err != nil {
			return fmt.Errorf("sampling: window %d snapshot: %w", i, err)
		}
		emit(i, blob)
		if i == n-1 {
			break
		}
		gap := seg
		if probe > 0 {
			before := sys.Instructions()
			if err := sys.Advance(ctx, probe); err != nil {
				return fmt.Errorf("sampling: probe for window %d: %w", i+1, err)
			}
			detailRate := float64(sys.Instructions()-before) / probe.Seconds()
			if lastFFRate > 0 && detailRate > 0 {
				// Gentle servo: short probes are noisy, so small rate
				// mismatches sit in a deadband and large ones correct at
				// most 4/3x per gap — enough to track secular drift over a
				// long run without chasing probe noise into oscillation on
				// short ones.
				adjust := lastFFRate / detailRate
				if adjust < 0.75 {
					adjust = 0.75
				} else if adjust > 4.0/3 {
					adjust = 4.0 / 3
				}
				if adjust < 0.9 || adjust > 1.1 {
					sys.ScaleFunctionalLatency(adjust)
				}
			}
			gap -= probe
		}
		warm := gap / timing.Time(sp.Stride())
		if err := sys.SkipForward(ctx, gap-warm); err != nil {
			return fmt.Errorf("sampling: skip to window %d: %w", i+1, err)
		}
		if err := sys.FastForward(ctx, warm); err != nil {
			return fmt.Errorf("sampling: fast-forward to window %d: %w", i+1, err)
		}
		if r := sys.FunctionalRate(); r > 0 {
			lastFFRate = r
		}
	}
	return nil
}

// measureWindow forks one detailed measurement window from a snapshot.
func measureWindow(ctx context.Context, cfg sim.Config, blob []byte) (sim.Metrics, error) {
	if err := ctx.Err(); err != nil {
		// Cancelled while waiting for a slot: skip the build and restore.
		return sim.Metrics{}, err
	}
	fork, err := sim.New(cfg)
	if err != nil {
		return sim.Metrics{}, err
	}
	if err := fork.Restore(blob); err != nil {
		return sim.Metrics{}, err
	}
	return fork.MeasureWindow(ctx, cfg.Sampling.DetailWarmup, cfg.Sampling.Window)
}

// interval computes the report interval for one metric's window samples:
// the 95% Student-t interval widened to the relative bias floor.
func interval(samples []float64) stats.Interval {
	return stats.MeanCI95(samples).WidenRelative(biasFloor)
}

// mixInterval is interval for write-mode-mix fractions, with the larger
// mix bias allowance (see mixBiasFloor).
func mixInterval(samples []float64) stats.Interval {
	return stats.MeanCI95(samples).
		WidenRelative(mixBiasFloor).
		WidenAbsolute(mixAbsFloor)
}
