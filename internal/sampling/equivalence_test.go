package sampling

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rrmpcm/internal/sim"
	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// fastConfig is a small warmed-system config for the property tests.
func fastConfig(t *testing.T) sim.Config {
	t.Helper()
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(sim.RRMScheme(), w)
	cfg.Duration = 600 * timing.Microsecond
	cfg.Warmup = 200 * timing.Microsecond
	cfg.TimeScale = 1000
	cfg.Seed = 1
	return cfg
}

func warmed(t *testing.T, cfg sim.Config) *sim.System {
	t.Helper()
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// checksum returns a canonical checksum of sys's state: the snapshot is
// round-tripped through a restore into a fresh system first. Raw blobs
// embed event-queue sequence numbers, which count every event the queue
// ever scheduled — a donor that simulated its whole history and a fork
// restored from its snapshot dispatch identically but carry different
// raw seqs. Restore re-ranks them densely (timing.Rearm into a reset
// queue), so the re-snapshot is a path-independent encoding of state.
func checksum(t *testing.T, cfg sim.Config, sys *sim.System) uint64 {
	t.Helper()
	blob, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := canon.Restore(blob); err != nil {
		t.Fatal(err)
	}
	blob, err = canon.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snapshot.Checksum(blob)
}

// TestChunkedFastForwardEquivalence is the functional-equivalence
// property the sampler's snapshot placement rests on: fast-forwarding in
// chunks, snapshotting at the chunk boundaries, must land in bit-exactly
// the state one continuous fast-forward reaches — otherwise window forks
// would depend on how many windows precede them.
func TestChunkedFastForwardEquivalence(t *testing.T) {
	ctx := context.Background()
	cfg := fastConfig(t)
	span := 400 * timing.Microsecond

	cont := warmed(t, cfg)
	if err := cont.FastForward(ctx, span); err != nil {
		t.Fatal(err)
	}

	chunked := warmed(t, cfg)
	chunk := span / 4
	for i := 0; i < 4; i++ {
		if _, err := chunked.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := chunked.FastForward(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}

	if a, b := checksum(t, cfg, cont), checksum(t, cfg, chunked); a != b {
		t.Fatalf("chunked fast-forward diverged from continuous: %#x != %#x", a, b)
	}
}

// TestFastForwardRestoreEquivalence: restoring a mid-fast-forward
// snapshot into a fresh system and continuing must be bit-identical to
// the donor running straight through — snapshots taken during the
// sampling walk are pure serialization, not approximation.
func TestFastForwardRestoreEquivalence(t *testing.T) {
	ctx := context.Background()
	cfg := fastConfig(t)

	donor := warmed(t, cfg)
	if err := donor.FastForward(ctx, 200*timing.Microsecond); err != nil {
		t.Fatal(err)
	}
	blob, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.FastForward(ctx, 200*timing.Microsecond); err != nil {
		t.Fatal(err)
	}

	fork, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if err := fork.FastForward(ctx, 200*timing.Microsecond); err != nil {
		t.Fatal(err)
	}

	if a, b := checksum(t, cfg, donor), checksum(t, cfg, fork); a != b {
		t.Fatalf("restored fork diverged from donor: %#x != %#x", a, b)
	}
}

// TestSkipForwardEquivalence: the strided walk's skip phase must compose
// (two half-skips equal one full skip) and round-trip through a
// snapshot, including the parked-core state it leaves behind.
func TestSkipForwardEquivalence(t *testing.T) {
	ctx := context.Background()
	cfg := fastConfig(t)
	span := 300 * timing.Microsecond

	one := warmed(t, cfg)
	if err := one.SkipForward(ctx, span); err != nil {
		t.Fatal(err)
	}

	two := warmed(t, cfg)
	for i := 0; i < 2; i++ {
		if err := two.SkipForward(ctx, span/2); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := checksum(t, cfg, one), checksum(t, cfg, two); a != b {
		t.Fatalf("split skip diverged from single skip: %#x != %#x", a, b)
	}

	// Round-trip the parked state and re-warm both sides identically: a
	// fork restored from a post-skip snapshot must rejoin the donor's
	// trajectory once traffic resumes.
	blob, err := one.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*sim.System{one, fork} {
		if err := sys.FastForward(ctx, 100*timing.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := checksum(t, cfg, one), checksum(t, cfg, fork); a != b {
		t.Fatalf("post-skip fork diverged after re-warming: %#x != %#x", a, b)
	}
}

// TestSampledRunDeterministicAcrossParallelism: window results merge by
// index, so the full metrics document — means, intervals, every counter
// — must be byte-identical at any parallelism level. Forks start while
// the producer pass is still running, so at parallel > 1 the 8-window
// strided case restores and measures early windows concurrently with
// the skips and fast-forwards that produce later ones.
func TestSampledRunDeterministicAcrossParallelism(t *testing.T) {
	for _, tc := range []struct {
		name     string
		spec     sim.SamplingSpec
		parallel []int
	}{
		{"4-windows", sim.SamplingSpec{
			Windows:      4,
			Window:       25 * timing.Microsecond,
			DetailWarmup: 10 * timing.Microsecond,
		}, []int{2, 4, 8}},
		{"8-windows-stride-4", sim.SamplingSpec{
			Windows:      8,
			Window:       25 * timing.Microsecond,
			DetailWarmup: 10 * timing.Microsecond,
			FFStride:     4,
		}, []int{2, 3, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig(t)
			cfg.Sampling = &tc.spec
			run := func(parallel int) []byte {
				m, err := RunParallel(context.Background(), cfg, parallel)
				if err != nil {
					t.Fatalf("parallel=%d: %v", parallel, err)
				}
				blob, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			serial := run(1)
			for _, p := range tc.parallel {
				if got := run(p); !bytes.Equal(serial, got) {
					t.Fatalf("sampled metrics differ between parallel=1 and parallel=%d", p)
				}
			}
		})
	}
}

// pollCancelCtx counts the producer pass's polls of ctx.Err (the
// simulator polls once per run slice) and cancels itself on the at-th
// (never if at is 0). Window forks poll the same context, so polls are
// attributed by call stack; counting only the producer's places the
// cancellation at a fixed point of its pass at any parallelism.
type pollCancelCtx struct {
	context.Context
	cancel      context.CancelFunc
	at          int64
	polls       atomic.Int64
	cancelledAt atomic.Int64 // UnixNano of the cancel
}

func newPollCancelCtx(at int64) *pollCancelCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCancelCtx{Context: ctx, cancel: cancel, at: at}
}

func (c *pollCancelCtx) Err() error {
	if fromProducer() && c.polls.Add(1) == c.at {
		c.cancelledAt.Store(time.Now().UnixNano())
		c.cancel()
	}
	return c.Context.Err()
}

// fromProducer reports whether the caller runs inside the producer pass.
func fromProducer() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "sampling.produce") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestSampledRunCancelDuringProducer: cancelling the caller's context
// halfway through the producer pass — after some window forks have been
// launched, before the rest exist — must make RunParallel return the
// context's error promptly, without deadlocking on the producer's slot
// at parallel=1 and without leaking a fork goroutine.
func TestSampledRunCancelDuringProducer(t *testing.T) {
	cfg := fastConfig(t)
	cfg.Sampling = &sim.SamplingSpec{
		Windows:      8,
		Window:       25 * timing.Microsecond,
		DetailWarmup: 10 * timing.Microsecond,
		FFStride:     4,
	}
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			// An uncancelled run counts the producer's polls and sets
			// the time budget: a cancelled run must finish inside it.
			count := newPollCancelCtx(0)
			start := time.Now()
			if _, err := RunParallel(count, cfg, parallel); err != nil {
				t.Fatal(err)
			}
			full := time.Since(start)
			polls := count.polls.Load()
			if polls < 4 {
				t.Fatalf("producer polled its context %d times; too few to cancel mid-pass", polls)
			}

			baseline := runtime.NumGoroutine()
			ctx := newPollCancelCtx(polls / 2)
			done := make(chan error, 1)
			go func() {
				_, err := RunParallel(ctx, cfg, parallel)
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(full + 10*time.Second):
				t.Fatal("RunParallel did not return after cancellation (deadlock?)")
			}
			if ctx.cancelledAt.Load() == 0 {
				t.Fatal("run finished without reaching the cancellation point")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want the context's error", err)
			}
			if late := time.Since(time.Unix(0, ctx.cancelledAt.Load())); late > full {
				t.Errorf("returned %v after cancellation; a whole run takes %v", late, full)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the cancelled run, %d before", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestSampledRunStrided: a strided sampled run must complete, report
// every interval, and remain deterministic.
func TestSampledRunStrided(t *testing.T) {
	cfg := fastConfig(t)
	cfg.Sampling = &sim.SamplingSpec{
		Windows:      4,
		Window:       25 * timing.Microsecond,
		DetailWarmup: 10 * timing.Microsecond,
		FFStride:     4,
	}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sampling == nil {
		t.Fatal("strided run has no sampling report")
	}
	if a.Sampling.Coverage <= 0 {
		t.Error("strided run reports zero coverage")
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Fatal("strided sampled run is nondeterministic")
	}
}
