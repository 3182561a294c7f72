// Package reliability models what a missed retention deadline actually
// does to data: it injects drift-induced soft bit errors per memory
// line using the Ielmini drift law (internal/pcm), corrects them with a
// configurable t-bit ECC budget on every demand read, and clears the
// accumulated error state whenever the line is rewritten — by a demand
// write, an RRM/slow refresh, or the optional background patrol scrub.
//
// The model is fully deterministic: every line carries its own
// SplitMix64 stream seeded from the run's reliability seed, the line
// address and a write-generation counter, so bit-flip samples never
// depend on event interleaving or on the order lines are visited in,
// and fixed-seed runs report bit-identical error metrics at any
// parallelism level.
//
// # Time scaling
//
// The simulator accelerates the retention clock by TimeScale (see
// internal/sim); the fault injector converts a line's simulated age
// back to real seconds before asking the drift law for its bit-error
// probability, so injected error rates are real rates regardless of the
// acceleration factor.
package reliability

import (
	"fmt"

	"rrmpcm/internal/timing"
)

// Config parameterizes the reliability model of one run. The zero value
// is "disabled"; DefaultConfig returns the documented defaults with the
// model still disabled — enabling is always an explicit choice because
// the fault injector perturbs read latency (ECC correction stalls).
type Config struct {
	// Enabled turns the whole subsystem on.
	Enabled bool

	// ECCBits is t, the number of correctable bit errors per line
	// (BCH-style budget). Reads with 1..t flipped bits are corrected,
	// t+1 or more are uncorrectable.
	ECCBits int

	// LineBits is the protected payload size in bits (512 for the 64 B
	// memory line of the modeled system).
	LineBits int

	// ProgBitErrorProb is the per-bit probability that the
	// program-and-verify loop leaves a bit wrong at write time (hard
	// tail of the programmed distribution plus write noise).
	ProgBitErrorProb float64

	// ECCLatency is the correction stall added to a demand read that
	// found flipped bits (clean reads decode in the pipelined datapath
	// and pay nothing).
	ECCLatency timing.Time

	// Patrol enables the background patrol scrubber: every
	// PatrolInterval of real time it rewrites up to PatrolBatch tracked
	// lines in deterministic round-robin order.
	Patrol bool

	// PatrolInterval is the real-time period between patrol batches
	// (the simulator divides it by TimeScale like every other
	// retention-clock interval).
	PatrolInterval timing.Time

	// PatrolBatch is the number of lines rewritten per patrol tick.
	PatrolBatch int
}

// DefaultConfig returns the calibrated defaults (t=4 over a 512-bit
// line, 1e-5 programming BER, 25 ns correction stall, patrol off), with
// Enabled still false.
func DefaultConfig() Config {
	return Config{
		ECCBits:          4,
		LineBits:         512,
		ProgBitErrorProb: 1e-5,
		ECCLatency:       25 * timing.Nanosecond,
		PatrolInterval:   100 * timing.Millisecond,
		PatrolBatch:      64,
	}
}

// Validate checks the configuration. A disabled config is always valid
// (its other fields are never read).
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.ECCBits < 0 {
		return fmt.Errorf("reliability: negative ECC budget %d", c.ECCBits)
	}
	if c.LineBits <= 0 || c.LineBits > 1<<16 {
		return fmt.Errorf("reliability: line size %d bits out of (0, 65536]", c.LineBits)
	}
	if c.ECCBits > c.LineBits {
		return fmt.Errorf("reliability: ECC budget %d exceeds line size %d", c.ECCBits, c.LineBits)
	}
	if !(c.ProgBitErrorProb >= 0 && c.ProgBitErrorProb < 1) { // negated so NaN fails too
		return fmt.Errorf("reliability: ProgBitErrorProb %v out of [0, 1)", c.ProgBitErrorProb)
	}
	if c.ECCLatency < 0 {
		return fmt.Errorf("reliability: negative ECC latency %v", c.ECCLatency)
	}
	if c.Patrol {
		if c.PatrolInterval <= 0 {
			return fmt.Errorf("reliability: non-positive patrol interval %v", c.PatrolInterval)
		}
		if c.PatrolBatch <= 0 {
			return fmt.Errorf("reliability: non-positive patrol batch %d", c.PatrolBatch)
		}
	}
	return nil
}
