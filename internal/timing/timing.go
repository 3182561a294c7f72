// Package timing provides the simulator's notion of time and a
// deterministic discrete-event queue.
//
// All simulation time is kept as integer picoseconds (type Time). The
// simulated machine has two clock domains: a 2 GHz CPU clock (500 ps per
// cycle) and a 400 MHz memory clock (2500 ps per cycle); one memory cycle
// is exactly five CPU cycles, so both domains are exact in picoseconds.
package timing

import (
	"fmt"
	"math"
)

// Time is an absolute simulation time or a duration, in picoseconds.
// int64 picoseconds cover about 106 days of simulated time, far beyond the
// 5-second windows the experiments use.
type Time int64

// Common units, expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond

	// CPUCycle is one cycle of the 2 GHz core clock.
	CPUCycle Time = 500
	// MemCycle is one cycle of the 400 MHz memory clock.
	MemCycle Time = 2500
)

// Forever is a sentinel meaning "no deadline". It is far larger than any
// reachable simulation time but small enough that adding small offsets to
// it cannot overflow int64.
const Forever Time = 1 << 62

// Nanoseconds returns t as a float64 number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds returns t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// CPUCycles returns the number of whole CPU cycles in t.
func (t Time) CPUCycles() int64 { return int64(t / CPUCycle) }

// MemCycles returns the number of whole memory cycles in t.
func (t Time) MemCycles() int64 { return int64(t / MemCycle) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == math.MinInt64: // no positive counterpart to recurse on
		return fmt.Sprintf("%dps", int64(t))
	case t < 0:
		return fmt.Sprintf("-%s", -t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// Nanoseconds constructs a Time from a float64 nanosecond count, rounding
// to the nearest picosecond.
func Nanoseconds(ns float64) Time { return Time(ns*1000 + 0.5) }

// CPUCycles constructs a duration of n CPU cycles.
func CPUCycles(n int64) Time { return Time(n) * CPUCycle }

// MemCycles constructs a duration of n memory cycles.
func MemCycles(n int64) Time { return Time(n) * MemCycle }

// AlignUp rounds t up to the next multiple of quantum. A zero or negative
// quantum returns t unchanged.
func AlignUp(t, quantum Time) Time {
	if quantum <= 0 {
		return t
	}
	rem := t % quantum
	if rem == 0 {
		return t
	}
	return t + quantum - rem
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
