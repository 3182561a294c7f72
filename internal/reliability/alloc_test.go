//go:build !race

package reliability

import (
	"runtime"
	"testing"
	"unsafe"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// TestReadPathAllocs pins the demand-read hot path — table lookup, drift
// update with a binomial draw, ECC classification — at zero steady-state
// allocations: the lookup hands back a pointer into a fixed chunk and
// the state is updated in place. (Skipped under -race: the detector's
// instrumentation allocates.)
func TestReadPathAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enabled = true
	e := New(cfg, pcm.DefaultDriftTable(), 1500, 1, 7)
	const lines = 4096
	for i := uint64(0); i < lines; i++ {
		e.OnWrite(i<<6, pcm.Mode3SETs, pcm.WearDemandWrite, timing.Time(i))
	}

	now := 10 * timing.Millisecond
	i := uint64(0)
	avg := testing.AllocsPerRun(200, func() {
		for n := 0; n < 1000; n++ {
			i = (i + 1) % lines
			e.OnDemandRead(i<<6, now)
			now += timing.Nanosecond
		}
	})
	if avg > 0.5 {
		t.Errorf("read path allocates %.2f per 1000 reads, want 0", avg)
	}

	// Rewrites of tracked lines are also steady-state (no table growth).
	avg = testing.AllocsPerRun(200, func() {
		for n := 0; n < 1000; n++ {
			i = (i + 1) % lines
			e.OnWrite(i<<6, pcm.Mode3SETs, pcm.WearDemandWrite, now)
			now += timing.Nanosecond
		}
	})
	if avg > 0.5 {
		t.Errorf("rewrite path allocates %.2f per 1000 writes, want 0", avg)
	}
}

// static3RelLines is the number of lines the static3-rel benchmark
// workload (Static-3 GemsFDTD, reliability and patrol on, 2 + 5 ms)
// ends with tracked.
const static3RelLines = 145_838

// TestTrackedLineFootprint pins the heap cost of a tracked line: a
// 40-byte entry plus its share of the 5-byte index slots, at most 64 B
// per line after a forced GC at the static3-rel population.
func TestTrackedLineFootprint(t *testing.T) {
	if got := unsafe.Sizeof(lineState{}); got != 40 {
		t.Errorf("lineState is %d bytes, want 40", got)
	}
	cfg := DefaultConfig()
	cfg.Enabled = true
	cfg.Patrol = true
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := New(cfg, pcm.DefaultDriftTable(), 1500, 1, 7)
	for i := uint64(0); i < static3RelLines; i++ {
		e.OnWrite(mix64(i)&^63, pcm.Mode3SETs, pcm.WearDemandWrite, timing.Time(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if e.Tracked() != static3RelLines {
		t.Fatalf("tracked %d lines, want %d", e.Tracked(), static3RelLines)
	}
	runtime.KeepAlive(e)
	perLine := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / static3RelLines
	t.Logf("%.1f B of heap per tracked line", perLine)
	if perLine > 64 {
		t.Errorf("tracked lines cost %.1f B of heap each, want <= 64", perLine)
	}
}

// BenchmarkReliabilityReadPath measures the per-read overhead of the
// fault model at steady state. tracked-4096: every read hits one of
// 4,096 tracked lines (no error), a table that stays in the host cache.
// static3-mix: 145,838 lines tracked at scattered addresses and 86 % of
// reads to untracked lines, the mix of the static3-rel workload, where
// the table outgrows the host cache and most lookups are negative.
func BenchmarkReliabilityReadPath(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Enabled = true
	b.Run("tracked-4096", func(b *testing.B) {
		e := New(cfg, pcm.DefaultDriftTable(), 1500, 1, 7)
		const lines = 4096
		for i := uint64(0); i < lines; i++ {
			e.OnWrite(i<<6, pcm.Mode3SETs, pcm.WearDemandWrite, timing.Time(i))
		}
		now := timing.Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			e.OnDemandRead(uint64(n%lines)<<6, now)
			now += timing.Nanosecond
		}
	})
	b.Run("static3-mix", func(b *testing.B) {
		e := New(cfg, pcm.DefaultDriftTable(), 1500, 1, 7)
		addr := func(i uint64) uint64 { return mix64(i) & (1<<40 - 64) }
		for i := uint64(0); i < static3RelLines; i++ {
			e.OnWrite(addr(i), pcm.Mode3SETs, pcm.WearDemandWrite, timing.Time(i))
		}
		// 51,477 of 359,349 static3-rel demand reads hit a tracked line.
		reads := make([]uint64, 1<<18)
		state := uint64(1)
		for i := range reads {
			r := nextRand(&state)
			if r%359_349 < 51_477 {
				reads[i] = addr(r % static3RelLines)
			} else {
				reads[i] = addr(static3RelLines + r>>20)
			}
		}
		now := timing.Millisecond
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			e.OnDemandRead(reads[n&(len(reads)-1)], now)
			now += timing.Nanosecond
		}
	})
}
