package reliability

import (
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// FuzzReliabilityConfig fuzzes Config.Validate and, for every config it
// accepts, drives a full engine lifecycle: Validate must never panic,
// and a validated config must never produce a panicking engine, a
// negative stall, or flip counts past the line width.
func FuzzReliabilityConfig(f *testing.F) {
	d := DefaultConfig()
	f.Add(true, d.ECCBits, d.LineBits, d.ProgBitErrorProb, int64(d.ECCLatency), false, int64(d.PatrolInterval), d.PatrolBatch, uint64(1))
	f.Add(true, 0, 1, 0.0, int64(0), true, int64(timing.Microsecond), 1, uint64(7))
	f.Add(true, 512, 512, 0.99, int64(timing.Second), true, int64(1), 1<<20, uint64(0))
	f.Add(false, -1, -1, -1.0, int64(-1), true, int64(-1), -1, uint64(42))
	f.Add(true, 4, 65536, 0.5, int64(timing.Nanosecond), false, int64(0), 0, uint64(3))
	f.Fuzz(func(t *testing.T, enabled bool, eccBits, lineBits int, prob float64, latency int64, patrol bool, interval int64, batch int, seed uint64) {
		cfg := Config{
			Enabled:          enabled,
			ECCBits:          eccBits,
			LineBits:         lineBits,
			ProgBitErrorProb: prob,
			ECCLatency:       timing.Time(latency),
			Patrol:           patrol,
			PatrolInterval:   timing.Time(interval),
			PatrolBatch:      batch,
		}
		if err := cfg.Validate(); err != nil || !cfg.Enabled {
			return // rejected or disabled: nothing to drive
		}
		e := New(cfg, pcm.DefaultDriftTable(), 1500, 1, seed)
		modes := pcm.Modes()
		for i := uint64(0); i < 64; i++ {
			now := timing.Time(i) * timing.Millisecond
			e.OnWrite(i<<6, modes[i%uint64(len(modes))], pcm.WearDemandWrite, now)
			if stall := e.OnDemandRead((i/2)<<6, now+timing.Microsecond); stall < 0 {
				t.Fatalf("negative ECC stall %v", stall)
			}
		}
		if cfg.Patrol {
			e.Patrol(func(addr uint64, mode pcm.WriteMode) {
				e.OnWrite(addr, mode, pcm.WearSlowRefresh, 100*timing.Millisecond)
			})
		}
		e.Finish(200 * timing.Millisecond)
		m := e.Metrics()
		if m.ReadsChecked != m.CleanReads+m.CorrectedReads+m.UncorrectableReads {
			t.Fatalf("read classification does not partition: %+v", m)
		}
		if m.SweepLines != uint64(e.Tracked()) {
			t.Fatalf("sweep covered %d of %d tracked lines", m.SweepLines, e.Tracked())
		}
		for p := range e.Tracked() {
			if ls := e.lines.at(uint32(p)); int(ls.flips) > cfg.LineBits {
				t.Fatalf("line accumulated %d flips on a %d-bit line", ls.flips, cfg.LineBits)
			}
		}
	})
}
