package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// TestSnapshotBytesPinned pins the sha256 of a warmed System's snapshot
// for one RRM and one reliability configuration. Snapshot bytes are part
// of the behaviour contract: warm-start cache entries and sampled forks
// key on them, so a change of host layout (say, how the RRM table or a
// cache set is stored) must leave them identical. A deliberate format
// change bumps sysSnapVersion and re-pins these sums.
func TestSnapshotBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"rrm-GemsFDTD", func() Config {
			w, _ := trace.WorkloadByName("GemsFDTD")
			return DefaultConfig(RRMScheme(), w)
		}, "9fbb373043734142bd9cd8a0f0022798006958215a5ca33b5a841e548925ec34"},
		{"static-3-GemsFDTD-reliability-patrol", func() Config {
			w, _ := trace.WorkloadByName("GemsFDTD")
			cfg := DefaultConfig(StaticScheme(pcm.Mode3SETs), w)
			cfg.Reliability.Enabled = true
			cfg.Reliability.Patrol = true
			return cfg
		}, "0eca2d49268effa2a4c021b29fc71640f144d02708bd3f0676622636a9fc58c8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.Seed = 1
			cfg.Warmup = 2 * timing.Millisecond
			cfg.Duration = 2 * timing.Millisecond
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Warmup(context.Background()); err != nil {
				t.Fatal(err)
			}
			if r := sys.RRM(); r != nil {
				// The pin covers the RRM table only if it holds hot
				// entries with short-retention bits and live timers.
				if hot, blocks := r.HotEntries(); hot == 0 || blocks == 0 {
					t.Fatalf("warmed RRM holds %d hot entries, %d short blocks", hot, blocks)
				}
			}
			blob, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("snapshot sha256 = %s (%d bytes), want %s", got, len(blob), c.want)
			}
		})
	}
}
