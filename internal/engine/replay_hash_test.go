package engine

import (
	"testing"

	"rrmpcm/internal/sim"
	"rrmpcm/internal/trace"
)

// TestConfigHashReplayDistinct: replay configs are content-addressed —
// the cache key must separate a generator run from a replay run that
// carries the same workload name, and any change to the trace set
// (path or content checksum) must change the key.
func TestConfigHashReplayDistinct(t *testing.T) {
	gen := testConfig(1)

	replayCfg := func() sim.Config {
		cfg := testConfig(1)
		cfg.Workload.Cores = nil
		cfg.Workload.Replay = []trace.TraceRef{
			{Path: "t/c0.rrmt", Sum: 0x1111},
			{Path: "t/c1.rrmt", Sum: 0x2222},
			{Path: "t/c2.rrmt", Sum: 0x3333},
			{Path: "t/c3.rrmt", Sum: 0x4444},
		}
		return cfg
	}

	hash := func(cfg sim.Config) string {
		t.Helper()
		h, err := ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	seen := map[string]string{hash(gen): "generator"}
	add := func(name string, cfg sim.Config) {
		h := hash(cfg)
		if prev, dup := seen[h]; dup {
			t.Errorf("%q hash collides with %q", name, prev)
		}
		seen[h] = name
	}

	base := replayCfg()
	add("replay", base)

	sum := replayCfg()
	sum.Workload.Replay[2].Sum++
	add("replay-other-sum", sum)

	path := replayCfg()
	path.Workload.Replay[0].Path = "t/other.rrmt"
	add("replay-other-path", path)

	dyn := testConfig(1)
	dyn.Workload.Dynamics = &trace.Dynamics{Phases: []trace.Phase{{Profile: "lbm", Ops: 100}}}
	add("dynamics", dyn)

	// Replay identity survives the warm-start keying too: the warmup
	// prefix of a replay run must not alias the generator's.
	wGen, ok, err := WarmKey(gen)
	if err != nil || !ok {
		t.Fatalf("WarmKey(generator) = %v, %v", ok, err)
	}
	wRep, ok, err := WarmKey(base)
	if err != nil || !ok {
		t.Fatalf("WarmKey(replay) = %v, %v", ok, err)
	}
	if wGen == wRep {
		t.Error("replay warm key aliases the generator's")
	}
}
