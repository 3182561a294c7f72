package engine

import (
	"testing"

	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// TestConfigHashPinned pins the ConfigHash of five representative
// configs. The hash addresses every run-cache entry and server job, so
// a refactor that shifts it silently orphans them; bump hashVersion
// (and these pins) only when a config's meaning changes.
func TestConfigHashPinned(t *testing.T) {
	gems, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	rrm := sim.DefaultConfig(sim.RRMScheme(), gems)

	rel := sim.DefaultConfig(sim.StaticScheme(pcm.Mode3SETs), gems)
	rel.Reliability.Enabled = true
	rel.Reliability.Patrol = true

	// Ablation A4's three-tier monitor; the paper's two-tier one omits
	// MidTiers, so its hash predates the field.
	tiered := sim.DefaultConfig(sim.RRMScheme(), gems)
	tiered.Scheme.RRM.MidTiers = []core.RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: 103 * timing.Second}}

	// A non-stationary workload pins trace.Workload's JSON image beyond
	// its Name and Cores.
	phase, err := trace.WorkloadByName("PHASE_1")
	if err != nil {
		t.Fatal(err)
	}
	dynamic := sim.DefaultConfig(sim.RRMScheme(), phase)

	sampled := sim.DefaultConfig(sim.RRMScheme(), gems)
	sampled.Sampling = &sim.SamplingSpec{Windows: 8, Window: 500 * timing.Microsecond,
		DetailWarmup: 250 * timing.Microsecond, FFStride: 4}

	for _, tc := range []struct {
		name string
		cfg  sim.Config
		want string
	}{
		{"rrm-GemsFDTD", rrm, "f3936995c57a89e07a01aac185b5bbf1665ef03850cd661f7077ce5685a98982"},
		{"static-3-reliability-patrol", rel, "0e2f7f689dea93034e8bdc93f6a49d89198201fd967c35c45de5d6d69aec77a7"},
		{"rrm-sampled", sampled, "02cd929e7a24a3d0707d2ebd0dfe40c32226dce16ce46e16a643f5d721dbb827"},
		{"rrm-7/5/3-GemsFDTD", tiered, "2fe027e9ea883224dd65ca1ccf70108334c2b9e60088d2ece84a880a855aeb6f"},
		{"rrm-PHASE_1", dynamic, "084fd30c1223c1b1d5e02b7c80fb9834c9483cedc9bbba95774f8f406b907cde"},
	} {
		got, err := ConfigHash(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: ConfigHash = %s, want %s", tc.name, got, tc.want)
		}
	}
}
