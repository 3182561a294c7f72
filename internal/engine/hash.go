package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"rrmpcm/internal/cache"
	"rrmpcm/internal/core"
	"rrmpcm/internal/dram"
	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/reliability"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// hashVersion is mixed into every hash; bump it when the simulation's
// interpretation of a config changes, so stale disk-cache entries from
// older builds stop matching.
const hashVersion = "rrmpcm-config-v1"

// hashImage is the canonical serializable view of sim.Config used for
// hashing. It mirrors sim.Config field by field (a unit test enforces
// the correspondence by reflection). CheckRetention is always true: the
// retention checker is no longer optional, and the field stays so every
// existing hash is unchanged.
type hashImage struct {
	Device    pcm.DeviceConfig
	Hierarchy cache.HierarchyConfig
	Ctrl      memctrl.Config
	Scheme    schemeImage
	Workload  trace.Workload

	Duration           timing.Time
	Warmup             timing.Time
	TimeScale          float64
	Seed               uint64
	HitStallFactor     float64
	CheckRetention     bool
	CoreROB            int
	CoreMSHRs          int
	EquivalentDuration timing.Time

	// Reliability is present only when the model is enabled, so every
	// reliability-free config keeps its pre-reliability hash (and its
	// older cache entries stay valid).
	Reliability *reliability.Config `json:",omitempty"`

	// Sampling is present only for sampled runs (same omitempty pattern:
	// full-run hashes — and their cache entries — are unchanged, and a
	// sampled run can never alias the full run it approximates).
	Sampling *sim.SamplingSpec `json:",omitempty"`

	// Hybrid is present only when the DRAM staging tier is enabled (same
	// omitempty pattern: every PCM-only config keeps its pre-hybrid hash
	// and its run-cache entries stay valid).
	Hybrid *dram.HybridConfig `json:",omitempty"`
}

// schemeImage mirrors sim.Scheme.
type schemeImage struct {
	Kind       int
	StaticMode int
	RRM        core.RRMConfig
}

// ConfigHash returns the deterministic identity of a run configuration:
// the hex SHA-256 of its canonical JSON image. Two configs hash equal
// iff every simulation-relevant field matches, so a hash key can never
// alias two genuinely different runs.
func ConfigHash(cfg sim.Config) (string, error) {
	blob, err := json.Marshal(newHashImage(cfg))
	if err != nil {
		return "", fmt.Errorf("engine: hashing config: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(hashVersion))
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// newHashImage builds cfg's canonical image.
func newHashImage(cfg sim.Config) hashImage {
	img := hashImage{
		Device:    cfg.Device,
		Hierarchy: cfg.Hierarchy,
		Ctrl:      cfg.Ctrl,
		Scheme: schemeImage{
			Kind:       int(cfg.Scheme.Kind),
			StaticMode: int(cfg.Scheme.StaticMode),
			RRM:        cfg.Scheme.RRM,
		},
		Workload:           cfg.Workload,
		Duration:           cfg.Duration,
		Warmup:             cfg.Warmup,
		TimeScale:          cfg.TimeScale,
		Seed:               cfg.Seed,
		HitStallFactor:     cfg.HitStallFactor,
		CheckRetention:     true,
		CoreROB:            cfg.CoreROB,
		CoreMSHRs:          cfg.CoreMSHRs,
		EquivalentDuration: cfg.EquivalentDuration,
	}
	if cfg.Reliability.Enabled {
		rel := cfg.Reliability
		img.Reliability = &rel
	}
	if cfg.Sampling != nil {
		sp := *cfg.Sampling
		img.Sampling = &sp
	}
	if cfg.Hybrid != nil {
		hc := *cfg.Hybrid
		img.Hybrid = &hc
	}
	return img
}
