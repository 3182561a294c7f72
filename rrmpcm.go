// Package rrmpcm is a simulation library for studying the write-latency
// vs. retention trade-off of Multi-Level-Cell Phase Change Memory main
// memories, built around a from-scratch reproduction of
//
//	"Balancing Performance and Lifetime of MLC PCM by Using a Region
//	 Retention Monitor" (Zhang, Zhang, Jiang, Liu, Chong — HPCA 2017).
//
// The library contains every substrate the paper's evaluation needs: the
// MLC PCM cell model (resistance drift, guardbands, the Table I write
// modes), an 8 GB channel/bank device model, a memory controller with
// priority queues, FR-FCFS open-page scheduling, write-queue drain
// watermarks and Write Pausing, a three-level cache hierarchy with LLC
// write registration, first-order out-of-order cores, synthetic
// SPEC-2006-like workload generators, and — the paper's contribution —
// the Region Retention Monitor plus the Static-N-SETs baselines.
//
// # Quick start
//
//	w, _ := rrmpcm.WorkloadByName("GemsFDTD")
//	m, err := rrmpcm.Run(rrmpcm.DefaultConfig(rrmpcm.RRMScheme(), w))
//	if err != nil { ... }
//	fmt.Printf("IPC %.2f, lifetime %.1f years\n", m.IPC, m.LifetimeYears)
//
// Compare against a baseline by swapping the scheme:
//
//	m7, _ := rrmpcm.Run(rrmpcm.DefaultConfig(rrmpcm.StaticScheme(rrmpcm.Mode7SETs), w))
//
// The exported names are aliases into the implementation packages, so
// everything documented there applies here unchanged.
package rrmpcm

import (
	"context"

	"rrmpcm/internal/cache"
	"rrmpcm/internal/core"
	"rrmpcm/internal/dram"
	"rrmpcm/internal/engine"
	"rrmpcm/internal/experiments"
	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/reliability"
	"rrmpcm/internal/sampling"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/stats"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// Time is simulation time in integer picoseconds.
type Time = timing.Time

// Common time units.
const (
	Nanosecond  = timing.Nanosecond
	Microsecond = timing.Microsecond
	Millisecond = timing.Millisecond
	Second      = timing.Second
)

// WriteMode is an MLC PCM write scheme, identified by its SET-iteration
// count (Table I of the paper).
type WriteMode = pcm.WriteMode

// The five write modes of Table I.
const (
	Mode3SETs = pcm.Mode3SETs
	Mode4SETs = pcm.Mode4SETs
	Mode5SETs = pcm.Mode5SETs
	Mode6SETs = pcm.Mode6SETs
	Mode7SETs = pcm.Mode7SETs
)

// Modes lists all write modes from fastest to slowest.
func Modes() []WriteMode { return pcm.Modes() }

// ModeSpec is one Table I row; Spec returns it for a mode.
type ModeSpec = pcm.ModeSpec

// Spec returns the Table I parameters of a write mode.
func Spec(m WriteMode) ModeSpec { return pcm.Spec(m) }

// DriftModel derives retention times from the resistance-drift law.
type DriftModel = pcm.DriftModel

// DefaultDriftModel returns the calibrated drift model that reproduces
// Table I.
func DefaultDriftModel() DriftModel { return pcm.DefaultDriftModel() }

// DeviceConfig is the PCM memory geometry (Table V).
type DeviceConfig = pcm.DeviceConfig

// DefaultDeviceConfig returns the paper's 8 GB, 4-channel, 16-bank
// device.
func DefaultDeviceConfig() DeviceConfig { return pcm.DefaultDeviceConfig() }

// HierarchyConfig sizes the cache hierarchy (Table IV).
type HierarchyConfig = cache.HierarchyConfig

// DefaultHierarchyConfig returns the Table IV caches.
func DefaultHierarchyConfig() HierarchyConfig { return cache.DefaultHierarchyConfig() }

// ControllerConfig is the memory-controller configuration (Table V).
type ControllerConfig = memctrl.Config

// DefaultControllerConfig returns the Table V controller.
func DefaultControllerConfig() ControllerConfig { return memctrl.DefaultConfig() }

// RRMConfig sizes the Region Retention Monitor (Table IV / §IV).
type RRMConfig = core.RRMConfig

// RRMTier is one intermediate write tier of a graded monitor
// (RRMConfig.MidTiers; ablation A4).
type RRMTier = core.RRMTier

// DefaultRRMConfig returns the paper's RRM: 256 sets x 24 ways, 4 KB
// regions, hot_threshold 16, 96 KB of storage.
func DefaultRRMConfig() RRMConfig { return core.DefaultRRMConfig() }

// RRMStats are the monitor's internal counters.
type RRMStats = core.Stats

// Profile parameterizes one synthetic benchmark; Workload assigns one
// profile per core.
type (
	Profile  = trace.Profile
	Workload = trace.Workload
)

// Profiles returns the nine calibrated Table VII benchmarks.
func Profiles() []Profile { return trace.Profiles() }

// Workloads returns the paper's eleven workloads (nine 4-copy single
// benchmarks plus MIX_1 and MIX_2).
func Workloads() []Workload { return trace.Workloads() }

// WorkloadByName finds a workload by benchmark or mix name.
func WorkloadByName(name string) (Workload, error) { return trace.WorkloadByName(name) }

// PaperMPKI returns Table VII's published LLC MPKI values.
func PaperMPKI() map[string]float64 { return trace.PaperMPKI() }

// Scheme selects the write policy of a run; Config describes the run;
// Metrics is its result.
type (
	Scheme  = sim.Scheme
	Config  = sim.Config
	Metrics = sim.Metrics
)

// SchemeKind discriminates Scheme variants.
type SchemeKind = sim.SchemeKind

// Scheme kinds.
const (
	SchemeStatic = sim.SchemeStatic
	SchemeRRM    = sim.SchemeRRM
)

// StaticScheme returns the Static-N-SETs baseline for mode (Table VI).
func StaticScheme(mode WriteMode) Scheme { return sim.StaticScheme(mode) }

// RRMScheme returns the default-configured Region Retention Monitor
// scheme.
func RRMScheme() Scheme { return sim.RRMScheme() }

// RRMSchemeWith returns an RRM scheme with a custom monitor
// configuration (paper constants; the simulator applies TimeScale).
func RRMSchemeWith(cfg RRMConfig) Scheme {
	return Scheme{Kind: sim.SchemeRRM, RRM: cfg}
}

// ReliabilityConfig parameterizes the drift-fault injector, the t-bit
// ECC model and the scrubber (Config.Reliability; disabled by default).
type ReliabilityConfig = reliability.Config

// DefaultReliabilityConfig returns the reference reliability model —
// 4-bit-correcting ECC per 64 B line, 1e-5 programming bit-error rate,
// 25 ns correction stall — with Enabled still false; set
// Config.Reliability = cfg with cfg.Enabled = true to turn it on.
func DefaultReliabilityConfig() ReliabilityConfig { return reliability.DefaultConfig() }

// ReliabilityMetrics is the error-injection/ECC/scrubbing section of
// Metrics (Metrics.Reliability, non-nil only when the model ran).
type ReliabilityMetrics = reliability.Metrics

// DefaultConfig returns the Tables IV/V system around a scheme and
// workload, with fast-run simulation settings (40 ms measured window,
// retention clock accelerated 100x; see the sim package comment for why
// this preserves the paper's rates).
func DefaultConfig(scheme Scheme, w Workload) Config { return sim.DefaultConfig(scheme, w) }

// Run assembles the configured system, simulates it, and returns the
// collected metrics.
func Run(cfg Config) (Metrics, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return sys.Run()
}

// RunContext is Run with cooperative cancellation: a cancelled or
// timed-out context stops the simulation mid-window with the context's
// error. The parallel experiment engine (internal/engine, surfaced as
// cmd/experiments -parallel and cmd/rrmsim -parallel) uses this to bound
// and interrupt fanned-out runs.
func RunContext(ctx context.Context, cfg Config) (Metrics, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return sys.RunContext(ctx)
}

// ConfigHash returns the deterministic identity of a run configuration
// (hex SHA-256 of its canonical serialized image) — the key the
// experiment engine's disk-backed run cache files results under.
func ConfigHash(cfg Config) (string, error) { return engine.ConfigHash(cfg) }

// SamplingSpec configures SMARTS-style interval sampling of a run
// (Config.Sampling): the measured duration becomes alternating
// functional fast-forward and detailed measurement windows, and the
// result's Metrics carry confidence intervals. SamplingReport is that
// interval summary (Metrics.Sampling, non-nil only for sampled runs).
type (
	SamplingSpec   = sim.SamplingSpec
	SamplingReport = sim.SamplingReport
)

// HybridConfig enables the hybrid DRAM–PCM tier (Config.Hybrid; nil =
// PCM-only): a DRAM staging array (DRAMDeviceConfig) plus the hot-page
// migration engine (MigrationConfig) in front of the PCM.
// HybridMetrics is the per-tier and migration-traffic breakdown of a
// hybrid run (Metrics.Hybrid, non-nil only when the tier is enabled).
type (
	HybridConfig     = dram.HybridConfig
	DRAMDeviceConfig = dram.DeviceConfig
	MigrationConfig  = dram.MigrationConfig
	HybridMetrics    = sim.HybridMetrics
)

// Hot-page promotion policies (MigrationConfig.Policy).
const (
	PolicyWriteCount = dram.PolicyWriteCount
	PolicyRecency    = dram.PolicyRecency
)

// DefaultHybridConfig returns a 64 MB DDR3-class staging tier with
// MigrantStore-style write-count promotion and batched demotion.
func DefaultHybridConfig() HybridConfig { return dram.DefaultHybridConfig() }

// RunSampled executes cfg as an interval-sampled run (cfg.Sampling must
// be set): one serial warmup-and-snapshot pass, then the detailed
// windows fork and measure in parallel across GOMAXPROCS goroutines.
// Results are byte-identical at any parallelism level.
func RunSampled(ctx context.Context, cfg Config) (Metrics, error) {
	return sampling.Run(ctx, cfg)
}

// Geomean returns the geometric mean of positive values (the paper's
// cross-workload summary statistic).
func Geomean(values []float64) float64 { return stats.Geomean(values) }

// LifetimeYears converts a sustained block-write rate into device
// lifetime under the Table V endurance and wear-leveling assumptions.
func LifetimeYears(dev DeviceConfig, wearPerSecond float64) float64 {
	return stats.LifetimeYears(dev, wearPerSecond)
}

// WriteIntervalTable runs a workload through the cache hierarchy with no
// memory timing and returns the Table III-style region write-interval
// histogram (text table) plus the fraction of writes landing in the
// hottest 2 % of regions — the observation that motivates the RRM.
// The window is instruction time (see examples/hotcold).
func WriteIntervalTable(w Workload, window Time, seed uint64) (table string, hotShare float64, err error) {
	hist, err := experiments.WriteIntervalHistogram(w, window, seed)
	if err != nil {
		return "", 0, err
	}
	return experiments.FormatIntervalHistogram(hist), hist.HotShare(0.02), nil
}

// Op is one generator work unit: NonMem non-memory instructions followed
// by a memory access.
type Op = trace.Op

// Mixture is the synthetic benchmark generator.
type Mixture = trace.Mixture

// NewMixture builds a generator for one benchmark copy over the address
// partition [base, base+span).
func NewMixture(p Profile, base, span, seed uint64) (*Mixture, error) {
	return trace.NewMixture(p, base, span, seed)
}

// Stream is the per-core workload source the simulator drives: a
// deterministic generator plus core-model parameters and snapshot
// hooks. Mixture and Dynamic (non-stationary) implement it.
type Stream = trace.Stream

// Dynamics declares a workload's non-stationary behavior: program
// phases, diurnal load modulation and bursty (on/off) arrivals
// (Workload.Dynamics; nil = stationary).
type (
	Dynamics = trace.Dynamics
	Phase    = trace.Phase
	Diurnal  = trace.Diurnal
	Burst    = trace.Burst
)

// DynamicWorkloads returns the non-stationary reference workloads
// (phase-changing, bursty, diurnal) used by the phases experiment.
func DynamicWorkloads() []Workload { return trace.DynamicWorkloads() }

// NewStream builds core i's generator for a synthetic workload over the
// address partition [base, base+span) using the simulator's per-core
// seeding rule.
func NewStream(w Workload, i int, base, span, seed uint64) (Stream, error) {
	return trace.NewStream(w, i, base, span, seed)
}

// CorePartition returns core i's address partition when n streams split
// memBytes evenly.
func CorePartition(memBytes uint64, n, core int) (base, span uint64) {
	return trace.CorePartition(memBytes, n, core)
}
