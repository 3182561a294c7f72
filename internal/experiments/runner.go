// Package experiments regenerates every table and figure of the paper's
// evaluation (the experiment index in DESIGN.md §5). Each experiment is a
// function from Options to a formatted text table; cmd/experiments runs
// them from the command line and bench_test.go exposes quick variants as
// benchmarks.
//
// Experiments that share simulation runs (Figures 2-4 and 7-10 all view
// the same scheme x workload matrix) share them through a Runner cache,
// so the full suite costs one pass over the matrix. The Runner submits
// its runs as batches to the internal/engine worker pool, so independent
// simulations execute in parallel while every table stays byte-identical
// at any parallelism level (results are merged by config-hash key, never
// by completion order).
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"
	"time"

	"rrmpcm/internal/core"
	"rrmpcm/internal/engine"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/reliability"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/stats"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// Options configures an experiment pass.
type Options struct {
	// Quick shrinks simulation windows for smoke tests and benchmarks;
	// results keep their shape but are noisier.
	Quick bool
	// Seed makes the whole pass reproducible.
	Seed uint64
	// Progress, if non-nil, receives one line per completed run. Writes
	// are serialized by the engine, so parallel jobs never interleave
	// within a line.
	Progress io.Writer
	// Parallel is the number of concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// CacheDir, if non-empty, enables the disk-backed run cache:
	// finished runs persist there keyed by config hash, and later
	// passes (or resumed interrupted ones) load them instead of
	// re-simulating.
	CacheDir string
	// JobTimeout bounds each simulation's wall-clock time (0 = none).
	JobTimeout time.Duration
	// Context, if non-nil, cancels in-flight and pending runs when it
	// is done (Ctrl-C handling in cmd/experiments).
	Context context.Context
	// Reliability, when Enabled, turns on the drift-fault/ECC/scrub
	// model for every run of the pass (the reliability experiment sets
	// its own windows per run instead).
	Reliability reliability.Config
	// WarmStart shares simulation warmup across runs: jobs whose
	// warmup-relevant config prefix matches fork one warm snapshot
	// instead of each re-simulating the prefix. Results are bit-identical
	// to cold runs. Snapshots persist under CacheDir/snapshots when the
	// disk cache is on, in memory otherwise.
	WarmStart bool
}

// SimConfig builds the run configuration for a scheme/workload pair
// under the pass's options (quick windows, seed). It is the shared
// config constructor of cmd/experiments batches and HTTP-service
// shorthand submissions.
func (o Options) SimConfig(scheme sim.Scheme, w trace.Workload) sim.Config {
	cfg := sim.DefaultConfig(scheme, w)
	if o.Quick {
		cfg.Duration = 4 * timing.Millisecond
		cfg.Warmup = 1500 * timing.Microsecond
		cfg.TimeScale = 500
	} else {
		// 30 ms measured at TimeScale 100: the 20 ms scaled refresh
		// interval fits the window (hot entries refresh once or twice),
		// and the retention deadline slack stays 10x the worst queue
		// delay. Fast RRM refreshes are sampled 1-in-100, so they run
		// at their real density; slow (demotion and eviction) refreshes
		// are unsampled and run 100x denser. metrics.go de-scales their
		// wear and energy but not their bandwidth, so RRM performance
		// is conservatively understated.
		cfg.Duration = 30 * timing.Millisecond
		cfg.Warmup = 10 * timing.Millisecond
		cfg.TimeScale = 100
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Reliability.Enabled {
		cfg.Reliability = o.Reliability
	}
	return cfg
}

// RunSpec names one simulation of a batch: a scheme/workload pair with an
// optional config mutation. The Label is cosmetic (progress lines).
type RunSpec struct {
	Label    string
	Scheme   sim.Scheme
	Workload trace.Workload
	Mutate   func(*sim.Config)
}

// RunnerStats counts how a Runner's runs were satisfied.
type RunnerStats struct {
	Simulated  uint64        // actually executed
	MemoryHits uint64        // served from the in-process cache
	DiskHits   uint64        // served from the disk cache
	SimWall    time.Duration // summed wall-clock of executed runs
}

// Runner caches simulation results across experiments and fans batches
// out over the engine's worker pool. Results are keyed by the engine's
// config hash, so a mutated config can never alias another run's cached
// result, whatever its label. Runner methods are safe for concurrent
// use.
type Runner struct {
	opt Options
	eng *engine.Engine

	mu    sync.Mutex
	cache map[string]sim.Metrics
	stats RunnerStats
}

// NewRunner returns a runner for one experiment pass.
func NewRunner(opt Options) *Runner {
	r := &Runner{opt: opt, cache: make(map[string]sim.Metrics)}
	eopt := engine.Options{
		Parallel: opt.Parallel,
		Timeout:  opt.JobTimeout,
	}
	if opt.CacheDir != "" {
		c, err := engine.OpenRunCache(opt.CacheDir)
		if err != nil && opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "  run cache disabled: %v\n", err)
		}
		eopt.Cache = c // nil on error: memory-only
	}
	if opt.WarmStart {
		var store engine.SnapshotStore = engine.NewMemSnapshotStore()
		if opt.CacheDir != "" {
			if c, err := engine.OpenSnapshotCache(filepath.Join(opt.CacheDir, "snapshots")); err == nil {
				store = c
			} else if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "  snapshot cache disabled: %v\n", err)
			}
		}
		eopt.Sim = engine.WarmRunSim(store)
	}
	if opt.Progress != nil {
		eopt.Progress = func(res engine.Result) {
			if res.Err != nil {
				return // the batch error carries the details
			}
			from := ""
			if res.Cached {
				from = " [disk cache]"
			}
			fmt.Fprintf(opt.Progress, "  ran %-40s IPC=%.3f life=%.2fy (%.1fs)%s\n",
				res.Name, res.Metrics.IPC, res.Metrics.LifetimeYears,
				res.Wall.Seconds(), from)
			if res.CacheErr != nil {
				fmt.Fprintf(opt.Progress, "  warning: %s: caching result: %v\n", res.Name, res.CacheErr)
			}
		}
	}
	r.eng = engine.New(eopt)
	return r
}

// Stats returns a snapshot of the runner's cache/run counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Runner) context() context.Context {
	if r.opt.Context != nil {
		return r.opt.Context
	}
	return context.Background()
}

// specJob builds the config and deterministic cache key for one spec.
func (r *Runner) specJob(spec RunSpec) (engine.Job, error) {
	cfg := r.opt.SimConfig(spec.Scheme, spec.Workload)
	if spec.Mutate != nil {
		spec.Mutate(&cfg)
	}
	return NewJob(cfg, spec.Label)
}

// RunBatch simulates (or loads from cache) every spec and returns their
// metrics in spec order. Independent specs run concurrently on the
// engine's worker pool; specs resolving to the same config share one
// run. The first failing spec (in spec order, deterministically) aborts
// the batch with its error.
func (r *Runner) RunBatch(specs []RunSpec) ([]sim.Metrics, error) {
	out := make([]sim.Metrics, len(specs))
	jobs := make([]engine.Job, len(specs))
	pending := make([]int, 0, len(specs)) // spec indexes not in memory

	r.mu.Lock()
	for i, spec := range specs {
		job, err := r.specJob(spec)
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("experiments: %s/%s/%s: %w",
				spec.Label, spec.Scheme.Name(), spec.Workload.Name, err)
		}
		jobs[i] = job
		if m, ok := r.cache[job.Key]; ok {
			out[i] = m
			r.stats.MemoryHits++
		} else {
			pending = append(pending, i)
		}
	}
	r.mu.Unlock()
	if len(pending) == 0 {
		return out, nil
	}

	batch := make([]engine.Job, len(pending))
	for bi, i := range pending {
		batch[bi] = jobs[i]
	}
	results, _ := r.eng.Run(r.context(), batch)

	r.mu.Lock()
	defer r.mu.Unlock()
	var firstErr error
	for bi, res := range results {
		i := pending[bi]
		if res.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("experiments: %w", res.Err)
			}
			continue
		}
		if res.Metrics.RetentionViolations > 0 && firstErr == nil {
			firstErr = fmt.Errorf("experiments: %s: %d retention violations (%s)",
				res.Name, res.Metrics.RetentionViolations, res.Metrics.FirstViolation)
			continue
		}
		out[i] = res.Metrics
		if _, ok := r.cache[res.Key]; !ok {
			r.cache[res.Key] = res.Metrics
			if res.Cached {
				r.stats.DiskHits++
			} else {
				r.stats.Simulated++
				r.stats.SimWall += res.Wall
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Run simulates (or returns the cached result of) one scheme/workload
// pair, with optional config mutation. The result is keyed by the full
// config hash, so mutations are always distinguished from the unmutated
// run regardless of label; the label shows up in progress output.
func (r *Runner) Run(label string, scheme sim.Scheme, w trace.Workload, mutate func(*sim.Config)) (sim.Metrics, error) {
	ms, err := r.RunBatch([]RunSpec{{Label: label, Scheme: scheme, Workload: w, Mutate: mutate}})
	if err != nil {
		return sim.Metrics{}, err
	}
	return ms[0], nil
}

// mainSchemes is the Table VI scheme list.
func mainSchemes() []sim.Scheme {
	return []sim.Scheme{
		sim.StaticScheme(pcm.Mode7SETs),
		sim.StaticScheme(pcm.Mode6SETs),
		sim.StaticScheme(pcm.Mode5SETs),
		sim.StaticScheme(pcm.Mode4SETs),
		sim.StaticScheme(pcm.Mode3SETs),
		sim.RRMScheme(),
	}
}

// staticSchemes is the Figure 2-4 subset.
func staticSchemes() []sim.Scheme {
	return mainSchemes()[:5]
}

// workloads returns the experiment workload list; quick mode trims it to
// a representative trio so benchmarks stay fast.
func (o Options) workloads() []trace.Workload {
	all := trace.Workloads()
	if !o.Quick {
		return all
	}
	var out []trace.Workload
	for _, w := range all {
		switch w.Name {
		case "GemsFDTD", "mcf", "MIX_2":
			out = append(out, w)
		}
	}
	return out
}

// matrix runs every scheme over every workload (one parallel batch) and
// returns metrics[workload][scheme].
func (r *Runner) matrix(schemes []sim.Scheme) (map[string]map[string]sim.Metrics, []trace.Workload, error) {
	ws := r.opt.workloads()
	specs := make([]RunSpec, 0, len(ws)*len(schemes))
	for _, w := range ws {
		for _, s := range schemes {
			specs = append(specs, RunSpec{Label: "main", Scheme: s, Workload: w})
		}
	}
	ms, err := r.RunBatch(specs)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]map[string]sim.Metrics, len(ws))
	for i, spec := range specs {
		if out[spec.Workload.Name] == nil {
			out[spec.Workload.Name] = make(map[string]sim.Metrics, len(schemes))
		}
		out[spec.Workload.Name][spec.Scheme.Name()] = ms[i]
	}
	return out, ws, nil
}

// geomeanOver collects metric(workload) over ws and returns the geomean.
func geomeanOver(ws []trace.Workload, f func(name string) float64) float64 {
	vals := make([]float64, 0, len(ws))
	for _, w := range ws {
		vals = append(vals, f(w.Name))
	}
	return stats.Geomean(vals)
}

// workloadNames returns workload names in canonical (declaration) order;
// used for stable table rows.
func workloadNames(ws []trace.Workload) []string {
	names := make([]string, 0, len(ws))
	for _, w := range ws {
		names = append(names, w.Name)
	}
	return names
}

// rrmConfigWith applies a mutation to the default RRM config.
func rrmConfigWith(mutate func(*core.RRMConfig)) sim.Scheme {
	cfg := core.DefaultRRMConfig()
	mutate(&cfg)
	return sim.Scheme{Kind: sim.SchemeRRM, RRM: cfg}
}

// Aliases keeping experiments.go terse.
type coreRRMConfig = core.RRMConfig

func defaultRRM() core.RRMConfig { return core.DefaultRRMConfig() }

func timingTime(v float64) timing.Time { return timing.Time(v) }

// simConfigT aliases sim.Config for test readability.
type simConfigT = sim.Config

// mathPow keeps the math import local.
func mathPow(x, p float64) float64 { return math.Pow(x, p) }
