package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rrmpcm/internal/dram"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// testConfig returns a tiny but valid run configuration.
func testConfig(seed uint64) sim.Config {
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		panic(err)
	}
	cfg := sim.DefaultConfig(sim.StaticScheme(pcm.Mode7SETs), w)
	cfg.Duration = 1500 * timing.Microsecond
	cfg.Warmup = 500 * timing.Microsecond
	cfg.TimeScale = 1000
	cfg.Seed = seed
	return cfg
}

// fakeJobs builds n jobs with distinct keys over distinct seeds.
func fakeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("job-%03d", i), Name: fmt.Sprintf("fake/%d", i),
			Config: testConfig(uint64(i + 1))}
	}
	return jobs
}

// seedMetrics is the fake simulation output: identifiable per config.
func seedMetrics(cfg sim.Config) sim.Metrics {
	return sim.Metrics{Scheme: cfg.Scheme.Name(), Workload: cfg.Workload.Name,
		IPC: float64(cfg.Seed), Instructions: cfg.Seed * 1000}
}

// TestDeterministicOrdering: the same job list produces the same result
// sequence at parallelism 1 and 8, even when completion order is
// scrambled by per-job sleeps.
func TestDeterministicOrdering(t *testing.T) {
	jobs := fakeJobs(24)
	run := func(parallel int) []Result {
		e := New(Options{Parallel: parallel, Sim: func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
			// Earlier jobs sleep longer: completion order is roughly
			// the reverse of submission order under parallelism.
			time.Sleep(time.Duration(24-cfg.Seed) * time.Millisecond)
			return seedMetrics(cfg), nil
		}})
		res, err := e.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	if len(seq) != len(jobs) || len(par) != len(jobs) {
		t.Fatalf("result counts %d/%d, want %d", len(seq), len(par), len(jobs))
	}
	for i := range jobs {
		if seq[i].Key != jobs[i].Key || par[i].Key != jobs[i].Key {
			t.Fatalf("result %d key %q/%q, want submission order %q", i, seq[i].Key, par[i].Key, jobs[i].Key)
		}
		if seq[i].Metrics.IPC != par[i].Metrics.IPC {
			t.Fatalf("result %d differs across parallelism: %v vs %v", i, seq[i].Metrics.IPC, par[i].Metrics.IPC)
		}
	}
}

// TestKeyMerging: jobs sharing a key execute once and share the result.
func TestKeyMerging(t *testing.T) {
	var runs atomic.Int32
	e := New(Options{Parallel: 4, Sim: func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
		runs.Add(1)
		return seedMetrics(cfg), nil
	}})
	job := Job{Key: "shared", Config: testConfig(7)}
	res, err := e.Run(context.Background(), []Job{job, job, job, job})
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("shared-key jobs ran %d times, want 1", n)
	}
	for i, r := range res {
		if r.Err != nil || r.Metrics.IPC != 7 {
			t.Errorf("result %d = %+v, want shared metrics", i, r)
		}
	}
}

// TestPanicRecovery: a panicking simulation becomes its job's error; the
// rest of the batch completes.
func TestPanicRecovery(t *testing.T) {
	jobs := fakeJobs(6)
	e := New(Options{Parallel: 3, Sim: func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
		if cfg.Seed == 3 {
			panic("injected crash")
		}
		return seedMetrics(cfg), nil
	}})
	res, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if i == 2 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "injected crash") {
				t.Errorf("crashed job error = %v, want panic message", r.Err)
			}
			if !strings.Contains(fmt.Sprint(r.Err), "goroutine") {
				t.Errorf("crashed job error lacks a stack trace: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("job %d failed: %v", i, r.Err)
		}
	}
}

// TestCancellation: cancelling the context stops the batch; running jobs
// see ctx in their SimFunc and unstarted jobs report the context error.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	e := New(Options{Parallel: 2, Sim: func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
		started <- struct{}{}
		<-ctx.Done()
		return sim.Metrics{}, ctx.Err()
	}})
	go func() {
		<-started
		cancel()
	}()
	res, err := e.Run(ctx, fakeJobs(8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if len(res) != 8 {
		t.Fatalf("got %d results, want 8 (cancelled jobs still report)", len(res))
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestPerJobTimeout: Options.Timeout bounds each job independently.
func TestPerJobTimeout(t *testing.T) {
	e := New(Options{Parallel: 2, Timeout: 10 * time.Millisecond,
		Sim: func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
			if cfg.Seed == 1 {
				return seedMetrics(cfg), nil // fast job beats the timeout
			}
			<-ctx.Done()
			return sim.Metrics{}, ctx.Err()
		}})
	res, err := e.Run(context.Background(), fakeJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Errorf("fast job failed: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, context.DeadlineExceeded) {
		t.Errorf("slow job error = %v, want deadline exceeded", res[1].Err)
	}
}

// TestRealSimCancellation: RunContext propagates into a real simulation,
// stopping a run that would otherwise take far longer than the timeout.
func TestRealSimCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real simulation")
	}
	cfg := testConfig(1)
	cfg.Duration = 500 * timing.Millisecond // would run for minutes
	e := New(Options{Parallel: 1, Timeout: 100 * time.Millisecond})
	start := time.Now()
	res, err := e.Run(context.Background(), []Job{{Key: "slow", Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", res[0].Err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", wall)
	}
}

// TestConfigHash: equal configs hash equal; any simulation-relevant
// difference changes the hash.
func TestConfigHash(t *testing.T) {
	base, err := ConfigHash(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	again, err := ConfigHash(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Fatalf("hash not deterministic: %s vs %s", base, again)
	}
	if len(base) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", base)
	}
	mutants := map[string]func(*sim.Config){
		"seed":       func(c *sim.Config) { c.Seed = 2 },
		"duration":   func(c *sim.Config) { c.Duration++ },
		"timescale":  func(c *sim.Config) { c.TimeScale = 200 },
		"scheme":     func(c *sim.Config) { *c = sim.DefaultConfig(sim.StaticScheme(pcm.Mode3SETs), c.Workload) },
		"rrm-knob":   func(c *sim.Config) { c.Scheme = sim.RRMScheme(); c.Scheme.RRM.HotThreshold = 8 },
		"ctrl":       func(c *sim.Config) { c.Ctrl.WritePausing = !c.Ctrl.WritePausing },
		"core-mshrs": func(c *sim.Config) { c.CoreMSHRs = 99 },
		"sampling": func(c *sim.Config) {
			c.Sampling = &sim.SamplingSpec{Windows: 8, Window: 10, DetailWarmup: 5}
		},
		"sampling-budget": func(c *sim.Config) {
			c.Sampling = &sim.SamplingSpec{Windows: 15, Window: 10, DetailWarmup: 5}
		},
		"sampling-stride": func(c *sim.Config) {
			c.Sampling = &sim.SamplingSpec{Windows: 8, Window: 10, DetailWarmup: 5, FFStride: 16}
		},
		"hybrid": func(c *sim.Config) {
			hc := dram.DefaultHybridConfig()
			c.Hybrid = &hc
		},
		"hybrid-capacity": func(c *sim.Config) {
			hc := dram.DefaultHybridConfig()
			hc.DRAM.CapBytes /= 2
			c.Hybrid = &hc
		},
		"hybrid-policy": func(c *sim.Config) {
			hc := dram.DefaultHybridConfig()
			hc.Migration.Policy = dram.PolicyRecency
			c.Hybrid = &hc
		},
		"dynamics": func(c *sim.Config) {
			c.Workload.Dynamics = &trace.Dynamics{Phases: []trace.Phase{{Profile: "lbm", Ops: 100}}}
		},
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range mutants {
		cfg := testConfig(1)
		mutate(&cfg)
		h, err := ConfigHash(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("mutant %q hash collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// TestHashImageCoversConfig guards hashImage against drift: every
// exported field of sim.Config must have a same-named counterpart in
// hashImage, so a new config field can never be silently left out of the
// cache key (which would let two different runs alias).
func TestHashImageCoversConfig(t *testing.T) {
	img := reflect.TypeOf(hashImage{})
	imgFields := map[string]bool{}
	for i := 0; i < img.NumField(); i++ {
		imgFields[img.Field(i).Name] = true
	}
	cfg := reflect.TypeOf(sim.Config{})
	for i := 0; i < cfg.NumField(); i++ {
		name := cfg.Field(i).Name
		if !imgFields[name] {
			t.Errorf("sim.Config field %q missing from engine.hashImage: add it (and bump hashVersion)", name)
		}
	}
	scheme := reflect.TypeOf(sim.Scheme{})
	schemeImg := reflect.TypeOf(schemeImage{})
	simgFields := map[string]bool{}
	for i := 0; i < schemeImg.NumField(); i++ {
		simgFields[schemeImg.Field(i).Name] = true
	}
	for i := 0; i < scheme.NumField(); i++ {
		name := scheme.Field(i).Name
		if !simgFields[name] {
			t.Errorf("sim.Scheme field %q missing from engine.schemeImage: add it (and bump hashVersion)", name)
		}
	}
}
