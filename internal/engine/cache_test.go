package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sim"
)

// TestRunCacheRoundTrip: Store then Load returns exactly the stored
// metrics (floats, maps, nested stats and all).
func TestRunCacheRoundTrip(t *testing.T) {
	c, err := OpenRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics{
		Scheme: "RRM", Workload: "GemsFDTD",
		SimSeconds: 0.03, TimeScale: 100,
		Instructions: 123456789, IPC: 3.14159265358979,
		PerCoreIPC: []float64{0.1, 0.2, 0.3, 0.4},
		WritesByMode: map[pcm.WriteMode]uint64{
			pcm.Mode3SETs: 42, pcm.Mode7SETs: 4242,
		},
		WearDemandRate: 1.0 / 3.0,
		LifetimeYears:  6.42,
	}
	m.RRM.FastRefreshes = 77
	if err := c.Store("k1", m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Load("k1")
	if err != nil || !ok {
		t.Fatalf("Load = ok %v, err %v", ok, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip changed metrics:\n got %+v\nwant %+v", got, m)
	}
}

// TestRunCacheMissAndCorruption: absent keys and torn/garbage entries
// read as misses, never as errors or wrong data.
func TestRunCacheMissAndCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Load("absent"); ok || err != nil {
		t.Fatalf("absent key: ok %v err %v, want miss", ok, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.json"), []byte(`{"Format":1,"Key":"to`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Load("torn"); ok || err != nil {
		t.Fatalf("torn entry: ok %v err %v, want miss", ok, err)
	}
	// A valid entry filed under the wrong key must not serve.
	if err := c.Store("right", sim.Metrics{IPC: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "right.json"), filepath.Join(dir, "wrong.json")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Load("wrong"); ok {
		t.Error("entry with mismatched key served as a hit")
	}
	// Keys that are not one path element are refused: Load misses even
	// when the file such a key names holds a valid entry, Store errors.
	blob, err := encodeRunEntry("sub/right", sim.Metrics{IPC: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sub", "right.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", ".", "..", "../right", "sub/right", `sub\right`} {
		if _, ok, err := c.Load(key); ok || err != nil {
			t.Errorf("Load(%q): ok %v err %v, want miss", key, ok, err)
		}
		if err := c.Store(key, sim.Metrics{IPC: 1}); err == nil {
			t.Errorf("Store(%q) succeeded, want an error", key)
		}
	}
}

// TestEngineDiskCache: a second engine pass over the same jobs and cache
// directory loads every result from disk and runs zero simulations, with
// metrics identical to the first pass.
func TestEngineDiskCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	jobs := []Job{}
	for _, seed := range []uint64{1, 2} {
		cfg := testConfig(seed)
		key, err := ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{Key: key, Config: cfg})
	}

	var sims atomic.Int32
	countingSim := func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
		sims.Add(1)
		return RunSim(ctx, cfg)
	}
	pass := func() []Result {
		cache, err := OpenRunCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{Parallel: 2, Cache: cache, Sim: countingSim})
		res, err := e.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("job %d: %v", i, r.Err)
			}
		}
		return res
	}

	first := pass()
	if n := sims.Load(); n != 2 {
		t.Fatalf("first pass simulated %d, want 2", n)
	}
	if n, err := OpenRunCacheLen(dir); err != nil || n != 2 {
		t.Fatalf("cache entries = %d (%v), want 2", n, err)
	}

	second := pass()
	if n := sims.Load(); n != 2 {
		t.Errorf("second pass simulated %d more runs, want pure disk hits", n-2)
	}
	for i := range first {
		if !second[i].Cached {
			t.Errorf("job %d not served from disk cache", i)
		}
		if !reflect.DeepEqual(first[i].Metrics, second[i].Metrics) {
			t.Errorf("job %d metrics changed across cache round trip", i)
		}
	}
}

// OpenRunCacheLen counts entries in a cache directory (test helper).
func OpenRunCacheLen(dir string) (int, error) {
	c, err := OpenRunCache(dir)
	if err != nil {
		return 0, err
	}
	return c.Len()
}
