package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
)

// warmTestConfig is testConfig with the RRM scheme, which exercises the
// richest snapshot path (RRM tables, decay timers, refresh traffic).
func warmTestConfig(d timing.Time) sim.Config {
	cfg := testConfig(1)
	cfg.Scheme = sim.RRMScheme()
	cfg.Duration = d
	return cfg
}

func coldMetricsJSON(t *testing.T, cfg sim.Config) []byte {
	t.Helper()
	m, err := RunSim(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestWarmKeyEligibility(t *testing.T) {
	base := warmTestConfig(1500 * timing.Microsecond)
	if _, ok, err := WarmKey(base); err != nil || !ok {
		t.Fatalf("base config not eligible: ok=%v err=%v", ok, err)
	}
	ineligible := map[string]func(*sim.Config){
		"zero-warmup":   func(c *sim.Config) { c.Warmup = 0 },
		"tiny-duration": func(c *sim.Config) { c.Duration = 3 * timing.Microsecond },
		"sampled": func(c *sim.Config) {
			c.Sampling = &sim.SamplingSpec{Windows: 4, Window: 10 * timing.Microsecond}
		},
	}
	for name, mut := range ineligible {
		cfg := base
		mut(&cfg)
		if _, ok, err := WarmKey(cfg); err != nil || ok {
			t.Errorf("%s: want ineligible, got ok=%v err=%v", name, ok, err)
		}
	}
}

// TestWarmKeyPrefix pins what the warm key covers: the measurement
// window is excluded (that is the whole point of sharing warmups), every
// warmup-relevant knob is included, and reliability-enabled configs pull
// Duration back in because their RNG stream is seeded from it.
func TestWarmKeyPrefix(t *testing.T) {
	key := func(cfg sim.Config) string {
		t.Helper()
		k, ok, err := WarmKey(cfg)
		if err != nil || !ok {
			t.Fatalf("config not eligible: ok=%v err=%v", ok, err)
		}
		return k
	}
	base := warmTestConfig(1500 * timing.Microsecond)
	long := base
	long.Duration = 3000 * timing.Microsecond
	if key(base) != key(long) {
		t.Error("configs differing only in Duration should share a warm key")
	}
	for name, mut := range map[string]func(*sim.Config){
		"seed":    func(c *sim.Config) { c.Seed = 2 },
		"warmup":  func(c *sim.Config) { c.Warmup = 600 * timing.Microsecond },
		"scheme":  func(c *sim.Config) { c.Scheme.RRM.HotThreshold = 8 },
		"devices": func(c *sim.Config) { c.Ctrl.WritePausing = !c.Ctrl.WritePausing },
	} {
		cfg := base
		mut(&cfg)
		if key(base) == key(cfg) {
			t.Errorf("%s: warmup-relevant change did not change the warm key", name)
		}
	}
	relA := base
	relA.Reliability.Enabled = true
	relB := relA
	relB.Duration = 3000 * timing.Microsecond
	if key(relA) == key(relB) {
		t.Error("reliability-enabled configs with different Durations must not share a warm key")
	}
}

// TestWarmRunSimMatchesCold runs a duration sweep through WarmRunSim and
// demands every result be bit-identical to its cold-start run, with the
// store ending up holding exactly one shared snapshot.
func TestWarmRunSimMatchesCold(t *testing.T) {
	store := NewMemSnapshotStore()
	warm := WarmRunSim(store)
	for _, d := range []timing.Time{1500, 1000, 2000} {
		cfg := warmTestConfig(d * timing.Microsecond)
		want := coldMetricsJSON(t, cfg)
		m, err := warm(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("duration %dus: warm-start result diverged from cold start", d)
		}
	}
	if n := store.Len(); n != 1 {
		t.Errorf("store holds %d snapshots, want 1 (shared warm prefix)", n)
	}
}

// TestWarmRunSimConcurrentForks hammers one shared warm prefix from many
// goroutines at once (the sweep shape the engine produces) and checks
// every fork against its cold run. Run under -race this also proves the
// snapshot blob is safe to fork concurrently.
func TestWarmRunSimConcurrentForks(t *testing.T) {
	durations := []timing.Time{1000, 1250, 1500, 1750, 2000, 1500, 1000, 1750}
	want := make([][]byte, len(durations))
	seen := map[timing.Time][]byte{}
	for i, d := range durations {
		if cached, ok := seen[d]; ok {
			want[i] = cached
			continue
		}
		want[i] = coldMetricsJSON(t, warmTestConfig(d*timing.Microsecond))
		seen[d] = want[i]
	}

	store := NewMemSnapshotStore()
	warm := WarmRunSim(store)
	got := make([][]byte, len(durations))
	errs := make([]error, len(durations))
	var wg sync.WaitGroup
	for i, d := range durations {
		wg.Add(1)
		go func(i int, d timing.Time) {
			defer wg.Done()
			m, err := warm(context.Background(), warmTestConfig(d*timing.Microsecond))
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = json.Marshal(m)
		}(i, d)
	}
	wg.Wait()
	for i := range durations {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("fork %d (duration %dus): diverged from cold start", i, durations[i])
		}
	}
	if n := store.Len(); n != 1 {
		t.Errorf("store holds %d snapshots, want 1", n)
	}
}

// TestSnapshotCacheDisk drives WarmRunSim over the disk store twice: the
// first pass writes the snapshot file, a second independent pass (a new
// process, as far as the cache can tell) forks from it.
func TestSnapshotCacheDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := warmTestConfig(1500 * timing.Microsecond)
	want := coldMetricsJSON(t, cfg)

	for pass := 0; pass < 2; pass++ {
		cache, err := OpenSnapshotCache(filepath.Join(dir, "snapshots"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := WarmRunSim(cache)(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("pass %d: warm-start result diverged from cold start", pass)
		}
	}

	key, ok, err := WarmKey(cfg)
	if err != nil || !ok {
		t.Fatalf("config not eligible: ok=%v err=%v", ok, err)
	}
	if blob, hit, err := (&SnapshotCache{dir: filepath.Join(dir, "snapshots")}).Load(key); err != nil || !hit || len(blob) == 0 {
		t.Errorf("snapshot file missing after first pass: hit=%v err=%v", hit, err)
	}
}

// corruptStore hands out a blob Restore must reject, forcing the cold
// fallback path.
type corruptStore struct{}

func (corruptStore) Load(string) ([]byte, bool, error) { return []byte("not a snapshot"), true, nil }
func (corruptStore) Store(string, []byte) error        { return fmt.Errorf("read-only") }

func TestWarmRunSimCorruptFallback(t *testing.T) {
	cfg := warmTestConfig(1500 * timing.Microsecond)
	want := coldMetricsJSON(t, cfg)
	m, err := WarmRunSim(corruptStore{})(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("corrupt-snapshot fallback diverged from cold start")
	}
}
