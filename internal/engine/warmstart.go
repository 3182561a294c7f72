package engine

// This file is the warm-start layer: sweep jobs that differ only in
// post-warmup knobs (measurement window, equivalent duration) share one
// warm checkpoint — the first job to need a given warmup prefix
// simulates it once, snapshots the warmed system (sim.System.Snapshot),
// and every later job forks from the snapshot instead of re-simulating
// the prefix. Restored forks are bit-identical to straight-through runs
// (sim's golden equivalence tests), so warm-start changes wall-clock
// only, never results.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"rrmpcm/internal/cpu"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/timing"
)

// warmHashVersion guards the warm-key space: bump it whenever the
// snapshot encoding or the simulation's warmup behavior changes, so
// stale disk snapshots from older builds stop matching.
// History: v4 sim snapshot format 4 (shard-mailbox section); v5 sim
// snapshot format 5 (no per-region wear list); v6 sim snapshot format 6
// (no shard-mailbox section); v7 sim snapshot format 7 (one word per
// cache line); v8 sim snapshot format 8 (no tenant-tracker flag); v9 sim
// snapshot format 9 (no retention-checker flag).
const warmHashVersion = "rrmpcm-warm-v9"

// warmImage is the warmup-relevant prefix of a config: hashImage minus
// the knobs that only matter after the warmup boundary (Duration,
// EquivalentDuration). Two configs with equal warmImages reach the
// warmup boundary in bit-identical state, so they can share a snapshot.
type warmImage struct {
	hashImage

	// WarmDuration re-includes Duration for reliability-enabled configs
	// only: the reliability RNG stream is seeded from a mix that
	// includes Duration (sim.Config.reliabilitySeed), so those warmups
	// are not duration-independent.
	WarmDuration timing.Time `json:",omitempty"`
}

// WarmKey returns the deterministic identity of a config's warmup
// prefix, or ok=false when the config is not warm-start eligible: zero
// warmup (nothing to share), and measurement windows short enough that
// a core could hit its stop horizon during warmup (which would make
// warmup behavior depend on Duration).
func WarmKey(cfg sim.Config) (string, bool, error) {
	if cfg.Warmup <= 0 {
		return "", false, nil
	}
	// Sampled runs are not warm-start eligible: the sampling executor
	// does its own snapshotting and the warm-prefix sharing would buy
	// nothing — so a sampled config is always WarmKey-distinct from the
	// full run it approximates (it has no warm key at all).
	if cfg.Sampling != nil {
		return "", false, nil
	}
	// During warmup a core's local clock can lead the event clock by up
	// to one scheduling quantum, and the stop horizon sits one Duration
	// past the warmup boundary; two quanta of slack keep every eligible
	// warmup duration-independent.
	if cfg.Duration < 2*cpu.DefaultConfig(0).Quantum {
		return "", false, nil
	}
	// The staging tier's residency forms during warmup, so the hybrid
	// settings stay in the image with everything else warmup-relevant.
	img := warmImage{hashImage: newHashImage(cfg)}
	img.Duration, img.EquivalentDuration = 0, 0
	if cfg.Reliability.Enabled {
		img.WarmDuration = cfg.Duration
	}
	blob, err := json.Marshal(img)
	if err != nil {
		return "", false, fmt.Errorf("engine: hashing warm prefix: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(warmHashVersion))
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil)), true, nil
}

// SnapshotStore persists warm-system snapshot blobs keyed by WarmKey.
// Implementations must be safe for concurrent use.
type SnapshotStore interface {
	// Load fetches the blob for key; a missing entry is ok=false with a
	// nil error.
	Load(key string) ([]byte, bool, error)
	// Store persists blob under key.
	Store(key string, blob []byte) error
}

// SnapshotCache is the disk-backed SnapshotStore, one binary file per
// warm key beside the run cache. Writes are atomic (temp file + rename)
// so concurrent processes and killed sweeps never leave torn snapshots;
// the blob's own checksum rejects any corruption Load cannot see.
type SnapshotCache struct {
	dir string
}

// OpenSnapshotCache opens (creating if needed) a snapshot cache at dir.
func OpenSnapshotCache(dir string) (*SnapshotCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: empty snapshot cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: opening snapshot cache: %w", err)
	}
	return &SnapshotCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *SnapshotCache) Dir() string { return c.dir }

// Load implements SnapshotStore. A key that is not one path element is
// a miss.
func (c *SnapshotCache) Load(key string) ([]byte, bool, error) {
	blob, ok, err := readEntry(c.dir, key, ".snap")
	if err != nil {
		return nil, false, fmt.Errorf("engine: reading snapshot: %w", err)
	}
	return blob, ok, nil
}

// Store implements SnapshotStore.
func (c *SnapshotCache) Store(key string, blob []byte) error {
	if err := writeEntry(c.dir, key, ".snap", blob); err != nil {
		return fmt.Errorf("engine: writing snapshot: %w", err)
	}
	return nil
}

// MemSnapshotStore is an in-process SnapshotStore (no disk cache
// configured, benchmarks, tests).
type MemSnapshotStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// NewMemSnapshotStore returns an empty in-memory store.
func NewMemSnapshotStore() *MemSnapshotStore {
	return &MemSnapshotStore{blobs: make(map[string][]byte)}
}

// Load implements SnapshotStore.
func (s *MemSnapshotStore) Load(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[key]
	return blob, ok, nil
}

// Store implements SnapshotStore.
func (s *MemSnapshotStore) Store(key string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[key] = blob
	return nil
}

// Len reports the number of stored snapshots (tests).
func (s *MemSnapshotStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}

// WarmRunSim returns a SimFunc that shares warmup across jobs through
// store. The first job needing a given warm prefix simulates the warmup
// under a per-key lock, snapshots the warmed system, stores the blob and
// measures straight on; concurrent jobs with the same prefix wait for
// the snapshot instead of duplicating the warmup, then fork from it.
// Ineligible configs, store failures and corrupt blobs all degrade to a
// plain cold-start run — warm-start is purely an optimization.
func WarmRunSim(store SnapshotStore) SimFunc {
	var mu sync.Mutex
	locks := make(map[string]*sync.Mutex)
	keyLock := func(key string) *sync.Mutex {
		mu.Lock()
		defer mu.Unlock()
		l := locks[key]
		if l == nil {
			l = &sync.Mutex{}
			locks[key] = l
		}
		return l
	}
	return func(ctx context.Context, cfg sim.Config) (sim.Metrics, error) {
		key, ok, err := WarmKey(cfg)
		if err != nil || !ok {
			return RunSim(ctx, cfg)
		}
		l := keyLock(key)
		l.Lock()
		blob, hit, _ := store.Load(key) // load errors degrade to misses
		if !hit {
			// Produce the shared snapshot, then measure this job from
			// the live (already warm) system — no restore round-trip.
			sys, err := sim.New(cfg)
			if err != nil {
				l.Unlock()
				return sim.Metrics{}, err
			}
			if err := sys.Warmup(ctx); err != nil {
				l.Unlock()
				return sim.Metrics{}, err
			}
			if blob, err := sys.Snapshot(); err == nil {
				if err := store.Store(key, blob); err != nil {
					// Best-effort: later jobs re-warm.
					_ = err
				}
			}
			l.Unlock()
			return sys.Measure(ctx)
		}
		l.Unlock()
		sys, err := sim.New(cfg)
		if err != nil {
			return sim.Metrics{}, err
		}
		if err := sys.Restore(blob); err != nil {
			// Stale or corrupt snapshot (encoding change, torn disk
			// state): fall back to a cold run.
			return RunSim(ctx, cfg)
		}
		return sys.Measure(ctx)
	}
}
