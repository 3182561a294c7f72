package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"rrmpcm/internal/sim"
	"rrmpcm/internal/snapshot"
)

// cacheFormat guards entry decoding; entries written by an incompatible
// build read as misses, not errors. Format 2 switched Metrics.
// WritesByMode to mode-name keys (sim.ModeWrites). Format 3 added the
// reliability and retention_detail metrics blocks; format-2 entries can
// only exist for reliability-free configs (the config hash of an
// enabled run did not exist before format 3), so they still decode —
// see cacheFormatCompatible.
const cacheFormat = 3

// cacheFormatCompatible reports whether an on-disk entry's format can
// be decoded by this build.
func cacheFormatCompatible(format int) bool {
	return format == 2 || format == cacheFormat
}

// cacheEntry is the on-disk envelope of one cached run.
type cacheEntry struct {
	Format   int
	Key      string
	Scheme   string
	Workload string
	Metrics  sim.Metrics
}

// cacheTrailerPrefix introduces the integrity trailer appended after
// the entry's JSON document: one line carrying the FNV-1a checksum of
// every byte before it (the same hash the snapshot codec trails its
// blobs with). Entries written before the trailer existed (formats 2
// and 3 up to PR 5) have no trailer and decode unchecked; a present
// trailer that does not match reads as a miss, so a bit-flipped or
// truncated entry degrades to recomputation instead of decoding
// garbage.
const cacheTrailerPrefix = "\n#fnv1a:"

// encodeRunEntry serializes one finished run into the run cache's
// on-disk format: the JSON envelope followed by the FNV-1a integrity
// trailer.
func encodeRunEntry(key string, m sim.Metrics) ([]byte, error) {
	blob, err := json.MarshalIndent(cacheEntry{
		Format:   cacheFormat,
		Key:      key,
		Scheme:   m.Scheme,
		Workload: m.Workload,
		Metrics:  m,
	}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("engine: encoding cache entry: %w", err)
	}
	return append(blob, []byte(fmt.Sprintf("%s%016x\n", cacheTrailerPrefix, snapshot.Checksum(blob)))...), nil
}

// decodeRunEntry parses a run-cache blob for key. A corrupt, torn,
// format-incompatible or mis-keyed entry is a miss (ok=false), never an
// error: the caller recomputes. Legacy entries without the integrity
// trailer still decode; when a trailer is present its checksum must
// match.
func decodeRunEntry(key string, blob []byte) (sim.Metrics, bool) {
	if i := bytes.LastIndex(blob, []byte(cacheTrailerPrefix)); i >= 0 {
		var sum uint64
		if n, err := fmt.Sscanf(string(blob[i+len(cacheTrailerPrefix):]), "%016x", &sum); n != 1 || err != nil {
			return sim.Metrics{}, false
		}
		if snapshot.Checksum(blob[:i]) != sum {
			return sim.Metrics{}, false
		}
		blob = blob[:i]
	}
	var e cacheEntry
	if json.Unmarshal(blob, &e) != nil || !cacheFormatCompatible(e.Format) || e.Key != key {
		return sim.Metrics{}, false
	}
	return e.Metrics, true
}

// ResultCache is the engine's seam onto finished-run storage: Load
// answers "has this config hash already been simulated" and Store
// persists a fresh result under its hash. RunCache is the local-disk
// implementation; benchmarks and tests substitute in-memory stores.
// Implementations must be safe for concurrent use; Load must report a
// missing entry as (ok=false, nil error) and reserve errors for real
// I/O failures.
type ResultCache interface {
	Load(key string) (sim.Metrics, bool, error)
	Store(key string, m sim.Metrics) error
}

// RunCache is a disk-backed store of finished simulation results, one
// JSON file per config hash. Writes are atomic (temp file + rename), so
// a sweep killed mid-write never leaves a torn entry; re-running the
// sweep resumes from whatever completed. The cache is safe for
// concurrent use by multiple workers and multiple processes.
type RunCache struct {
	dir string
}

// OpenRunCache opens (creating if needed) a cache rooted at dir.
func OpenRunCache(dir string) (*RunCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: opening run cache: %w", err)
	}
	return &RunCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *RunCache) Dir() string { return c.dir }

// Load fetches the cached metrics for key. A missing, torn, corrupt or
// format-incompatible entry, or a key that is not one path element, is
// a miss (ok=false, nil error); err is reserved for real I/O failures.
func (c *RunCache) Load(key string) (sim.Metrics, bool, error) {
	blob, ok, err := readEntry(c.dir, key, ".json")
	if err != nil {
		return sim.Metrics{}, false, fmt.Errorf("engine: reading cache entry: %w", err)
	}
	if !ok {
		return sim.Metrics{}, false, nil
	}
	m, ok := decodeRunEntry(key, blob)
	return m, ok, nil
}

// Store persists metrics under key atomically.
func (c *RunCache) Store(key string, m sim.Metrics) error {
	blob, err := encodeRunEntry(key, m)
	if err != nil {
		return err
	}
	if err := writeEntry(c.dir, key, ".json", blob); err != nil {
		return fmt.Errorf("engine: writing cache entry: %w", err)
	}
	return nil
}

// Len counts the cache's entries (diagnostics and tests).
func (c *RunCache) Len() (int, error) {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	return len(matches), nil
}

// entryPath names key's file in a cache directory. Keys arrive from
// request URLs, so a key that is not one path element (empty, ".",
// "..", or containing a separator) could name a file outside dir; it
// gets ok=false.
func entryPath(dir, key, ext string) (string, bool) {
	if key == "" || key == "." || key == ".." || strings.ContainsAny(key, `/\`) {
		return "", false
	}
	return filepath.Join(dir, key+ext), true
}

// readEntry reads key's file from dir. A missing file is ok=false with
// a nil error; so is an invalid key, without touching the filesystem.
func readEntry(dir, key, ext string) ([]byte, bool, error) {
	path, ok := entryPath(dir, key, ext)
	if !ok {
		return nil, false, nil
	}
	blob, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return blob, true, nil
}

// writeEntry writes key's file in dir atomically (temp file + rename),
// so concurrent processes and killed sweeps never leave a torn entry.
// An invalid key is an error.
func writeEntry(dir, key, ext string, blob []byte) error {
	path, ok := entryPath(dir, key, ext)
	if !ok {
		return fmt.Errorf("invalid cache key %q", key)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
