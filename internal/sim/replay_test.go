package sim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
	"rrmpcm/internal/tracefile"
)

// exportWorkload records opsPerCore ops of every stream of cfg's
// workload into dir, using the simulator's own seeding and partition
// rules, and returns the replay variant of the workload (same Name, so
// the reliability seed — which mixes the name — matches too).
func exportWorkload(t *testing.T, cfg Config, dir string, opsPerCore uint64) trace.Workload {
	t.Helper()
	w := cfg.Workload
	n := w.NumStreams()
	rw := w
	rw.Cores = nil
	rw.Dynamics = nil
	for i := 0; i < n; i++ {
		base, span := trace.CorePartition(cfg.Device.MemBytes, n, i)
		gen, err := trace.NewStream(w, i, base, span, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		meta := tracefile.Meta{
			Name:    w.Cores[i].Name,
			BaseCPI: gen.BaseCPI(),
			MaxMLP:  gen.MaxMLP(),
			Base:    base,
			Span:    span,
			Seed:    trace.CoreSeed(cfg.Seed, i),
		}
		blob, err := tracefile.Record(gen, meta, opsPerCore)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, w.Name+".c"+string(rune('0'+i))+".rrmt")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := tracefile.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		rw.Replay = append(rw.Replay, trace.TraceRef{Path: path, Sum: f.Sum()})
	}
	return rw
}

// TestReplayRoundTripMetrics is the subsystem's acceptance proof: a
// trace exported from a synthetic workload and replayed through the
// simulator yields byte-identical Metrics to the generator run.
func TestReplayRoundTripMetrics(t *testing.T) {
	cfg := quickConfig(t, RRMScheme(), "hmmer")
	cfg.Duration = 2 * timing.Millisecond
	cfg.Warmup = 500 * timing.Microsecond

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}

	const opsPerCore = 1_000_000 // comfortably more than the window consumes
	rcfg := cfg
	rcfg.Workload = exportWorkload(t, cfg, t.TempDir(), opsPerCore)
	s2, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range s2.gens {
		r := g.(*tracefile.Replay)
		if r.Wraps() != 0 {
			t.Fatalf("stream %d wrapped (consumed > %d ops); byte-identity check needs a longer recording", i, opsPerCore)
		}
	}

	j1, err := json.Marshal(m1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(m2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("replay metrics differ from generator metrics\ngen:    %s\nreplay: %s", j1, j2)
	}
	if m1.Instructions == 0 || len(m1.WritesByMode) == 0 {
		t.Errorf("degenerate run: %d insts, no demand writes", m1.Instructions)
	}

	// Fork leg: a warmed replay system snapshotted and restored into a
	// fresh one (replay cursors included) measures the same run.
	warm, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Restore(blob); err != nil {
		t.Fatal(err)
	}
	m3, err := fork.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	j3, err := json.Marshal(m3)
	if err != nil {
		t.Fatal(err)
	}
	if string(j3) != string(j2) {
		t.Errorf("forked replay metrics differ from the straight replay run\nreplay: %s\nfork:   %s", j2, j3)
	}
}

// TestReplayChecksumMismatch: a config whose TraceRef.Sum does not match
// the file's content must be rejected at System construction.
func TestReplayChecksumMismatch(t *testing.T) {
	cfg := quickConfig(t, RRMScheme(), "hmmer")
	rw := exportWorkload(t, cfg, t.TempDir(), 1000)
	rw.Replay[0].Sum ^= 1
	cfg.Workload = rw
	if _, err := New(cfg); err == nil {
		t.Error("checksum mismatch accepted")
	}
}
