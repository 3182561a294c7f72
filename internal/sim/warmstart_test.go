package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
)

// runStraight runs cfg start to finish and returns the metrics JSON.
func runStraight(t *testing.T, cfg Config) []byte {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// snapshotWarm warms a system under cfg and returns its snapshot blob.
func snapshotWarm(t *testing.T, cfg Config) []byte {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	blob, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// runForked restores blob into a fresh cfg system and measures it.
func runForked(t *testing.T, cfg Config, blob []byte) []byte {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(blob); err != nil {
		t.Fatal(err)
	}
	m, err := sys.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWarmStartForkBitIdentical is the warm-start correctness bar: for
// every golden configuration, snapshotting at the warmup boundary and
// measuring from the restored fork must produce metrics bit-identical to
// the straight-through run. This covers the event-queue re-arm ordering,
// every component codec, and the callback-identity reconstruction. The
// tiered cases add the mid tiers' vectors and timers: A4's own (whose
// 103 ms scaled mid interval never fires in the window) and three mid
// tiers on intervals short enough to fire on both sides of the snapshot.
func TestWarmStartForkBitIdentical(t *testing.T) {
	cases := append(goldenCases(), []struct {
		name     string
		scheme   Scheme
		workload string
	}{
		{"rrm-a4-GemsFDTD", tieredScheme(a4Tiers()), "GemsFDTD"},
		{"rrm-5tier-GemsFDTD", tieredScheme([]core.RRMTier{
			{Mode: pcm.Mode6SETs, Threshold: 4, RefreshInterval: 400 * timing.Millisecond},
			{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: 300 * timing.Millisecond},
			{Mode: pcm.Mode4SETs, Threshold: 12, RefreshInterval: 200 * timing.Millisecond},
		}), "GemsFDTD"},
	}...)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w, err := trace.WorkloadByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenConfig(tc.scheme, w)
			straight := runStraight(t, cfg)
			forked := runForked(t, cfg, snapshotWarm(t, cfg))
			if !bytes.Equal(straight, forked) {
				t.Errorf("forked run diverged from straight-through:\n%s", goldenDiff(straight, forked))
			}
			if len(tc.scheme.RRM.MidTiers) == 0 {
				return
			}
			var m Metrics
			if err := json.Unmarshal(straight, &m); err != nil {
				t.Fatal(err)
			}
			for _, mt := range tc.scheme.RRM.MidTiers {
				if m.WritesByMode[mt.Mode] == 0 {
					t.Errorf("no %v writes: the case does not exercise its mid tiers", mt.Mode)
				}
			}
			if m.RetentionViolations != 0 {
				t.Errorf("%d retention violations (%s)", m.RetentionViolations, m.FirstViolation)
			}
		})
	}
}

// TestWarmStartForkReliability covers the reliability engine, patrol
// scrub and retention checker codecs, which the golden cases leave off.
func TestWarmStartForkReliability(t *testing.T) {
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig(RRMScheme(), w)
	cfg.Reliability.Enabled = true
	cfg.Reliability.Patrol = true
	straight := runStraight(t, cfg)
	forked := runForked(t, cfg, snapshotWarm(t, cfg))
	if !bytes.Equal(straight, forked) {
		t.Errorf("forked reliability run diverged from straight-through:\n%s", goldenDiff(straight, forked))
	}
}

// TestWarmStartCrossDuration forks one warm snapshot into runs whose
// measurement windows differ from the run that produced it — the sweep
// use case. Each fork must match the straight-through run of the same
// total duration.
func TestWarmStartCrossDuration(t *testing.T) {
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	base := goldenConfig(RRMScheme(), w)
	blob := snapshotWarm(t, base)
	for _, d := range []timing.Time{1000 * timing.Microsecond, 2000 * timing.Microsecond} {
		cfg := base
		cfg.Duration = d
		straight := runStraight(t, cfg)
		forked := runForked(t, cfg, blob)
		if !bytes.Equal(straight, forked) {
			t.Errorf("duration %v: forked run diverged:\n%s", d, goldenDiff(straight, forked))
		}
	}
}

// TestSnapshotRejectsCorruption flips bytes across a real system snapshot
// and demands Restore fail cleanly (never panic, never silently accept).
func TestSnapshotRejectsCorruption(t *testing.T) {
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig(RRMScheme(), w)
	blob := snapshotWarm(t, cfg)
	for i := 0; i < len(blob); i += 997 {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Restore(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

// TestRestoreRejectsOldFormat: a blob whose header names an older
// format version is rejected by version, before any section is parsed,
// even when its checksum is valid.
func TestRestoreRejectsOldFormat(t *testing.T) {
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig(RRMScheme(), w)
	blob := snapshotWarm(t, cfg)
	old := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint16(old[4:], sysSnapVersion-1) // after the u32 magic
	body := old[:len(old)-8]
	binary.LittleEndian.PutUint64(old[len(body):], snapshot.Checksum(body))
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("v%d", sysSnapVersion-1)
	if err := sys.Restore(old); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Restore of a %s blob = %v, want a version error", want, err)
	}
	sys, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(blob); err != nil {
		t.Fatalf("Restore of the unmodified blob: %v", err)
	}
}

// TestSnapshotLifecycle pins the phase rules: no snapshot before warmup
// or after measurement, no restore into a used system.
func TestSnapshotLifecycle(t *testing.T) {
	w, err := trace.WorkloadByName("GemsFDTD")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig(RRMScheme(), w)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Error("Snapshot before Warmup succeeded")
	}
	if _, err := sys.Measure(context.Background()); err == nil {
		t.Error("Measure before Warmup succeeded")
	}
	if err := sys.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Warmup(context.Background()); err == nil {
		t.Error("double Warmup succeeded")
	}
	blob, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(blob); err == nil {
		t.Error("Restore into a warmed system succeeded")
	}
	if _, err := sys.Measure(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Measure(context.Background()); err == nil {
		t.Error("double Measure succeeded")
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Error("Snapshot after Measure succeeded")
	}
}
