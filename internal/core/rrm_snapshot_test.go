package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

const testSnapMagic = 0x54525252

func snapRRM(t *testing.T, r *RRM) []byte {
	t.Helper()
	w := snapshot.NewWriter(1 << 16)
	w.Header(testSnapMagic, 1)
	if err := r.Snapshot(w); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

func restoreRRM(t *testing.T, cfg RRMConfig, blob []byte) (*RRM, error) {
	t.Helper()
	r, err := NewRRM(cfg, &recordingIssuer{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.NewReader(blob, testSnapMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pend []timing.Pending
	r.Restore(rd, timing.NewEventQueue(), &pend)
	if err := rd.Done(); err != nil {
		return nil, err
	}
	timing.Rearm(pend)
	return r, nil
}

// TestRRMSnapshotRoundTrip: a table whose vectors are narrower than the
// snapshot's fixed width (2 KB regions: 32 blocks in one word) restores
// to the same table, live timers included. (Re-serializing is not
// byte-identical here: Rearm re-sequences the pending events.)
func TestRRMSnapshotRoundTrip(t *testing.T) {
	cfg := DefaultRRMConfig()
	cfg.RegionBytes = 2 << 10
	r, err := NewRRM(cfg, &recordingIssuer{})
	if err != nil {
		t.Fatal(err)
	}
	r.Start(timing.NewEventQueue())
	makeHotWithBlocks(r, 0, 20)
	makeHotWithBlocks(r, 7<<11, 32)
	r.RegisterLLCWrite(3<<11, true, 0) // a cold, valid entry
	blob := snapRRM(t, r)

	got, err := restoreRRM(t, cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if h, b := got.HotEntries(); h != 2 || b != 52 {
		t.Errorf("restored %d hot entries with %d short blocks, want 2 and 52", h, b)
	}
	if !slices.Equal(got.vecs, r.vecs) {
		t.Error("restored short-retention vectors differ")
	}
	timers := 0
	for i := range r.entries {
		want, have := r.entries[i], got.entries[i]
		if r.timerLive(i, r.top) {
			timers++
			if !got.timerLive(i, got.top) || have.timer.at != want.timer.at {
				t.Errorf("entry %d: timer not re-armed at %v", i, want.timer.at)
			}
		}
		want.timer.seq, have.timer.seq = 0, 0
		want.timer.armedGen, have.timer.armedGen = 0, 0
		if want != have {
			t.Errorf("entry %d: restored %+v, want %+v", i, have, want)
		}
	}
	if timers != 2 {
		t.Errorf("%d live timers, want 2", timers)
	}
}

// TestRRMRestoreRejectsBitsPastRegion: a short-retention bit past the
// region's last block cannot come from a live monitor.
func TestRRMRestoreRejectsBitsPastRegion(t *testing.T) {
	cfg := DefaultRRMConfig()
	cfg.RegionBytes = 2 << 10
	r, err := NewRRM(cfg, &recordingIssuer{})
	if err != nil {
		t.Fatal(err)
	}
	makeHotWithBlocks(r, 0, 4)
	r.vecSet(r.lookup(0), 40) // block 40 of a 32-block region
	_, err = restoreRRM(t, cfg, snapRRM(t, r))
	if err == nil || !strings.Contains(err.Error(), "past block 32") {
		t.Errorf("restore error = %v, want a bits-past-region rejection", err)
	}
}

// rrmBody encodes r's section without a blob header or checksum.
func rrmBody(r *RRM) []byte {
	w := snapshot.NewWriter(0)
	if err := r.Snapshot(w); err != nil {
		panic(err)
	}
	b := w.Finish()
	return b[:len(b)-8]
}

// readerForBody wraps a section body in a checksummed blob and returns a
// reader positioned at the section.
func readerForBody(t testing.TB, body []byte) *snapshot.Reader {
	t.Helper()
	w := snapshot.NewWriter(0)
	w.Header(testSnapMagic, 1)
	blob := append(w.Finish()[:6], body...)
	blob = binary.LittleEndian.AppendUint64(blob, snapshot.Checksum(blob))
	rd, err := snapshot.NewReader(blob, testSnapMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// restoreBody restores a section body into a fresh cfg monitor on a
// fresh queue and re-arms its events.
func restoreBody(t testing.TB, cfg RRMConfig, body []byte) (*RRM, *timing.EventQueue, error) {
	t.Helper()
	rd := readerForBody(t, body)
	r, err := NewRRM(cfg, NopIssuer{})
	if err != nil {
		t.Fatal(err)
	}
	eq := timing.NewEventQueue()
	var pend []timing.Pending
	r.Restore(rd, eq, &pend)
	if err := rd.Done(); err != nil {
		return nil, nil, err
	}
	timing.Rearm(pend)
	return r, eq, nil
}

// fuzzConfig is the paper's two-tier monitor or A4's tiered one at a
// 16x4 geometry, so a fuzzer can reach every entry, with intervals short
// enough for a few hundred microseconds to fire timers and decay wraps.
func fuzzConfig(tiered bool) RRMConfig {
	cfg := DefaultRRMConfig()
	cfg.Sets, cfg.Ways = 16, 4
	cfg.FastRefreshInterval = 100 * timing.Microsecond
	cfg.DecayInterval = 10 * timing.Microsecond
	if tiered {
		cfg.MidTiers = []RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: 400 * timing.Microsecond}}
	}
	return cfg
}

// ranSnapshot runs a started cfg monitor for 400 µs of skewed writes —
// eight busy regions, eight lukewarm ones and a tail that forces
// evictions — and returns its
// section restored once: a live run's event sequence numbers are
// arbitrary, and a restore renumbers them, so the restored section is
// the canonical encoding of the run's state.
func ranSnapshot(t testing.TB, cfg RRMConfig) []byte {
	t.Helper()
	eq := timing.NewEventQueue()
	r, err := NewRRM(cfg, NopIssuer{})
	if err != nil {
		t.Fatal(err)
	}
	r.Start(eq)
	state := uint64(1)
	for step := 0; step < 400; step++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		region := (state >> 4) % 8 // busy
		switch state % 8 {
		case 0, 1:
			region = 8 + (state>>4)%100 // tail
		case 2:
			region = 108 + (state>>4)%8 // lukewarm
		}
		r.RegisterLLCWrite(region<<12|(state>>8)%64<<6, state%16 != 3, eq.Now())
		eq.RunUntil(eq.Now() + timing.Microsecond)
	}
	got, _, err := restoreBody(t, cfg, rrmBody(r))
	if err != nil {
		t.Fatal(err)
	}
	return rrmBody(got)
}

// FuzzRRMRestore: arbitrary monitor sections either fail to restore or
// restore into a monitor whose section restores again to the same bytes
// and which keeps working; they never panic. Nothing in the section is a
// length, so restore allocates only per live timer of the configured
// table, never in proportion to the input. The seeds are the canonical
// sections of a two-tier and a tiered monitor after a short run, which
// restore and re-encode to themselves.
func FuzzRRMRestore(f *testing.F) {
	for _, tiered := range []bool{false, true} {
		cfg := fuzzConfig(tiered)
		seed := ranSnapshot(f, cfg)
		r, _, err := restoreBody(f, cfg, seed)
		if err != nil {
			f.Fatalf("tiered=%v seed does not restore: %v", tiered, err)
		}
		if !bytes.Equal(rrmBody(r), seed) {
			f.Fatalf("tiered=%v seed re-encodes differently", tiered)
		}
		live, tiers := 0, 0
		for i := range r.entries {
			for t := 1; t <= r.top; t++ {
				if r.timerLive(i, t) {
					live++
				}
			}
			if r.top > 1 && int(r.entries[i].tier) == r.top-1 {
				tiers++
			}
		}
		if live == 0 || (tiered && tiers == 0) {
			f.Fatalf("tiered=%v seed has %d live timers and %d mid-tier entries; the run exercises too little",
				tiered, live, tiers)
		}
		f.Logf("tiered=%v: %d live timers, %d mid-tier entries, %d bytes", tiered, live, tiers, len(seed))
		f.Add(tiered, seed)
	}
	f.Fuzz(func(t *testing.T, tiered bool, body []byte) {
		cfg := fuzzConfig(tiered)
		r, eq, err := restoreBody(t, cfg, body)
		if err != nil {
			return
		}
		enc := rrmBody(r)
		again, _, err := restoreBody(t, cfg, enc)
		if err != nil {
			t.Fatalf("restored monitor's section does not restore: %v", err)
		}
		if !bytes.Equal(rrmBody(again), enc) {
			t.Fatal("restored monitor's section re-encodes differently")
		}
		for a := uint64(0); a < 64; a++ {
			addr := a%24<<12 | a<<6
			r.RegisterLLCWrite(addr, true, eq.Now())
			r.DecideWriteMode(addr, eq.Now())
		}
		eq.RunUntil(eq.Now() + timing.Millisecond)
		r.HotEntries()
	})
}

// tieredSnapMonitor returns a started A4-shaped monitor (mid interval
// 400 µs, fast 100 µs) run for 250 µs with one region at each tier:
// region 1 at the mid tier, region 2 promoted live through the mid tier
// to the top one, region 3 cold.
func tieredSnapMonitor(t *testing.T) (*RRM, RRMConfig) {
	t.Helper()
	cfg := fuzzConfig(true)
	cfg.DecayInterval = timing.Second
	eq := timing.NewEventQueue()
	r, err := NewRRM(cfg, NopIssuer{})
	if err != nil {
		t.Fatal(err)
	}
	r.Start(eq)
	for i := 0; i < 8; i++ {
		r.RegisterLLCWrite(1<<12, true, eq.Now())
		r.RegisterLLCWrite(2<<12, true, eq.Now())
	}
	r.RegisterLLCWrite(1<<12|64, true, eq.Now())
	r.RegisterLLCWrite(2<<12|64, true, eq.Now())
	eq.RunUntil(50 * timing.Microsecond)
	for i := 0; i < 8; i++ {
		r.RegisterLLCWrite(2<<12|128, true, eq.Now())
	}
	r.RegisterLLCWrite(3<<12, true, eq.Now())
	eq.RunUntil(250 * timing.Microsecond)
	return r, cfg
}

// TestTieredSnapshotRoundTrip: a tiered monitor restores to the same
// table, mid vectors and live timers of every tier included.
func TestTieredSnapshotRoundTrip(t *testing.T) {
	r, cfg := tieredSnapMonitor(t)
	got, _, err := restoreBody(t, cfg, rrmBody(r))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.vecs, r.vecs) || !slices.Equal(got.mid.vecs, r.mid.vecs) {
		t.Error("restored vectors differ")
	}
	live := 0
	for i := range r.entries {
		for tier := 1; tier <= r.top; tier++ {
			if !r.timerLive(i, tier) {
				continue
			}
			live++
			if !got.timerLive(i, tier) || got.timer(i, tier).at != r.timer(i, tier).at {
				t.Errorf("entry %d tier %d: timer not re-armed at %v", i, tier, r.timer(i, tier).at)
			}
		}
		want, have := r.entries[i], got.entries[i]
		want.timer.seq, have.timer.seq = 0, 0
		want.timer.armedGen, have.timer.armedGen = 0, 0
		if want != have {
			t.Errorf("entry %d: restored %+v, want %+v", i, have, want)
		}
	}
	// Region 1: its mid timer; region 2: its mid and top timers.
	if live != 3 {
		t.Errorf("%d live timers, want 3", live)
	}
}

// TestTieredRestoreRejects: tier state a live monitor cannot reach is
// rejected, as are events due before the restore clock.
func TestTieredRestoreRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(r *RRM)
		want   string
	}{
		{"tier out of range", func(r *RRM) { r.entries[r.lookup(1)].tier = 3 }, "tier 3 out of range"},
		{"mid blocks on a cold entry", func(r *RRM) { r.tierVec(r.lookup(3), 1)[0] = 1 }, "tracks tier-1 blocks at tier 0"},
		{"top blocks on a mid entry", func(r *RRM) { r.vecSet(r.lookup(1), 5) }, "tracks tier-2 blocks at tier 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, cfg := tieredSnapMonitor(t)
			tc.mutate(r)
			_, _, err := restoreBody(t, cfg, rrmBody(r))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("restore error = %v, want %q", err, tc.want)
			}
		})
	}
	t.Run("timer before the clock", func(t *testing.T) {
		r, cfg := tieredSnapMonitor(t)
		rd := readerForBody(t, rrmBody(r))
		fresh, err := NewRRM(cfg, NopIssuer{})
		if err != nil {
			t.Fatal(err)
		}
		eq := timing.NewEventQueue()
		eq.RunUntil(timing.Second) // past every pending event
		var pend []timing.Pending
		fresh.Restore(rd, eq, &pend)
		if err := rd.Err(); err == nil || !strings.Contains(err.Error(), "before the snapshot clock") {
			t.Errorf("restore error = %v, want a before-the-clock rejection", err)
		}
	})
}
