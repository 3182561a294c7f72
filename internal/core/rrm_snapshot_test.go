package core

import (
	"slices"
	"strings"
	"testing"

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
		if want.valid && want.hot && want.timerGen == want.hotGen {
			timers++
			if have.timerGen != have.hotGen || have.timerAt != want.timerAt {
				t.Errorf("entry %d: timer not re-armed at %v", i, want.timerAt)
			}
		}
		want.timerSeq, have.timerSeq = 0, 0
		want.timerGen, have.timerGen = 0, 0
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
