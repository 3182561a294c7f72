package memctrl

import (
	"math/rand"
	"testing"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

// addrAt returns the address of channel 0, the given bank and row.
func (r *testRig) addrAt(bank int, row uint64) uint64 {
	return r.amap.Encode(pcm.Location{Bank: bank, Row: row})
}

// TestWakeupSkipsKickedBank: a read queued behind an in-flight read on
// the same bank arms no wakeup — the in-flight read's completion kicks
// the channel the instant the bank frees.
func TestWakeupSkipsKickedBank(t *testing.T) {
	r := newRig(t, nil)
	var second timing.Time
	r.ctl.TryEnqueue(&Request{Kind: ReadReq, Addr: r.addrAt(3, 0)})
	r.ctl.TryEnqueue(&Request{Kind: ReadReq, Addr: r.addrAt(3, 1), OnDone: func(now timing.Time) { second = now }})
	ch := r.ctl.chans[0]
	if len(ch.queues[ReadReq]) != 1 {
		t.Fatalf("%d reads queued, want the second one waiting", len(ch.queues[ReadReq]))
	}
	if ch.wakeupEv.Valid() {
		t.Fatalf("wakeup armed at %v; the completion at %v already kicks", ch.wakeupAt, ch.bankFree[3])
	}
	if ch.kickAt[3] != ch.bankFree[3] {
		t.Fatalf("kickAt %v != bankFree %v for an unstalled read", ch.kickAt[3], ch.bankFree[3])
	}
	r.run(t)
	miss := timing.MemCycles(48) + timing.MemCycles(1) + timing.MemCycles(8)
	if want := 2 * miss; second != want {
		t.Errorf("second read done at %v, want %v (started when the bank freed)", second, want)
	}
}

// TestWakeupAtECCStallBankFree: an ECC stall completes the read after
// its bank frees, so the queued read behind it needs a wakeup at the
// bank's release, not at the stalled completion.
func TestWakeupAtECCStallBankFree(t *testing.T) {
	r := newRig(t, nil)
	ri := &fixedStallIntegrity{stall: 25 * timing.Nanosecond}
	r.ctl.SetReadIntegrity(ri)
	var second timing.Time
	r.ctl.TryEnqueue(&Request{Kind: ReadReq, Addr: r.addrAt(3, 0)})
	r.ctl.TryEnqueue(&Request{Kind: ReadReq, Addr: r.addrAt(3, 1), OnDone: func(now timing.Time) { second = now }})
	ch := r.ctl.chans[0]
	miss := timing.MemCycles(48) + timing.MemCycles(1) + timing.MemCycles(8)
	if ch.bankFree[3] != miss || ch.kickAt[3] != miss+ri.stall {
		t.Fatalf("bankFree %v kickAt %v, want %v and %v", ch.bankFree[3], ch.kickAt[3], miss, miss+ri.stall)
	}
	if !ch.wakeupEv.Valid() || ch.wakeupAt != miss {
		t.Fatalf("wakeup armed=%v at %v, want one at bankFree %v", ch.wakeupEv.Valid(), ch.wakeupAt, miss)
	}
	r.run(t)
	if want := 2*miss + ri.stall; second != want {
		t.Errorf("second read done at %v, want %v", second, want)
	}
}

// TestWakeupAtTFAWExpiry: a row-miss read blocked only by the
// four-activate window arms a wakeup at the instant the window admits
// its activation.
func TestWakeupAtTFAWExpiry(t *testing.T) {
	r := newRig(t, nil)
	cfg := r.ctl.Config()
	for b := 0; b <= cfg.FAWLimit; b++ {
		r.ctl.TryEnqueue(&Request{Kind: ReadReq, Addr: r.addrAt(b, 0)})
	}
	ch := r.ctl.chans[0]
	if len(ch.queues[ReadReq]) != 1 {
		t.Fatalf("%d reads queued, want only the tFAW-blocked one", len(ch.queues[ReadReq]))
	}
	if at := ch.actAllowedAt(0); at != cfg.TFAW {
		t.Fatalf("activation allowed at %v, want %v", at, cfg.TFAW)
	}
	if !ch.wakeupEv.Valid() || ch.wakeupAt != cfg.TFAW {
		t.Fatalf("wakeup armed=%v at %v, want one at tFAW expiry %v", ch.wakeupEv.Valid(), ch.wakeupAt, cfg.TFAW)
	}
	r.run(t)
	if s := r.ctl.Stats(); s.ReadsServed != uint64(cfg.FAWLimit+1) {
		t.Errorf("served %d reads, want %d", s.ReadsServed, cfg.FAWLimit+1)
	}
}

// forkTraffic injects phase p's deterministic burst of pooled reads,
// writes and refreshes; requests the queues reject go back to the pool.
func forkTraffic(r *testRig, p int) {
	rng := rand.New(rand.NewSource(int64(p)))
	for i := 0; i < 6; i++ {
		req := r.ctl.AcquireRequest()
		req.Addr = r.amap.Encode(pcm.Location{
			Channel: rng.Intn(2), Bank: rng.Intn(4), Row: uint64(rng.Intn(3)),
		})
		switch k := rng.Intn(10); {
		case k < 6:
			req.Kind = ReadReq
		case k < 9:
			req.Kind, req.Mode, req.Wear = WriteReq, pcm.Modes()[rng.Intn(5)], pcm.WearDemandWrite
		default:
			req.Kind, req.Mode, req.Wear = RefreshReq, pcm.Mode3SETs, pcm.WearRRMRefresh
		}
		if !r.ctl.TryEnqueue(req) {
			r.ctl.release(req)
		}
	}
}

// oddRowStall stalls reads to odd rows only.
type oddRowStall struct {
	amap  *pcm.AddressMap
	stall timing.Time
}

func (o oddRowStall) OnDemandRead(addr uint64, _ timing.Time) timing.Time {
	if o.amap.Decode(addr).Row%2 == 1 {
		return o.stall
	}
	return 0
}

// countUntil dispatches every event due by deadline, returning how many.
func countUntil(q *timing.EventQueue, deadline timing.Time) int {
	n := 0
	for q.PeekTime() <= deadline {
		q.Step()
		n++
	}
	q.RunUntil(deadline)
	return n
}

// TestWakeupForkDispatchesLikeDonor: kickAt is not in the snapshot; a
// controller restored mid-run must rebuild it so the fork arms exactly
// the wakeups the donor arms — same event count, same stats. The cut
// sweeps many instants so it lands with stalled and unstalled reads,
// paused writes and tFAW waits in flight. Reads to odd rows stall for
// exactly one row-hit read, so an older read's stalled completion often
// coincides with the release of the newer read on its bank.
func TestWakeupForkDispatchesLikeDonor(t *testing.T) {
	const (
		step   = 97 * timing.Nanosecond
		phases = 300
	)
	newStalled := func() *testRig {
		r := newRig(t, nil)
		cfg := r.ctl.Config()
		r.ctl.SetReadIntegrity(oddRowStall{r.amap, cfg.TCAS + cfg.BusXfer})
		return r
	}
	for cut := 3; cut < 80; cut++ {
		// Odd cuts fall between a phase's injection and its run, with
		// just-forwarded reads in flight; even cuts between phases.
		donor := newStalled()
		for p := 0; p < cut; p++ {
			forkTraffic(donor, p)
			countUntil(donor.eq, donor.eq.Now()+step)
		}
		first := cut
		if cut%2 == 1 {
			forkTraffic(donor, cut)
			first++
		}
		w := snapshot.NewWriter(4096)
		w.Header(0x464B, 1)
		if err := donor.ctl.Snapshot(w); err != nil {
			t.Fatal(err)
		}
		blob := w.Finish()

		fork := newStalled()
		sr, err := snapshot.NewReader(blob, 0x464B, 1)
		if err != nil {
			t.Fatal(err)
		}
		fork.eq.Reset(donor.eq.Now())
		var pend []timing.Pending
		fork.ctl.Restore(sr, nil, &pend)
		if err := sr.Done(); err != nil {
			t.Fatal(err)
		}
		timing.Rearm(pend)

		donorEvents, forkEvents := 0, 0
		for p := cut; p < phases; p++ {
			if p >= first {
				forkTraffic(donor, p)
				forkTraffic(fork, p)
			}
			until := donor.eq.Now() + step
			donorEvents += countUntil(donor.eq, until)
			forkEvents += countUntil(fork.eq, until)
		}
		donorEvents += countUntil(donor.eq, timing.Forever-1)
		forkEvents += countUntil(fork.eq, timing.Forever-1)
		if forkEvents != donorEvents {
			t.Errorf("cut after %d phases: fork dispatched %d events, donor %d", cut, forkEvents, donorEvents)
		}
		if donor.ctl.Stats() != fork.ctl.Stats() {
			t.Errorf("cut after %d phases: fork stats diverged:\nfork  %+v\ndonor %+v", cut, fork.ctl.Stats(), donor.ctl.Stats())
		}
		if s := donor.ctl.Stats(); s.WritePauses == 0 || s.ReadsServed == 0 {
			t.Errorf("traffic exercised no pauses or reads: %+v", s)
		}
	}
}
