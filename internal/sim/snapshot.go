package sim

import (
	"fmt"
	"sort"

	"rrmpcm/internal/memctrl"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/snapshot"
	"rrmpcm/internal/timing"
)

// System snapshot format. The blob is the deterministic binary encoding
// of internal/snapshot: a magic+version header, each component's section
// in a fixed order, and a trailing checksum. Pending events travel as
// (time, seq) descriptors and are re-armed in global (time, seq) order on
// restore (timing.Rearm), which reproduces the original dispatch sequence
// exactly — a restored run is bit-identical to the run it forked from.
// Version history: v1 through PR 6; v2 adds the tenant-tracker section
// (and streams may now be Dynamic or Replay cursors, whose section tags
// differ from Mixture's); v3 adds the hybrid DRAM/migration sections and
// the OwnerMigrate identity for in-flight copy reads.
// v4 adds the shard-mailbox section (and the controller wakeup record
// may now describe a timer slot — same bytes, same (time, seq)
// position, whichever engine wrote it).
// v5 drops the per-region wear list from the wear section (the
// per-4-KB-region wear array it encoded is gone; wear keeps its
// per-kind, per-mode and per-bank counts).
// v6 drops the v4 shard-mailbox count (always 0) with the sharded
// engine it served.
// v7 encodes each cache line as one word (block<<1 | dirty, each set
// in recency order) and drops the per-line flags byte, LRU stamps and
// per-level use clock.
// v8 drops the v2 tenant-tracker presence flag (always false) with
// multi-tenant attribution.
// v9 drops the retention-checker presence flag (always true once the
// checker became unconditional).
// engine.warmHashVersion was bumped alongside each, so older blobs are
// never looked up, let alone misparsed.
const (
	sysSnapMagic   uint32 = 0x52524D53 // "RRMS"
	sysSnapVersion uint16 = 9
)

// Snapshot serializes a warmed system (after Warmup, before Measure).
// The blob can be restored into a freshly built System with the same
// warmup-relevant configuration.
func (s *System) Snapshot() ([]byte, error) {
	if s.phase != phaseWarm {
		return nil, fmt.Errorf("sim: Snapshot requires a warmed, unmeasured system (have %s)", s.phase)
	}
	w := snapshot.NewWriter(max(1<<20, s.snapCap))
	w.Header(sysSnapMagic, sysSnapVersion)
	w.I64(int64(s.eq.Now()))
	w.U32(uint32(len(s.cores)))
	for i, c := range s.cores {
		s.gens[i].Snapshot(w)
		c.Snapshot(w)
	}
	s.hier.Snapshot(w)
	if err := s.ctl.Snapshot(w); err != nil {
		return nil, err
	}
	s.wear.Snapshot(w)
	s.energy.Snapshot(w)
	w.Bool(s.rrm != nil)
	if s.rrm != nil {
		if err := s.rrm.Snapshot(w); err != nil {
			return nil, err
		}
	}
	w.Bool(s.rel != nil)
	if s.rel != nil {
		if err := s.rel.Snapshot(w); err != nil {
			return nil, err
		}
	}
	s.checker.snapshot(w)
	w.Bool(s.migr != nil)
	if s.migr != nil {
		if err := s.dramDev.Snapshot(w); err != nil {
			return nil, err
		}
		if err := s.migr.Snapshot(w); err != nil {
			return nil, err
		}
	}
	if err := s.backend.snapshot(w); err != nil {
		return nil, err
	}
	w.Bool(s.patrolFn != nil)
	if s.patrolFn != nil {
		w.I64(int64(s.patrolAt))
		w.I64(s.patrolSeq)
	}
	blob := w.Finish()
	s.snapCap = len(blob) + len(blob)/8
	return blob, nil
}

// Restore loads a Snapshot blob into a freshly built System, leaving it
// in the warmed state: Measure picks up exactly where the snapshotted
// run's warmup ended. The system must have been built from a
// configuration whose warmup-relevant prefix matches the one that
// produced the blob (the engine keys its snapshot cache by that prefix);
// structural mismatches are detected and returned as errors.
func (s *System) Restore(blob []byte) error {
	if s.phase != phaseNew {
		return fmt.Errorf("sim: Restore requires a freshly built system (have %s)", s.phase)
	}
	r, err := snapshot.NewReader(blob, sysSnapMagic, sysSnapVersion)
	if err != nil {
		return err
	}
	if v := r.Version(); v != sysSnapVersion {
		return fmt.Errorf("sim: snapshot format v%d, this build reads only v%d", v, sysSnapVersion)
	}
	warm := timing.Time(r.I64())
	if n := r.U32(); r.Err() == nil && int(n) != len(s.cores) {
		r.Fail("sim: snapshot has %d cores, live system %d", n, len(s.cores))
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.eq.Reset(warm)
	var pend []timing.Pending
	for i, c := range s.cores {
		s.gens[i].Restore(r)
		c.Restore(r, &pend)
	}
	s.hier.Restore(r)
	// The owner resolver rebuilds read-completion callbacks: core demand
	// reads via MissCallback, hybrid-tier copy reads via the migration
	// engine (nil for a hybrid/config mismatch, which the hybrid marker
	// check below turns into a restore error).
	resolve := func(core int, store bool, inst uint64) func(timing.Time) {
		if core == memctrl.OwnerMigrate {
			if s.migr == nil {
				return nil
			}
			return s.migr.CopyDoneCallback(inst)
		}
		return s.cores[core].MissCallback(store, inst)
	}
	s.ctl.Restore(r, resolve, &pend)
	s.wear.Restore(r)
	s.energy.Restore(r)
	if hasRRM := r.Bool(); r.Err() == nil && hasRRM != (s.rrm != nil) {
		r.Fail("sim: snapshot/config scheme mismatch (rrm present: %v)", hasRRM)
	}
	if s.rrm != nil && r.Err() == nil {
		s.rrm.Restore(r, s.eq, &pend)
	}
	if hasRel := r.Bool(); r.Err() == nil && hasRel != (s.rel != nil) {
		r.Fail("sim: snapshot/config reliability mismatch (present: %v)", hasRel)
	}
	if s.rel != nil && r.Err() == nil {
		s.rel.Restore(r)
	}
	s.checker.restore(r)
	if hasHyb := r.Bool(); r.Err() == nil && hasHyb != (s.migr != nil) {
		r.Fail("sim: snapshot/config hybrid mismatch (present: %v)", hasHyb)
	}
	if s.migr != nil && r.Err() == nil {
		s.dramDev.Restore(r, resolve, &pend)
		s.migr.Restore(r)
	}
	s.backend.restore(r, &pend)
	if r.Bool() {
		at := timing.Time(r.I64())
		seq := r.I64()
		if r.Err() == nil {
			if s.rel == nil || !s.cfg.Reliability.Patrol {
				return fmt.Errorf("sim: snapshot has a patrol scrub but the configuration does not")
			}
			s.initPatrol()
			pend = append(pend, timing.Pending{At: at, Seq: seq, Arm: func() {
				s.armPatrol(at)
			}})
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	timing.Rearm(pend)
	s.phase = phaseWarm
	return nil
}

// --- retention checker ---

const chkSection = 0x5243 // "RC"

func (rc *retentionChecker) snapshot(w *snapshot.Writer) {
	w.Section(chkSection)
	keys := make([]uint64, 0, len(rc.deadline))
	for k := range rc.deadline {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.I64(int64(rc.deadline[k]))
	}
	w.U64(rc.violations)
	w.String(rc.firstViolation)
	w.U64(rc.expiredOnRead)
	w.U64(rc.expiredOnRewrite)
	w.U64(rc.expiredAtEnd)
}

func (rc *retentionChecker) restore(r *snapshot.Reader) {
	r.Section(chkSection)
	n := r.Count(1 << 26)
	rc.deadline = make(map[uint64]timing.Time, n)
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		k := r.U64()
		rc.deadline[k] = timing.Time(r.I64())
	}
	rc.violations = r.U64()
	rc.firstViolation = r.String()
	rc.expiredOnRead = r.U64()
	rc.expiredOnRewrite = r.U64()
	rc.expiredAtEnd = r.U64()
}

// --- backend ---

const beSection = 0x4245 // "BE"

// putOverflowReq serializes a parked (never-enqueued) request: only the
// exported payload and owner identity matter.
func putOverflowReq(w *snapshot.Writer, req *memctrl.Request) error {
	if req.OnDone != nil && req.OwnerCore < 0 {
		return fmt.Errorf("sim: parked request with a callback but no owner identity")
	}
	w.U8(uint8(req.Kind))
	w.U64(req.Addr)
	w.U8(uint8(req.Mode))
	w.U8(uint8(req.Wear))
	w.I64(int64(req.OwnerCore))
	w.Bool(req.OwnerStore)
	w.U64(req.OwnerInst)
	return nil
}

func (b *backend) getOverflowReq(r *snapshot.Reader) *memctrl.Request {
	req := b.sys.ctl.AcquireRequest()
	req.Kind = memctrl.RequestKind(r.U8())
	req.Addr = r.U64()
	req.Mode = pcm.WriteMode(r.U8())
	req.Wear = pcm.WearKind(r.U8())
	req.OwnerCore = int(r.I64())
	req.OwnerStore = r.Bool()
	req.OwnerInst = r.U64()
	if req.OwnerCore >= 0 {
		req.OnDone = b.sys.cores[req.OwnerCore].MissCallback(req.OwnerStore, req.OwnerInst)
	}
	return req
}

func (b *backend) snapshot(w *snapshot.Writer) error {
	w.Section(beSection)
	for _, lists := range [3][][]*memctrl.Request{b.overflowWrites, b.overflowReads, b.pendingRefresh} {
		for _, list := range lists {
			w.U32(uint32(len(list)))
			for _, req := range list {
				if err := putOverflowReq(w, req); err != nil {
					return err
				}
			}
		}
	}
	for k := range b.spaceArmed {
		for _, armed := range b.spaceArmed[k] {
			w.Bool(armed)
		}
	}
	for _, th := range b.throttled {
		w.Bool(th)
	}
	w.U32(uint32(b.maxRefreshBacklog))
	w.U32(uint32(len(b.liveSubs)))
	for _, sub := range b.liveSubs {
		if err := putOverflowReq(w, sub.req); err != nil {
			return err
		}
		w.I64(int64(sub.coreID))
		w.I64(int64(sub.at))
		w.I64(sub.seq)
	}
	return nil
}

func (b *backend) restore(r *snapshot.Reader, pend *[]timing.Pending) {
	r.Section(beSection)
	b.totalOverflowWB = 0
	for li, lists := range [3]*[][]*memctrl.Request{&b.overflowWrites, &b.overflowReads, &b.pendingRefresh} {
		for ch := range *lists {
			n := r.Count(1 << 20)
			(*lists)[ch] = (*lists)[ch][:0]
			for i := 0; i < n; i++ {
				if r.Err() != nil {
					return
				}
				(*lists)[ch] = append((*lists)[ch], b.getOverflowReq(r))
			}
			if li == 0 {
				b.totalOverflowWB += len((*lists)[ch])
			}
		}
	}
	for k := range b.spaceArmed {
		for ch := range b.spaceArmed[k] {
			b.spaceArmed[k][ch] = false
			if r.Bool() && r.Err() == nil {
				// Re-register with the restored controller (waiter
				// closures do not travel in the snapshot).
				b.armSpace(memctrl.RequestKind(k), ch)
			}
		}
	}
	for i := range b.throttled {
		b.throttled[i] = r.Bool()
	}
	b.maxRefreshBacklog = int(r.U32())
	n := r.Count(1 << 20)
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		req := b.getOverflowReq(r)
		coreID := int(r.I64())
		at := timing.Time(r.I64())
		seq := r.I64()
		*pend = append(*pend, timing.Pending{At: at, Seq: seq, Arm: func() {
			b.submitAt(at, req, coreID)
		}})
	}
}
