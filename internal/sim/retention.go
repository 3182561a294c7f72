package sim

import (
	"fmt"

	"rrmpcm/internal/core"

	"rrmpcm/internal/pcm"
	"rrmpcm/internal/timing"
)

// retentionChecker machine-checks the paper's correctness claim: no block
// written with a short-retention mode may outlive its drift deadline
// without being rewritten (by a demand write or any refresh). Blocks
// written with the long mode are dropped from tracking — their deadline
// is covered by the device's built-in global refresh, which the paper
// (and we) assume handles the 3054.9 s horizon.
//
// Deadlines use the scaled retention clock, so the check is equally tight
// at any TimeScale: the RRM refreshes every 2 s/K against a deadline of
// 2.01 s/K.
type retentionChecker struct {
	longMode  pcm.WriteMode
	deadline  map[uint64]timing.Time // block addr -> expiry
	retention [pcm.Slowest + 1]timing.Time

	violations     uint64
	firstViolation string

	// Violation breakdown by the action that exposed the expiry, for
	// the RetentionDetail metric.
	expiredOnRead    uint64
	expiredOnRewrite uint64
	expiredAtEnd     uint64

	// horizon bounds checking: once the run's measurement window ends,
	// refresh issue stops, so expiries after the horizon are run
	// truncation artifacts, not policy violations.
	horizon timing.Time

	// sampling mirrors the policy's simulated-refresh sampling factor.
	sampling uint64
}

func newRetentionChecker(cfg Config) *retentionChecker {
	rc := &retentionChecker{
		longMode: cfg.Scheme.StaticMode,
		deadline: make(map[uint64]timing.Time),
		horizon:  timing.Forever,
		sampling: 1,
	}
	if cfg.Scheme.Kind == SchemeRRM {
		rc.longMode = cfg.Scheme.RRM.LongMode
	}
	for _, m := range pcm.Modes() {
		rc.retention[m] = cfg.scaledRetention(m)
	}
	return rc
}

// onWrite records a block (re)write completing at now with mode m.
// Short-retention blocks outside the simulated-refresh sample (see
// core.SampledBlock) are not tracked: their refreshes are accounted
// statistically, not simulated, so the checker verifies the sampled
// subset — which the shared hash makes representative.
func (rc *retentionChecker) onWrite(addr uint64, m pcm.WriteMode, now timing.Time) {
	blk := addr &^ 63
	rc.checkLive(blk, now, "rewritten", &rc.expiredOnRewrite)
	if m >= rc.longMode {
		// Long-retention data: global refresh territory.
		delete(rc.deadline, blk)
		return
	}
	if !core.SampledBlock(blk, rc.sampling) {
		return
	}
	rc.deadline[blk] = now + rc.retention[m]
}

// onRead verifies a read does not observe expired data.
func (rc *retentionChecker) onRead(addr uint64, now timing.Time) {
	rc.checkLive(addr&^63, now, "read", &rc.expiredOnRead)
}

// checkLive flags a violation if blk's short-retention deadline passed.
func (rc *retentionChecker) checkLive(blk uint64, now timing.Time, action string, counter *uint64) {
	d, ok := rc.deadline[blk]
	if !ok || now <= d || d >= rc.horizon {
		return
	}
	rc.violations++
	*counter++
	if rc.firstViolation == "" {
		rc.firstViolation = fmt.Sprintf("block %#x %s at %v, %v past its retention deadline",
			blk, action, now, now-d)
	}
	// Count each expiry once.
	delete(rc.deadline, blk)
}

// finish sweeps the remaining tracked blocks at simulation end.
func (rc *retentionChecker) finish(now timing.Time) {
	for blk, d := range rc.deadline {
		if now > d && d < rc.horizon {
			rc.violations++
			rc.expiredAtEnd++
			if rc.firstViolation == "" {
				rc.firstViolation = fmt.Sprintf("block %#x expired unrefreshed at simulation end", blk)
			}
		}
	}
}

// detail returns the serializable violation breakdown, nil when the run
// was clean (so clean runs' metrics JSON — and every existing golden
// file — is unchanged).
func (rc *retentionChecker) detail() *RetentionDetail {
	if rc.violations == 0 {
		return nil
	}
	return &RetentionDetail{
		Total:            rc.violations,
		ExpiredOnRead:    rc.expiredOnRead,
		ExpiredOnRewrite: rc.expiredOnRewrite,
		ExpiredAtEnd:     rc.expiredAtEnd,
		First:            rc.firstViolation,
	}
}
