package trace

import (
	"fmt"

	"rrmpcm/internal/snapshot"
)

// Stream is the per-core instruction source the simulator drives: an
// infinite deterministic generator plus the core-model parameters and
// the snapshot hooks warm-start needs. Mixture (synthetic) and Dynamic
// (non-stationary synthetic) implement it.
//
// MaxMLP and BaseCPI must stay constant for the stream's lifetime: the
// core model caches both at construction (the per-instruction time step
// is precomputed), so a stream whose phases nominally have different
// BaseCPI values still reports one fixed value — phase changes act on
// the memory side (intensity, mix, addresses), not the core pipeline.
type Stream interface {
	Generator
	MaxMLP() int
	BaseCPI() float64
	Snapshot(w *snapshot.Writer)
	Restore(r *snapshot.Reader)
}

// CoreSeed derives core i's stream sub-seed from the run seed: the
// single definition of the simulator's per-core seeding rule (NewStream).
func CoreSeed(seed uint64, core int) uint64 {
	return seed*1_000_003 + uint64(core)
}

// CorePartition returns core i's address partition [base, base+span)
// when n streams split memBytes evenly — the simulator's layout rule.
func CorePartition(memBytes uint64, n, core int) (base, span uint64) {
	span = memBytes / uint64(n)
	return uint64(core) * span, span
}

// NewStream builds core i's generator for workload w over the address
// partition [base, base+span) with the run seed (the per-core sub-seed
// is derived internally). Synthetic workloads get a Mixture, wrapped by
// a Dynamic when the workload declares non-stationary dynamics.
func NewStream(w Workload, i int, base, span, seed uint64) (Stream, error) {
	if i < 0 || i >= len(w.Cores) {
		return nil, fmt.Errorf("trace: stream index %d out of %d cores", i, len(w.Cores))
	}
	sub := CoreSeed(seed, i)
	if w.Dynamics == nil {
		return NewMixture(w.Cores[i], base, span, sub)
	}
	return NewDynamic(w.Cores[i], w.Dynamics, base, span, sub)
}
