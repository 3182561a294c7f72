package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"rrmpcm/internal/engine"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sim"
)

// ParseScheme maps a scheme spelling shared by the CLI flags and the
// HTTP service — "rrm" or "static-3".."static-7" — to a sim.Scheme with
// the paper's default parameters.
func ParseScheme(name string) (sim.Scheme, error) {
	if rest, ok := strings.CutPrefix(name, "static-"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || !pcm.WriteMode(n).Valid() {
			return sim.Scheme{}, fmt.Errorf("experiments: bad static scheme %q (want static-%d..static-%d)",
				name, pcm.Fastest.Sets(), pcm.Slowest.Sets())
		}
		return sim.StaticScheme(pcm.WriteMode(n)), nil
	}
	if name != "rrm" {
		return sim.Scheme{}, fmt.Errorf("experiments: unknown scheme %q (want rrm or static-N)", name)
	}
	return sim.RRMScheme(), nil
}

// SchemeNames lists the spellings ParseScheme accepts, for -h output
// and API discovery endpoints.
func SchemeNames() []string {
	names := make([]string, 0, 6)
	for _, m := range pcm.Modes() {
		names = append(names, fmt.Sprintf("static-%d", m.Sets()))
	}
	return append(names, "rrm")
}

// NewJob builds the engine job for one run configuration: the job key
// is the config hash (so identical configs are idempotent everywhere —
// Runner batches, the disk cache, and the HTTP service all agree on a
// run's identity) and the name is "label/scheme/workload" for progress
// output.
func NewJob(cfg sim.Config, label string) (engine.Job, error) {
	key, err := engine.ConfigHash(cfg)
	if err != nil {
		return engine.Job{}, err
	}
	name := cfg.Scheme.Name() + "/" + cfg.Workload.Name
	if label != "" {
		name = label + "/" + name
	}
	return engine.Job{Key: key, Name: name, Config: cfg}, nil
}
