# Tier-1 flow: `make ci` is what a reviewer runs before merging.
#
#   build  compile every package and command
#   vet    static checks
#   test   full unit suite
#   race   race-detector pass over the packages the parallel engine
#          drives (engine, experiments, the HTTP service, and the
#          sim/trace paths its workers execute concurrently)
#          plus the event queue, cache hierarchy, snapshot codec,
#          memory controller and RRM core that every simulation runs
#   bench  paper-artifact and hot-path benchmarks (quick windows), a
#          profiling aid; BenchmarkSimNew reports sim.New's ns/op and
#          B/op (the set-up every run and fork pays); the repo
#          benchmark is perfbench/run.sh
#   profile
#          CPU+heap profile of a representative experiment pass
#          (cpu.prof / mem.prof; inspect with `go tool pprof`)
#   ci     build + vet + test + race
#
# serve-smoke boots rrmserve on a scratch port, pushes one quick job
# through the full HTTP path (submit -> stream -> result -> metrics)
# and fails unless the result comes back 200.
#
# sample-smoke runs one steady-state configuration in full and sampled
# (8 windows, stride-16 fast-forward) and fails unless the sampled 95%
# interval contains the full-run IPC and the sampled run is faster.

GO ?= go

.PHONY: build vet test race bench profile ci serve-smoke sample-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/cache/... ./internal/core/... ./internal/dram/... ./internal/engine/... ./internal/experiments/... ./internal/memctrl/... ./internal/reliability/... ./internal/sampling/... ./internal/server/... ./internal/sim/... ./internal/snapshot/... ./internal/stats/... ./internal/timing/... ./internal/trace/...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

profile:
	$(GO) run ./cmd/experiments -quick -run table7 -warm-start \
		-cpuprofile cpu.prof -memprofile mem.prof -o /dev/null
	@echo "wrote cpu.prof / mem.prof; inspect with: $(GO) tool pprof cpu.prof"

serve-smoke:
	./scripts/serve_smoke.sh

sample-smoke:
	GO="$(GO)" ./scripts/sample_smoke.sh

ci: build vet test race
