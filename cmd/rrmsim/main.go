// Command rrmsim runs simulations of the Tables IV/V system and prints
// full metrics reports.
//
// Usage:
//
//	rrmsim [-scheme rrm|static-3|...|static-7] [-workload GemsFDTD[,mcf,...]|all]
//	       [-duration 40ms] [-warmup 10ms] [-timescale 100]
//	       [-hot-threshold 16] [-coverage 4] [-region-kb 4] [-seed 1]
//	       [-parallel N] [-cache-dir dir] [-warm-start] [-json]
//	       [-sample] [-sample-windows 8] [-sample-window 100us]
//	       [-sample-detail 100us] [-sample-stride 1]
//	       [-reliability] [-ecc-t 4] [-prog-ber 1e-5] [-ecc-latency 25ns]
//	       [-patrol] [-patrol-interval 100ms] [-patrol-batch 64]
//	       [-hybrid] [-hybrid-mb 64] [-hybrid-policy wcount|recency]
//	       [-hybrid-threshold 4] [-hybrid-page 4096] [-hybrid-batch 8]
//	       [-cpuprofile file] [-memprofile file]
//
// -hybrid fronts the PCM with a DRAM staging tier and hot-page migration
// engine: hot pages (promoted by -hybrid-policy after -hybrid-threshold
// missed writes, or any accesses for "recency") are staged in -hybrid-mb
// of DRAM, demand writes to them are absorbed at DRAM latency, and
// cold-dirty pages demote back to PCM in coalesced batches of
// -hybrid-batch pages. The report gains a Hybrid tier section with the
// per-tier traffic split and migration counters.
//
// -sample runs each simulation as a SMARTS-style sampled run instead of
// one contiguous detailed window: -sample-windows detailed windows of
// -sample-window each (preceded by -sample-detail of discarded pre-roll)
// are spread over -duration, the gaps fast-forward in functional-only
// mode, and the windows execute in parallel. The report gains a Sampling
// section with 95% confidence intervals; -sample-stride above 1 thins
// the functional warming between windows for long steady-state runs.
//
// -reliability turns on the drift-fault injector, the t-bit ECC model
// and the scrubber; the report gains a Reliability section and the JSON
// output a "reliability" block. -json prints each run's full Metrics
// document instead of the text report.
//
// -workload accepts a comma-separated list (or "all"); the runs fan out
// over the parallel experiment engine, reports printed in the order the
// workloads were named regardless of completion order. With -cache-dir,
// finished runs persist to disk keyed by config hash and later
// invocations reload them instead of re-simulating.
//
// -warm-start shares simulation warmup across the batch's runs where
// their configs differ only in post-warmup knobs; results are
// bit-identical either way. With -cache-dir, warm snapshots persist
// under <cache-dir>/snapshots and later invocations fork from them.
// -cpuprofile and -memprofile write pprof profiles of the whole batch.
//
// Examples:
//
//	rrmsim -scheme rrm -workload GemsFDTD
//	rrmsim -scheme static-3 -workload MIX_2 -duration 20ms
//	rrmsim -scheme rrm -hot-threshold 8   # the paper's aggressive config
//	rrmsim -scheme rrm -workload all -parallel 8 -cache-dir /tmp/rrm-cache
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rrmpcm"
	"rrmpcm/internal/buildinfo"
	"rrmpcm/internal/engine"
	"rrmpcm/internal/experiments"
	"rrmpcm/internal/profiling"
	"rrmpcm/internal/stats"
)

func main() {
	scheme := flag.String("scheme", "rrm", "write scheme: rrm or static-3..static-7")
	workload := flag.String("workload", "GemsFDTD", "comma-separated workload names, or \"all\" (see -list-workloads)")
	duration := flag.Duration("duration", 40*time.Millisecond, "measured simulation window")
	warmup := flag.Duration("warmup", 10*time.Millisecond, "warmup before measurement")
	timescale := flag.Float64("timescale", 100, "retention clock acceleration")
	hotThreshold := flag.Int("hot-threshold", 16, "RRM hot_threshold (aggressiveness)")
	coverage := flag.Int("coverage", 4, "RRM LLC coverage rate (2/4/8/16)")
	regionKB := flag.Uint64("region-kb", 4, "RRM entry coverage size in KB")
	seed := flag.Uint64("seed", 1, "workload seed")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "disk-backed run cache directory (empty = no cache)")
	warmStart := flag.Bool("warm-start", false, "share simulation warmup across runs with equal warm prefixes")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the batch to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	reliabilityOn := flag.Bool("reliability", false, "enable the drift-fault/ECC/scrubbing model")
	eccT := flag.Int("ecc-t", rrmpcm.DefaultReliabilityConfig().ECCBits, "ECC correction strength in bits per 64B line (with -reliability)")
	progBER := flag.Float64("prog-ber", rrmpcm.DefaultReliabilityConfig().ProgBitErrorProb, "programming bit-error probability (with -reliability)")
	eccLatency := flag.Duration("ecc-latency", 25*time.Nanosecond, "read-path stall per ECC correction (with -reliability)")
	patrol := flag.Bool("patrol", false, "enable background patrol scrubbing (with -reliability)")
	patrolInterval := flag.Duration("patrol-interval", 100*time.Millisecond, "real-time interval between patrol batches (with -patrol)")
	patrolBatch := flag.Int("patrol-batch", rrmpcm.DefaultReliabilityConfig().PatrolBatch, "lines scrubbed per patrol batch (with -patrol)")
	hybrid := flag.Bool("hybrid", false, "front the PCM with a DRAM staging tier and hot-page migration")
	hybridMB := flag.Uint64("hybrid-mb", 64, "DRAM staging capacity in MB (with -hybrid)")
	hybridPolicy := flag.String("hybrid-policy", rrmpcm.PolicyWriteCount, "promotion policy: wcount (missed writes) or recency (any access) (with -hybrid)")
	hybridThreshold := flag.Int("hybrid-threshold", rrmpcm.DefaultHybridConfig().Migration.PromoteThreshold, "misses before a page is promoted to DRAM (with -hybrid)")
	hybridPage := flag.Uint64("hybrid-page", rrmpcm.DefaultHybridConfig().Migration.PageBytes, "migration page size in bytes (with -hybrid)")
	hybridBatch := flag.Int("hybrid-batch", rrmpcm.DefaultHybridConfig().Migration.DemoteBatch, "cold-dirty pages demoted per coalesced batch (with -hybrid)")
	sample := flag.Bool("sample", false, "run as a SMARTS-style sampled simulation (report gains confidence intervals)")
	sampleWindows := flag.Int("sample-windows", 8, "detailed measurement windows per sampled run (with -sample)")
	sampleWindow := flag.Duration("sample-window", 100*time.Microsecond, "measured length of each detailed window (with -sample)")
	sampleDetail := flag.Duration("sample-detail", 100*time.Microsecond, "detailed pre-roll discarded before each window (with -sample)")
	sampleStride := flag.Int("sample-stride", 1, "fast-forward thinning between windows: only the trailing 1/N of each gap runs functional traffic (with -sample; >1 trades fidelity for speed on steady-state runs)")
	jsonOut := flag.Bool("json", false, "print metrics as JSON instead of the text report")
	listW := flag.Bool("list-workloads", false, "list workloads and exit")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *listW {
		for _, w := range rrmpcm.Workloads() {
			names := make([]string, len(w.Cores))
			for i, p := range w.Cores {
				names[i] = p.Name
			}
			fmt.Printf("%-11s %s\n", w.Name, strings.Join(names, "+"))
		}
		return
	}

	s, err := parseScheme(*scheme, *hotThreshold, *coverage, *regionKB)
	if err != nil {
		fatal(err)
	}

	var workloads []rrmpcm.Workload
	if *workload == "all" {
		workloads = rrmpcm.Workloads()
	} else {
		for _, name := range strings.Split(*workload, ",") {
			w, err := rrmpcm.WorkloadByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			workloads = append(workloads, w)
		}
	}
	jobs := make([]engine.Job, len(workloads))
	for i, w := range workloads {
		cfg := rrmpcm.DefaultConfig(s, w)
		cfg.Duration = rrmpcm.Time(duration.Nanoseconds()) * rrmpcm.Nanosecond
		cfg.Warmup = rrmpcm.Time(warmup.Nanoseconds()) * rrmpcm.Nanosecond
		cfg.TimeScale = *timescale
		cfg.Seed = *seed
		if *reliabilityOn {
			rel := rrmpcm.DefaultReliabilityConfig()
			rel.Enabled = true
			rel.ECCBits = *eccT
			rel.ProgBitErrorProb = *progBER
			rel.ECCLatency = rrmpcm.Time(eccLatency.Nanoseconds()) * rrmpcm.Nanosecond
			rel.Patrol = *patrol
			rel.PatrolInterval = rrmpcm.Time(patrolInterval.Nanoseconds()) * rrmpcm.Nanosecond
			rel.PatrolBatch = *patrolBatch
			cfg.Reliability = rel
		}
		if *hybrid {
			hc := rrmpcm.DefaultHybridConfig()
			hc.DRAM.CapBytes = *hybridMB << 20
			hc.Migration.Policy = *hybridPolicy
			hc.Migration.PromoteThreshold = *hybridThreshold
			hc.Migration.PageBytes = *hybridPage
			hc.Migration.DemoteBatch = *hybridBatch
			cfg.Hybrid = &hc
		}
		if *sample {
			cfg.Sampling = &rrmpcm.SamplingSpec{
				Windows:      *sampleWindows,
				Window:       rrmpcm.Time(sampleWindow.Nanoseconds()) * rrmpcm.Nanosecond,
				DetailWarmup: rrmpcm.Time(sampleDetail.Nanoseconds()) * rrmpcm.Nanosecond,
				FFStride:     *sampleStride,
			}
			if err := cfg.Sampling.Validate(cfg.Duration); err != nil {
				fatal(err)
			}
		}
		job, err := experiments.NewJob(cfg, "")
		if err != nil {
			fatal(err)
		}
		job.Name = w.Name
		jobs[i] = job
	}

	eopt := engine.Options{Parallel: *parallel}
	if *cacheDir != "" {
		c, err := engine.OpenRunCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		eopt.Cache = c
	}
	if *warmStart {
		var store engine.SnapshotStore = engine.NewMemSnapshotStore()
		if *cacheDir != "" {
			c, err := engine.OpenSnapshotCache(filepath.Join(*cacheDir, "snapshots"))
			if err != nil {
				fatal(err)
			}
			store = c
		}
		eopt.Sim = engine.WarmRunSim(store)
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile, func(err error) {
		fmt.Fprintln(os.Stderr, "rrmsim:", err)
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	results, _ := engine.New(eopt).Run(ctx, jobs)
	stopProfiles()

	failed := false
	for i, res := range results {
		if i > 0 {
			fmt.Printf("\n%s\n\n", strings.Repeat("-", 72))
		}
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "rrmsim: %s: %v\n", res.Name, res.Err)
			failed = true
			continue
		}
		if *jsonOut {
			blob, err := json.MarshalIndent(res.Metrics, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "rrmsim: %s: %v\n", res.Name, err)
				failed = true
				continue
			}
			fmt.Printf("%s\n", blob)
			if res.Metrics.RetentionViolations > 0 {
				failed = true
			}
			continue
		}
		if res.Cached {
			fmt.Printf("[disk cache hit %s]\n", res.Key[:12])
		}
		if !report(res.Metrics, res.Wall) {
			failed = true
		}
	}
	if len(results) > 1 {
		fmt.Printf("\n%d workloads in %.1f s wall\n", len(results), time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}

func parseScheme(name string, hotThreshold, coverage int, regionKB uint64) (rrmpcm.Scheme, error) {
	if strings.HasPrefix(name, "static-") {
		n, err := strconv.Atoi(strings.TrimPrefix(name, "static-"))
		if err != nil || n < 3 || n > 7 {
			return rrmpcm.Scheme{}, fmt.Errorf("bad static scheme %q (want static-3..static-7)", name)
		}
		return rrmpcm.StaticScheme(rrmpcm.WriteMode(n)), nil
	}
	if name != "rrm" {
		return rrmpcm.Scheme{}, fmt.Errorf("unknown scheme %q", name)
	}
	cfg := rrmpcm.DefaultRRMConfig()
	cfg.HotThreshold = hotThreshold
	cfg.RegionBytes = regionKB << 10
	cfg = cfg.WithCoverage(coverage, 6<<20)
	return rrmpcm.RRMSchemeWith(cfg), nil
}

// report prints one run's metrics; it returns false when the run had
// retention violations.
func report(m rrmpcm.Metrics, wall time.Duration) bool {
	fmt.Printf("scheme %s, workload %s: %.1f ms simulated in %.1f s (retention clock x%g)\n\n",
		m.Scheme, m.Workload, m.SimSeconds*1000, wall.Seconds(), m.TimeScale)

	if sp := m.Sampling; sp != nil {
		fmt.Printf("Sampling (%d windows x %.0f us measured, %.1f%% detailed coverage, %.0f%% CI)\n",
			sp.Windows, sp.WindowSeconds*1e6, 100*sp.Coverage, 100*sp.Confidence)
		ci := func(name string, iv stats.Interval) {
			fmt.Printf("  %-20s %8.4g  [%.4g, %.4g]\n", name, iv.Mean, iv.Lo, iv.Hi)
		}
		ci("IPC", sp.IPC)
		ci("LLC MPKI", sp.LLCMPKI)
		ci("wear rate", sp.WearTotalRate)
		ci("lifetime years", sp.LifetimeYears)
		ci("short-write frac", sp.ShortWriteFraction)
		fmt.Printf("\n")
	}

	fmt.Printf("Performance\n")
	fmt.Printf("  aggregate IPC        %8.3f  (per core:", m.IPC)
	for _, v := range m.PerCoreIPC {
		fmt.Printf(" %.3f", v)
	}
	fmt.Printf(")\n")
	fmt.Printf("  instructions         %8d\n", m.Instructions)
	fmt.Printf("  LLC MPKI             %8.2f\n", m.LLCMPKI)
	fmt.Printf("  avg read latency     %8s\n", m.AvgReadLatency)
	fmt.Printf("  row-buffer hit rate  %8.1f%%\n", 100*m.RowBufHitRate)
	fmt.Printf("  write pauses         %8d\n\n", m.WritePauses)

	fmt.Printf("Memory traffic (measured window)\n")
	fmt.Printf("  reads/writes/refresh %d / %d / %d\n", m.ReadsServed, m.WritesServed, m.RefreshesServed)
	for _, mode := range rrmpcm.Modes() {
		if n := m.WritesByMode[mode]; n > 0 {
			fmt.Printf("  %-22s %d\n", mode.String()+"s", n)
		}
	}
	fmt.Printf("  short-write fraction %8.1f%%\n\n", 100*m.ShortWriteFraction)

	fmt.Printf("Lifetime (wear rates in block writes/s, real time)\n")
	fmt.Printf("  demand writes        %8.3g\n", m.WearDemandRate)
	fmt.Printf("  RRM fast refresh     %8.3g\n", m.WearRRMRate)
	fmt.Printf("  slow refresh         %8.3g\n", m.WearSlowRate)
	fmt.Printf("  global refresh       %8.3g\n", m.WearGlobalRate)
	fmt.Printf("  lifetime             %8s years\n\n", stats.FormatYears(m.LifetimeYears))

	fmt.Printf("Energy (over the paper's 5 s window)\n")
	fmt.Printf("  demand writes        %8.3f J\n", m.EnergyDemandJ)
	fmt.Printf("  refresh              %8.3f J\n", m.EnergyRefreshJ)
	fmt.Printf("  total                %8.3f J\n\n", m.EnergyTotalJ)

	if h := m.Hybrid; h != nil {
		fmt.Printf("Hybrid tier (DRAM staging in front of PCM)\n")
		fmt.Printf("  reads  PCM/DRAM      %d / %d (%.1f%% DRAM hit)\n",
			h.PCMReads, h.DRAMReads, 100*h.DRAMReadHitRate)
		fmt.Printf("  writes PCM/DRAM      %d / %d (%.1f%% absorbed)\n",
			h.PCMWrites, h.DRAMWrites, 100*h.WriteAbsorption)
		fmt.Printf("  promotions/demotions %d / %d (%d clean evictions, %d batches)\n",
			h.Promotions, h.Demotions, h.CleanEvictions, h.CoalesceBatches)
		fmt.Printf("  copy reads/writebacks %d / %d\n", h.CopyReads, h.WritebackBlocks)
		fmt.Printf("  resident/dirty pages %d / %d\n", h.ResidentPages, h.DirtyPages)
		fmt.Printf("  DRAM row-hit rate    %8.1f%% (%d refresh stalls, avg read %s)\n",
			100*h.DRAMRowHitRate, h.DRAMRefreshStalls, h.DRAMAvgReadLatency)
		fmt.Printf("  DRAM energy          %8.3f J (%.3f W)\n\n", h.DRAMEnergyJ, h.DRAMPowerW)
	}
	if m.Scheme == "RRM" {
		fmt.Printf("RRM internals\n")
		fmt.Printf("  registrations        %8d (%d filtered as streaming)\n", m.RRM.Registrations, m.RRM.CleanFiltered)
		fmt.Printf("  promotions/demotions %d / %d\n", m.RRM.Promotions, m.RRM.Demotions)
		fmt.Printf("  evictions            %8d (%d blocks flushed)\n", m.RRM.Evictions, m.RRM.EvictionFlush)
		fmt.Printf("  hot entries/blocks   %d / %d\n", m.HotEntries, m.HotBlocks)
	}
	if rel := m.Reliability; rel != nil {
		fmt.Printf("Reliability (t-bit ECC over drift-fault injection)\n")
		fmt.Printf("  reads checked        %8d (clean %d, corrected %d, uncorrectable %d)\n",
			rel.ReadsChecked, rel.CleanReads, rel.CorrectedReads, rel.UncorrectableReads)
		fmt.Printf("  corrected reads      %8.0f per billion reads\n", rel.CorrectedPerBillionReads)
		fmt.Printf("  uncorrectable reads  %8.0f per billion reads\n", rel.UncorrectablePerBillionReads)
		fmt.Printf("  total uncorrectable  %8d (incl. scrub %d, final sweep %d)\n",
			rel.Uncorrectable(), rel.ScrubFoundUncorrectable, rel.SweepUncorrectable)
		fmt.Printf("  scrubs               %8d on write, %d on refresh, %d patrol\n",
			rel.ScrubsOnWrite, rel.ScrubsOnRefresh, rel.PatrolIssued)
		fmt.Printf("  scrub coverage       %8.1f%% of %d tracked lines\n\n",
			100*rel.ScrubCoverage, rel.LinesTracked)
	}
	if m.RetentionViolations > 0 {
		fmt.Printf("RETENTION VIOLATIONS: %d (%s)\n", m.RetentionViolations, m.FirstViolation)
		if d := m.RetentionDetail; d != nil {
			fmt.Printf("  expired on read / rewrite / at end: %d / %d / %d\n",
				d.ExpiredOnRead, d.ExpiredOnRewrite, d.ExpiredAtEnd)
		}
		return false
	}
	fmt.Printf("retention check: clean\n")
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrmsim:", err)
	os.Exit(2)
}
