// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-run id[,id...]] [-list] [-o file]
//	            [-parallel N] [-cache-dir dir] [-job-timeout d]
//	            [-warm-start] [-cpuprofile file] [-memprofile file]
//
// Without -run, the whole suite executes in DESIGN.md order. Experiment
// ids are table1, fig2, fig3, fig4, table3, table7, fig7..fig13, table8
// and the ablation-* studies. -quick uses the reduced windows the
// benchmarks use (fast, noisier); the default full mode reproduces the
// EXPERIMENTS.md numbers.
//
// Simulations fan out over -parallel worker goroutines (default: all
// CPUs); the emitted tables are byte-identical at any parallelism level.
// With -cache-dir, finished runs persist to disk keyed by config hash,
// so a repeated or interrupted pass reloads them instead of
// re-simulating. Ctrl-C cancels in-flight simulations cleanly.
//
// -warm-start shares simulation warmup across runs whose configs differ
// only in post-warmup knobs (one run simulates the warmup, the others
// fork from its snapshot); results are bit-identical either way. With
// -cache-dir, warm snapshots persist under <cache-dir>/snapshots.
// -cpuprofile and -memprofile write pprof profiles of the pass.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"rrmpcm/internal/buildinfo"
	"rrmpcm/internal/experiments"
	"rrmpcm/internal/profiling"
)

func main() {
	quick := flag.Bool("quick", false, "reduced simulation windows (fast, noisier)")
	seed := flag.Uint64("seed", 1, "random seed for the whole pass")
	runIDs := flag.String("run", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	out := flag.String("o", "", "also write results to this file")
	verbose := flag.Bool("v", true, "print per-run progress")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "disk-backed run cache directory (empty = memory only)")
	warmStart := flag.Bool("warm-start", false, "share simulation warmup across runs with equal warm prefixes")
	jobTimeout := flag.Duration("job-timeout", 0, "per-simulation wall-clock budget (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the pass to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-24s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	if *runIDs == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	var sinks []io.Writer = []io.Writer{os.Stdout}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sinks = append(sinks, f)
	}
	w := io.MultiWriter(sinks...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile, func(err error) {
		fmt.Fprintln(os.Stderr, err)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	opt := experiments.Options{
		Quick:      *quick,
		Seed:       *seed,
		Parallel:   *parallel,
		CacheDir:   *cacheDir,
		WarmStart:  *warmStart,
		JobTimeout: *jobTimeout,
		Context:    ctx,
	}
	if *verbose {
		opt.Progress = os.Stderr
	}
	runner := experiments.NewRunner(opt)

	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "RRM experiment suite (%s mode, seed %d)\n", mode, *seed)
	start := time.Now()
	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "== %s: %s\n", e.ID, e.Title)
		t0 := time.Now()
		text, err := e.Run(runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\n===== %s — %s (%.1fs) =====\n%s", e.ID, e.Title, time.Since(t0).Seconds(), text)
	}
	st := runner.Stats()
	fmt.Fprintf(w, "\ncompleted in %.1fs (%d simulated in %.1fs of sim wall, %d memory hits, %d disk hits)\n",
		time.Since(start).Seconds(), st.Simulated, st.SimWall.Seconds(), st.MemoryHits, st.DiskHits)
}
