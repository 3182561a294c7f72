// Command tracegen inspects the synthetic workload generators: it prints
// per-benchmark stream statistics (instruction mix, footprint) or dumps a
// raw trace for external tools.
//
// Usage:
//
//	tracegen                             # stats table for all benchmarks
//	tracegen -workload lbm -ops 1000000  # stats for one benchmark
//	tracegen -workload mcf -dump -ops 50 # one line per op on stdout
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"rrmpcm"
	"rrmpcm/internal/buildinfo"
)

func main() {
	name := flag.String("workload", "", "benchmark name (empty: all)")
	ops := flag.Int("ops", 500_000, "memory operations to generate")
	dump := flag.Bool("dump", false, "print raw ops instead of statistics")
	seed := flag.Uint64("seed", 1, "generator seed")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	profiles := rrmpcm.Profiles()
	if *name != "" {
		var found bool
		for _, p := range profiles {
			if p.Name == *name {
				profiles = []rrmpcm.Profile{p}
				found = true
				break
			}
		}
		if !found {
			log.Fatalf("tracegen: unknown benchmark %q", *name)
		}
	}

	if *dump {
		if len(profiles) != 1 {
			log.Fatal("tracegen: -dump needs -workload")
		}
		dumpTrace(profiles[0], *ops, *seed)
		return
	}

	fmt.Printf("%-11s %9s %8s %8s %10s %12s %11s\n",
		"benchmark", "mem/inst", "stores", "paperMPKI", "regions4K", "maxRegionHit", "footprint")
	paper := rrmpcm.PaperMPKI()
	for _, p := range profiles {
		statsFor(p, *ops, *seed, paper[p.Name])
	}
}

// statsFor streams ops and summarizes the address structure.
func statsFor(p rrmpcm.Profile, ops int, seed uint64, paperMPKI float64) {
	gen := newGen(p, seed)
	var op rrmpcm.Op
	insts, stores := 0, 0
	regions := map[uint64]int{}
	var minA, maxA uint64 = ^uint64(0), 0
	for i := 0; i < ops; i++ {
		gen.Next(&op)
		insts += op.NonMem + 1
		if op.Store {
			stores++
		}
		regions[op.Addr>>12]++
		if op.Addr < minA {
			minA = op.Addr
		}
		if op.Addr > maxA {
			maxA = op.Addr
		}
	}
	maxHits := 0
	for _, n := range regions {
		if n > maxHits {
			maxHits = n
		}
	}
	fmt.Printf("%-11s %9.4f %7.1f%% %8.2f %10d %12d %8dMB\n",
		p.Name,
		float64(ops)/float64(insts),
		100*float64(stores)/float64(ops),
		paperMPKI,
		len(regions),
		maxHits,
		(maxA-minA)>>20)
}

func dumpTrace(p rrmpcm.Profile, ops int, seed uint64) {
	gen := newGen(p, seed)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	var op rrmpcm.Op
	for i := 0; i < ops; i++ {
		gen.Next(&op)
		kind := "L"
		if op.Store {
			kind = "S"
		}
		fmt.Fprintf(w, "%s %#x +%d\n", kind, op.Addr, op.NonMem)
	}
}

func newGen(p rrmpcm.Profile, seed uint64) *rrmpcm.Mixture {
	gen, err := rrmpcm.NewMixture(p, 0, 2<<30, seed)
	if err != nil {
		log.Fatal(err)
	}
	return gen
}
