// Command tracegen inspects the synthetic workload generators: it prints
// per-benchmark stream statistics (instruction mix, component shares,
// footprint), dumps a raw trace for external tools, exports workloads to
// the compact streaming trace-file format (one file per core, replayable
// by rrmsim -replay), and imports trace files for inspection.
//
// Usage:
//
//	tracegen -stats                      # table for all benchmarks
//	tracegen -workload lbm -ops 1000000  # stats for one benchmark
//	tracegen -workload mcf -dump -ops 50 # one line per op on stdout
//	tracegen -workload PHASE_1 -export dir -ops 2000000
//	                                     # dir/PHASE_1.c0.rrmt ... c3.rrmt
//	tracegen -import dir/PHASE_1.c0.rrmt # print the file's metadata
//	tracegen -import f.rrmt -dump -ops 50
//
// Exported traces use the simulator's exact per-core seeding and
// address-partition rules, so replaying them through rrmsim reproduces
// the generator run's metrics byte for byte.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"rrmpcm"
	"rrmpcm/internal/buildinfo"
	"rrmpcm/internal/tracefile"
)

func main() {
	name := flag.String("workload", "", "benchmark name (empty: all)")
	ops := flag.Int("ops", 500_000, "memory operations to generate")
	dump := flag.Bool("dump", false, "print raw ops instead of statistics")
	seed := flag.Uint64("seed", 1, "generator seed")
	export := flag.String("export", "", "export -workload as trace files into this directory (one per core)")
	imprt := flag.String("import", "", "inspect a trace file (with -dump: print its ops)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *imprt != "" {
		importTrace(*imprt, *dump, *ops)
		return
	}
	if *export != "" {
		if *name == "" {
			log.Fatal("tracegen: -export needs -workload")
		}
		exportWorkload(*name, *export, uint64(*ops), *seed)
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

// exportWorkload records every stream of a workload to trace files in
// dir, using the simulator's seeding and address-partition rules so the
// export reproduces exactly what a simulation run with this seed would
// generate.
func exportWorkload(name, dir string, ops, seed uint64) {
	w, err := rrmpcm.WorkloadByName(name)
	if err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	if len(w.Replay) > 0 {
		log.Fatalf("tracegen: workload %s is already a replay workload", w.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	mem := rrmpcm.DefaultDeviceConfig().MemBytes
	n := len(w.Cores)
	for i := 0; i < n; i++ {
		base, span := rrmpcm.CorePartition(mem, n, i)
		gen, err := rrmpcm.NewStream(w, i, base, span, seed)
		if err != nil {
			log.Fatalf("tracegen: %v", err)
		}
		meta := tracefile.Meta{
			Name: w.Cores[i].Name, BaseCPI: gen.BaseCPI(), MaxMLP: gen.MaxMLP(),
			Base: base, Span: span, Seed: rrmpcm.CoreSeed(seed, i),
		}
		blob, err := tracefile.Record(gen, meta, ops)
		if err != nil {
			log.Fatalf("tracegen: %v", err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s.c%d.rrmt", w.Name, i))
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			log.Fatalf("tracegen: %v", err)
		}
		f, err := tracefile.Parse(blob)
		if err != nil {
			log.Fatalf("tracegen: verifying %s: %v", path, err)
		}
		fmt.Printf("%s  ops %d  bytes %d  sum %#016x\n", path, f.Ops(), len(blob), f.Sum())
	}
}

// importTrace loads one trace file and prints its metadata (or, with
// -dump, its ops).
func importTrace(path string, dump bool, ops int) {
	f, err := tracefile.Load(path)
	if err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	if dump {
		r := f.Stream()
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		var op rrmpcm.Op
		for i := 0; i < ops; i++ {
			r.Next(&op)
			kind := "L"
			if op.Store {
				kind = "S"
			}
			fmt.Fprintf(w, "%s %#x +%d\n", kind, op.Addr, op.NonMem)
		}
		return
	}
	m := f.Meta()
	fmt.Printf("profile    %s\n", m.Name)
	fmt.Printf("ops        %d\n", f.Ops())
	fmt.Printf("base cpi   %g\n", m.BaseCPI)
	fmt.Printf("max mlp    %d\n", m.MaxMLP)
	fmt.Printf("partition  [%#x, %#x)\n", m.Base, m.Base+m.Span)
	fmt.Printf("seed       %d\n", m.Seed)
	fmt.Printf("sum        %#016x\n", f.Sum())
}
