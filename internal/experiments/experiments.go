package experiments

import (
	"fmt"
	"strings"

	"rrmpcm/internal/core"
	"rrmpcm/internal/pcm"
	"rrmpcm/internal/sim"
	"rrmpcm/internal/stats"
	"rrmpcm/internal/timing"
	"rrmpcm/internal/trace"
	"rrmpcm/internal/wearlevel"
)

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string // "table1", "fig7", ...
	Title string
	Run   func(*Runner) (string, error)
}

// All returns every experiment in DESIGN.md §5 order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: write latency/retention model", func(r *Runner) (string, error) { return Table1() }},
		{"fig2", "Figure 2: performance of static schemes", Figure2},
		{"fig3", "Figure 3: lifetime of static schemes", Figure3},
		{"fig4", "Figure 4: wear of static schemes (write vs refresh)", Figure4},
		{"table3", "Table III: region write-interval histogram (GemsFDTD)", func(r *Runner) (string, error) { return Table3(r.opt) }},
		{"table7", "Table VII: workload MPKI calibration", Table7},
		{"fig7", "Figure 7: performance, RRM vs statics", Figure7},
		{"fig8", "Figure 8: lifetime, RRM vs statics", Figure8},
		{"fig9", "Figure 9: wear distribution", Figure9},
		{"fig10", "Figure 10: memory energy consumption", Figure10},
		{"fig11", "Figure 11: hot_threshold aggressiveness", Figure11},
		{"fig12", "Figure 12: LLC coverage rate sensitivity", Figure12},
		{"table8", "Table VIII: RRM storage per coverage", func(r *Runner) (string, error) { return Table8() }},
		{"fig13", "Figure 13: entry coverage size sensitivity", Figure13},
		{"reliability", "R1: drift-induced errors under t-bit ECC, RRM vs statics", ExperimentReliability},
		{"phases", "W1: RRM vs statics under non-stationary workloads", ExperimentPhases},
		{"ablation-globalrefresh", "A1: global-refresh performance impact (analytic)", AblationGlobalRefresh},
		{"ablation-cleanwrites", "A2: registering clean LLC writes (streaming pollution)", AblationCleanWrites},
		{"ablation-nopause", "A3: disabling write pausing", AblationNoPause},
		{"ablation-multimode", "A4: multi-mode RRM (3/5/7-SETs tiers)", AblationTiered},
		{"ablation-decay", "A5: decay interval sensitivity", AblationDecay},
		{"ablation-wearlevel", "A6: Start-Gap wear-leveling efficiency (Table V assumption)", AblationWearLevel},
		{"sampling", "S1: interval sampling, error vs speed", ExperimentSampling},
		{"hybrid", "H1: DRAM staging tier, RRM vs statics vs combined", ExperimentHybrid},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Table1 regenerates Table I from the drift model and diffs it against
// the embedded device data.
func Table1() (string, error) {
	model := pcm.DefaultDriftTable().Model()
	derived, err := model.DeriveModeTable()
	if err != nil {
		return "", err
	}
	rows := [][]string{{"Write Type", "Current (uA)", "N.Energy", "Retention (s)", "Latency (ns)", "Paper Retention (s)"}}
	for _, s := range derived {
		paper := pcm.Spec(s.Mode)
		rows = append(rows, []string{
			s.Mode.String(),
			fmt.Sprintf("%.0f", s.SetCurrentUA),
			fmt.Sprintf("%.3f", s.NormEnergy),
			fmt.Sprintf("%.1f", s.Retention.Seconds()),
			fmt.Sprintf("%.0f", s.Latency.Nanoseconds()),
			fmt.Sprintf("%.1f", paper.Retention.Seconds()),
		})
	}
	return stats.Table(rows), nil
}

// Figure2 reports the IPC of the static schemes normalized to
// Static-7-SETs, per workload plus geomean.
func Figure2(r *Runner) (string, error) {
	return perfTable(r, staticSchemes())
}

// Figure7 is Figure 2 plus the RRM scheme, with the paper's headline
// statistics appended.
func Figure7(r *Runner) (string, error) {
	table, err := perfTable(r, mainSchemes())
	if err != nil {
		return "", err
	}
	m, ws, err := r.matrix(mainSchemes())
	if err != nil {
		return "", err
	}
	g := func(scheme string) float64 {
		return geomeanOver(ws, func(w string) float64 { return m[w][scheme].IPC })
	}
	s7, s3, rrm := g("Static-7-SETs"), g("Static-3-SETs"), g("RRM")
	var b strings.Builder
	b.WriteString(table)
	fmt.Fprintf(&b, "\nRRM vs Static-7 (geomean): %+.1f%% (paper: +62.0%%)\n", 100*(rrm/s7-1))
	fmt.Fprintf(&b, "RRM vs Static-3 (geomean): %+.1f%% (paper: -10.0%%)\n", 100*(rrm/s3-1))
	if s3 > s7 {
		fmt.Fprintf(&b, "Gap bridged by RRM:        %.1f%% (paper: 77.2%%)\n", 100*(rrm-s7)/(s3-s7))
	}
	return b.String(), nil
}

func perfTable(r *Runner, schemes []sim.Scheme) (string, error) {
	m, ws, err := r.matrix(schemes)
	if err != nil {
		return "", err
	}
	header := []string{"Workload"}
	for _, s := range schemes {
		header = append(header, s.Name())
	}
	rows := [][]string{header}
	for _, name := range workloadNames(ws) {
		base := m[name]["Static-7-SETs"].IPC
		row := []string{name}
		for _, s := range schemes {
			row = append(row, fmt.Sprintf("%.3f", m[name][s.Name()].IPC/base))
		}
		rows = append(rows, row)
	}
	row := []string{"geomean"}
	for _, s := range schemes {
		gm := geomeanOver(ws, func(w string) float64 {
			return m[w][s.Name()].IPC / m[w]["Static-7-SETs"].IPC
		})
		row = append(row, fmt.Sprintf("%.3f", gm))
	}
	rows = append(rows, row)
	return "IPC normalized to Static-7-SETs\n" + stats.Table(rows), nil
}

// Figure3 reports static-scheme lifetimes.
func Figure3(r *Runner) (string, error) {
	return lifetimeTable(r, staticSchemes(), "")
}

// Figure8 reports lifetimes for all schemes with the paper's headline.
func Figure8(r *Runner) (string, error) {
	return lifetimeTable(r, mainSchemes(),
		"paper geomeans: Static-7 10.6y, RRM 6.4y, Static-3 0.3y")
}

func lifetimeTable(r *Runner, schemes []sim.Scheme, note string) (string, error) {
	m, ws, err := r.matrix(schemes)
	if err != nil {
		return "", err
	}
	header := []string{"Workload"}
	for _, s := range schemes {
		header = append(header, s.Name())
	}
	rows := [][]string{header}
	for _, name := range workloadNames(ws) {
		row := []string{name}
		for _, s := range schemes {
			row = append(row, fmt.Sprintf("%.2f", m[name][s.Name()].LifetimeYears))
		}
		rows = append(rows, row)
	}
	row := []string{"geomean"}
	for _, s := range schemes {
		gm := geomeanOver(ws, func(w string) float64 { return m[w][s.Name()].LifetimeYears })
		row = append(row, fmt.Sprintf("%.2f", gm))
	}
	rows = append(rows, row)
	out := "Memory lifetime in years\n" + stats.Table(rows)
	if note != "" {
		out += "\n" + note + "\n"
	}
	return out, nil
}

// Figure4 reports the write/refresh wear split for static schemes.
func Figure4(r *Runner) (string, error) {
	return wearTable(r, staticSchemes())
}

// Figure9 reports the wear split for all schemes, separating RRM refresh
// and global refresh.
func Figure9(r *Runner) (string, error) {
	return wearTable(r, mainSchemes())
}

func wearTable(r *Runner, schemes []sim.Scheme) (string, error) {
	m, ws, err := r.matrix(schemes)
	if err != nil {
		return "", err
	}
	rows := [][]string{{"Workload", "Scheme", "Write wear/s", "RRM-refresh/s", "Slow-refresh/s", "Global-refresh/s", "Refresh share"}}
	for _, name := range workloadNames(ws) {
		for _, s := range schemes {
			mm := m[name][s.Name()]
			refresh := mm.WearRRMRate + mm.WearSlowRate + mm.WearGlobalRate
			rows = append(rows, []string{
				name, s.Name(),
				fmt.Sprintf("%.3g", mm.WearDemandRate),
				fmt.Sprintf("%.3g", mm.WearRRMRate),
				fmt.Sprintf("%.3g", mm.WearSlowRate),
				fmt.Sprintf("%.3g", mm.WearGlobalRate),
				fmt.Sprintf("%.1f%%", 100*refresh/(refresh+mm.WearDemandRate)),
			})
		}
	}
	return "Block-write wear rates (real block writes per second)\n" + stats.Table(rows), nil
}

// Figure10 reports memory energy over the paper's 5 s window.
func Figure10(r *Runner) (string, error) {
	m, ws, err := r.matrix(mainSchemes())
	if err != nil {
		return "", err
	}
	rows := [][]string{{"Workload", "Scheme", "Write J", "Refresh J", "Total J"}}
	for _, name := range workloadNames(ws) {
		for _, s := range mainSchemes() {
			mm := m[name][s.Name()]
			rows = append(rows, []string{
				name, s.Name(),
				fmt.Sprintf("%.3f", mm.EnergyDemandJ),
				fmt.Sprintf("%.3f", mm.EnergyRefreshJ),
				fmt.Sprintf("%.3f", mm.EnergyTotalJ),
			})
		}
	}
	g := func(scheme string) float64 {
		return geomeanOver(ws, func(w string) float64 { return m[w][scheme].EnergyTotalJ })
	}
	note := fmt.Sprintf("\nRRM total energy vs Static-7 (geomean): %+.1f%% (paper: +32.8%%)\n",
		100*(g("RRM")/g("Static-7-SETs")-1))
	return "Memory energy over the 5 s window\n" + stats.Table(rows) + note, nil
}

// Table7 compares measured LLC MPKI against the paper's Table VII.
func Table7(r *Runner) (string, error) {
	paper := trace.PaperMPKI()
	m, ws, err := r.matrix([]sim.Scheme{sim.StaticScheme(pcm.Mode7SETs)})
	if err != nil {
		return "", err
	}
	rows := [][]string{{"Workload", "Measured MPKI", "Paper MPKI"}}
	for _, name := range workloadNames(ws) {
		p := "-"
		if v, ok := paper[name]; ok {
			p = fmt.Sprintf("%.2f", v)
		}
		rows = append(rows, []string{name, fmt.Sprintf("%.2f", m[name]["Static-7-SETs"].LLCMPKI), p})
	}
	return stats.Table(rows), nil
}

// Figure11 sweeps hot_threshold (8/16/32/64).
func Figure11(r *Runner) (string, error) {
	return rrmSweep(r, "fig11", "hot_threshold", []int{8, 16, 32, 64}, func(v int) sim.Scheme {
		return rrmConfigWith(func(c *coreRRMConfig) { c.HotThreshold = v })
	})
}

// Figure12 sweeps the LLC coverage rate (2x/4x/8x/16x).
func Figure12(r *Runner) (string, error) {
	llc := uint64(6 << 20)
	return rrmSweep(r, "fig12", "LLC coverage", []int{2, 4, 8, 16}, func(v int) sim.Scheme {
		return rrmConfigWith(func(c *coreRRMConfig) { *c = c.WithCoverage(v, llc) })
	})
}

// Figure13 sweeps the entry coverage size (2/4/8/16 KB).
func Figure13(r *Runner) (string, error) {
	return rrmSweep(r, "fig13", "entry KB", []int{2, 4, 8, 16}, func(v int) sim.Scheme {
		return rrmConfigWith(func(c *coreRRMConfig) { c.RegionBytes = uint64(v) << 10 })
	})
}

// rrmSweep runs RRM variants over the workloads and reports normalized
// performance (vs Static-7) and lifetime geomeans per variant value. All
// values x workloads go out as one parallel batch.
func rrmSweep(r *Runner, label, param string, values []int, scheme func(int) sim.Scheme) (string, error) {
	base, ws, err := r.matrix([]sim.Scheme{sim.StaticScheme(pcm.Mode7SETs)})
	if err != nil {
		return "", err
	}
	specs := make([]RunSpec, 0, len(values)*len(ws))
	for _, v := range values {
		s := scheme(v)
		for _, w := range ws {
			specs = append(specs, RunSpec{Label: fmt.Sprintf("%s-%d", label, v), Scheme: s, Workload: w})
		}
	}
	ms, err := r.RunBatch(specs)
	if err != nil {
		return "", err
	}
	rows := [][]string{{param, "Norm. IPC (geomean)", "Lifetime y (geomean)", "Short-write frac", "Hot entries"}}
	for vi, v := range values {
		perf := make([]float64, 0, len(ws))
		life := make([]float64, 0, len(ws))
		var shortFrac float64
		var hot int
		for wi, w := range ws {
			m := ms[vi*len(ws)+wi]
			perf = append(perf, m.IPC/base[w.Name]["Static-7-SETs"].IPC)
			life = append(life, m.LifetimeYears)
			shortFrac += m.ShortWriteFraction
			hot += m.HotEntries
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", v),
			fmt.Sprintf("%.3f", stats.Geomean(perf)),
			fmt.Sprintf("%.2f", stats.Geomean(life)),
			fmt.Sprintf("%.2f", shortFrac/float64(len(ws))),
			fmt.Sprintf("%d", hot/len(ws)),
		})
	}
	return stats.Table(rows), nil
}

// Table8 derives the RRM storage overhead per coverage rate.
func Table8() (string, error) {
	llc := uint64(6 << 20)
	rows := [][]string{{"LLC Coverage", "Sets", "Ways", "Storage", "% of LLC"}}
	for _, cov := range []int{2, 4, 8, 16} {
		cfg := defaultRRM().WithCoverage(cov, llc)
		if err := cfg.Validate(); err != nil {
			return "", err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%dx", cov),
			fmt.Sprintf("%d", cfg.Sets),
			fmt.Sprintf("%d", cfg.Ways),
			fmt.Sprintf("%dKB", cfg.StorageBytes()>>10),
			fmt.Sprintf("%.2f%%", 100*float64(cfg.StorageBytes())/float64(llc)),
		})
	}
	return stats.Table(rows), nil
}

// AblationGlobalRefresh quantifies the paper's own caveat: Static-3/4
// performance ignores global refresh, whose duty cycle is crippling. The
// refresh of all blocks takes blocks*tWP/banks seconds every retention
// period; the duty-cycle model scales the measured IPC accordingly.
func AblationGlobalRefresh(r *Runner) (string, error) {
	m, ws, err := r.matrix(staticSchemes())
	if err != nil {
		return "", err
	}
	dev := pcm.DefaultDeviceConfig()
	rows := [][]string{{"Scheme", "Refresh duty cycle", "Norm. IPC (reported)", "Norm. IPC (refresh-adjusted)"}}
	for _, s := range staticSchemes() {
		mode := s.StaticMode
		refreshTime := float64(dev.TotalBlocks()) * pcm.Latency(mode).Seconds() / float64(dev.TotalBanks())
		duty := refreshTime / pcm.Retention(mode).Seconds()
		if duty > 1 {
			duty = 1
		}
		gm := geomeanOver(ws, func(w string) float64 {
			return m[w][s.Name()].IPC / m[w]["Static-7-SETs"].IPC
		})
		rows = append(rows, []string{
			s.Name(),
			fmt.Sprintf("%.1f%%", 100*duty),
			fmt.Sprintf("%.3f", gm),
			fmt.Sprintf("%.3f", gm*(1-duty)),
		})
	}
	return "Global-refresh duty-cycle adjustment (paper simulates none; §V)\n" + stats.Table(rows), nil
}

// AblationCleanWrites disables the streaming-write filter on streaming
// workloads and shows the pollution it was protecting against.
func AblationCleanWrites(r *Runner) (string, error) {
	polluted := rrmConfigWith(func(c *coreRRMConfig) { c.RegisterCleanWrites = true })
	variants := []struct {
		label  string
		scheme sim.Scheme
	}{{"filter on (paper)", sim.RRMScheme()}, {"filter off (A2)", polluted}}
	var specs []RunSpec
	for _, name := range []string{"libquantum", "lbm", "GemsFDTD"} {
		w, err := trace.WorkloadByName(name)
		if err != nil {
			return "", err
		}
		if r.opt.Quick && name != "GemsFDTD" {
			continue
		}
		specs = append(specs, RunSpec{Label: "main", Scheme: sim.StaticScheme(pcm.Mode7SETs), Workload: w})
		for _, v := range variants {
			specs = append(specs, RunSpec{Label: "a2-" + v.label, Scheme: v.scheme, Workload: w})
		}
	}
	ms, err := r.RunBatch(specs)
	if err != nil {
		return "", err
	}
	rows := [][]string{{"Workload", "Variant", "Norm. IPC", "Lifetime y", "Short frac", "RRM refresh/s"}}
	for i := 0; i < len(specs); i += 1 + len(variants) {
		base := ms[i]
		for k, v := range variants {
			m := ms[i+1+k]
			rows = append(rows, []string{
				specs[i].Workload.Name, v.label,
				fmt.Sprintf("%.3f", m.IPC/base.IPC),
				fmt.Sprintf("%.2f", m.LifetimeYears),
				fmt.Sprintf("%.2f", m.ShortWriteFraction),
				fmt.Sprintf("%.3g", m.WearRRMRate),
			})
		}
	}
	return stats.Table(rows), nil
}

// AblationNoPause disables write pausing for Static-7 and RRM. The
// with/without pairs for every workload run as one parallel batch.
func AblationNoPause(r *Runner) (string, error) {
	noPause := func(c *sim.Config) { c.Ctrl.WritePausing = false }
	var specs []RunSpec
	for _, w := range r.opt.workloads() {
		for _, s := range []sim.Scheme{sim.StaticScheme(pcm.Mode7SETs), sim.RRMScheme()} {
			specs = append(specs,
				RunSpec{Label: "main", Scheme: s, Workload: w},
				RunSpec{Label: "a3-nopause", Scheme: s, Workload: w, Mutate: noPause})
		}
	}
	ms, err := r.RunBatch(specs)
	if err != nil {
		return "", err
	}
	rows := [][]string{{"Workload", "Scheme", "IPC (pausing)", "IPC (no pausing)", "delta"}}
	for i := 0; i < len(specs); i += 2 {
		with, without := ms[i], ms[i+1]
		rows = append(rows, []string{
			specs[i].Workload.Name, specs[i].Scheme.Name(),
			fmt.Sprintf("%.3f", with.IPC),
			fmt.Sprintf("%.3f", without.IPC),
			fmt.Sprintf("%+.1f%%", 100*(without.IPC/with.IPC-1)),
		})
	}
	return stats.Table(rows), nil
}

// AblationDecay sweeps the decay interval around the paper's 0.125 s.
func AblationDecay(r *Runner) (string, error) {
	values := []float64{0.5, 1, 2, 4} // x 0.125 s
	rows := [][]string{{"Decay interval", "Norm. IPC (geomean)", "Lifetime y", "Demotions/run"}}
	base, ws, err := r.matrix([]sim.Scheme{sim.StaticScheme(pcm.Mode7SETs)})
	if err != nil {
		return "", err
	}
	specs := make([]RunSpec, 0, len(values)*len(ws))
	for _, mul := range values {
		s := rrmConfigWith(func(c *coreRRMConfig) {
			c.DecayInterval = timingTime(float64(c.DecayInterval) * mul)
		})
		for _, w := range ws {
			specs = append(specs, RunSpec{Label: fmt.Sprintf("a5-%.2f", mul), Scheme: s, Workload: w})
		}
	}
	ms, err := r.RunBatch(specs)
	if err != nil {
		return "", err
	}
	for vi, mul := range values {
		perf := make([]float64, 0, len(ws))
		life := make([]float64, 0, len(ws))
		var demotions uint64
		for wi, w := range ws {
			m := ms[vi*len(ws)+wi]
			perf = append(perf, m.IPC/base[w.Name]["Static-7-SETs"].IPC)
			life = append(life, m.LifetimeYears)
			demotions += m.RRM.Demotions
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.4fs", 0.125*mul),
			fmt.Sprintf("%.3f", stats.Geomean(perf)),
			fmt.Sprintf("%.2f", stats.Geomean(life)),
			fmt.Sprintf("%d", demotions/uint64(len(ws))),
		})
	}
	return stats.Table(rows), nil
}

// AblationWearLevel validates the Table V assumption that Start-Gap wear
// leveling delivers >= 95 % of the average cell lifetime, by replaying
// power-law write streams of increasing skew (the Table III shape)
// through the rotation.
func AblationWearLevel(r *Runner) (string, error) {
	rows := [][]string{{"Write skew", "Efficiency", "Write overhead"}}
	writes := 2 * 257 * 257 * 50
	if r.opt.Quick {
		writes /= 4
	}
	for _, skew := range []float64{1.0, 1.5, 2.0, 3.0} {
		sg, err := wearlevel.New(256, 50)
		if err != nil {
			return "", err
		}
		state := uint64(7)
		for i := 0; i < writes; i++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			u := float64(state>>11) / (1 << 53)
			line := uint64(mathPow(u, skew) * 256)
			if line >= 256 {
				line = 255
			}
			sg.Write(line)
		}
		_, _, overhead := sg.Stats()
		rows = append(rows, []string{
			fmt.Sprintf("u^%.1f", skew),
			fmt.Sprintf("%.3f", sg.Efficiency()),
			fmt.Sprintf("%.2f%%", 100*overhead),
		})
	}
	return "Start-Gap leveling efficiency (paper Table V assumes >= 0.95)\n" + stats.Table(rows), nil
}

// AblationTiered runs a three-tier RRM (§IV-A notes the paper
// restricted itself to two modes for simplicity) against the base RRM:
// a region that reaches 8 dirty writes writes with the 5-SETs mid mode,
// whose 104.4 s retention needs ~50x fewer selective refreshes than the
// fast tier, refreshed every 103 s.
func AblationTiered(r *Runner) (string, error) {
	tiered := rrmConfigWith(func(c *core.RRMConfig) {
		c.MidTiers = []core.RRMTier{{Mode: pcm.Mode5SETs, Threshold: 8, RefreshInterval: 103 * timing.Second}}
	})
	ws := r.opt.workloads()
	var specs []RunSpec
	for _, w := range ws {
		specs = append(specs,
			RunSpec{Label: "main", Scheme: sim.StaticScheme(pcm.Mode7SETs), Workload: w},
			RunSpec{Label: "main", Scheme: sim.RRMScheme(), Workload: w},
			RunSpec{Label: "a4-multimode", Scheme: tiered, Workload: w})
	}
	ms, err := r.RunBatch(specs)
	if err != nil {
		return "", err
	}
	rows := [][]string{{"Workload", "Scheme", "Norm. IPC", "Lifetime y", "3-SETs", "5-SETs", "7-SETs"}}
	for i, w := range ws {
		base, rrm, mm := ms[3*i], ms[3*i+1], ms[3*i+2]
		for _, v := range []sim.Metrics{rrm, mm} {
			// WritesByMode counts demand writes plus simulated
			// refreshes (both wear cells); normalize over that sum.
			var total float64
			for _, n := range v.WritesByMode {
				total += float64(n)
			}
			if total == 0 {
				total = 1
			}
			rows = append(rows, []string{
				w.Name, v.Scheme,
				fmt.Sprintf("%.3f", v.IPC/base.IPC),
				fmt.Sprintf("%.2f", v.LifetimeYears),
				fmt.Sprintf("%.0f%%", 100*float64(v.WritesByMode[pcm.Mode3SETs])/total),
				fmt.Sprintf("%.0f%%", 100*float64(v.WritesByMode[pcm.Mode5SETs])/total),
				fmt.Sprintf("%.0f%%", 100*float64(v.WritesByMode[pcm.Mode7SETs])/total),
			})
		}
	}
	return stats.Table(rows), nil
}
