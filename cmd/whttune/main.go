// Command whttune is the measured-cost autotuner: for each requested
// size it times every stage the size's stage sequences can hold, runs
// the exact stage-sequence DP over those timings, times the cheapest
// sequences whole, compares the winner against the untuned default
// (exec.ForSize), and accumulates the results into a wisdom file that
// wht.LoadWisdom (or -load here) serves from in later processes.
//
// Usage:
//
//	whttune -sizes 10,14,18 [-warmup 1] [-repeat 3] [-mindur 5ms]
//	        [-backend auto] [-wisdom wht-wisdom.json] [-load old-wisdom.json]
//
// With -stagetable FILE it instead regenerates the stage-cost table the
// untuned default is picked from (internal/exec/stagecost.txt): every
// stage of n = 1..24, float64 plus float32, one row per backend this
// host runs, then reports how additive the costs are — the DP's
// predicted time of each pick against the pick measured whole.  Run it
// on a quiet host:
//
//	whttune -stagetable internal/exec/stagecost.txt -repeat 9
//
// Tune once, serve forever:
//
//	whttune -sizes 18 -wisdom wht-wisdom.json     # pay the tuning cost once
//	...
//	wht.LoadWisdom("wht-wisdom.json")             # every later process
//	wht.Transform(x)                              # served from the tuned plan
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tune"
	"repro/internal/wisdom"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whttune: ")
	sizes := flag.String("sizes", "10,14,18", "comma-separated transform log-sizes to tune")
	warmup := flag.Int("warmup", 1, "warmup runs per measurement")
	repeat := flag.Int("repeat", 3, "timed repetitions per measurement (median reported)")
	minDur := flag.Duration("mindur", 5*time.Millisecond, "minimum wall time per repetition")
	backend := flag.String("backend", "", "process-wide kernel backend override: auto, scalar, or simd (the -flag form of WHT_SIMD)")
	wisdomPath := flag.String("wisdom", "", "write accumulated wisdom to this file")
	loadPath := flag.String("load", "", "merge an existing wisdom file before tuning")
	tablePath := flag.String("stagetable", "", "regenerate the default plan's stage-cost table into this file instead of tuning")
	flag.Parse()
	timing := exec.TimingOptions{Warmup: *warmup, Repeat: *repeat, MinDuration: *minDur}

	if *backend != "" {
		b, ok := codelet.ParseBackend(*backend)
		if !ok {
			log.Fatalf("unknown backend %q (want auto, scalar, or simd)", *backend)
		}
		codelet.SetBackend(b)
		if res := codelet.Resolve(b); res.Degraded() {
			log.Printf("warning: backend %s — no SIMD kernel tier on this host, stages run scalar", res)
		}
	}

	if *tablePath != "" {
		if err := writeStageTable(*tablePath, timing); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *loadPath != "" {
		if err := tune.LoadWisdom(*loadPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d entries from %s\n", tune.Wisdom().Len(), *loadPath)
	}

	ns, err := parseSizes(*sizes)
	if err != nil {
		log.Fatal(err)
	}

	fp := wisdom.CurrentFingerprint()
	isaStr := fp.ISA
	if isaStr == "" {
		isaStr = "scalar"
	}
	fmt.Printf("fingerprint: %s/%s maxprocs=%d isa=%s backend=%s\n\n",
		fp.OS, fp.Arch, fp.MaxProcs, isaStr, codelet.ActiveBackend())
	fmt.Printf("%-4s %12s %12s %8s %9s %8s  %s\n", "n", "tuned ns", "default ns", "speedup", "measured", "wall", "plan")
	for _, n := range ns {
		start := time.Now()
		res, err := tune.Tune(n, tune.Options{Timing: timing})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %12.0f %12.0f %7.2fx %9d %8s  %s\n", n, res.NsPerRun, res.BaselineNs,
			res.BaselineNs/res.NsPerRun, res.Measured, time.Since(start).Round(time.Millisecond), res.Plan)
		if res.StageBackends != nil {
			specs := make([]string, len(res.StageBackends))
			for i, b := range res.StageBackends {
				specs[i] = b.String()
			}
			fmt.Printf("     stage backends tuned to [%s]\n", strings.Join(specs, " "))
		}
	}

	if *wisdomPath != "" {
		if err := tune.SaveWisdom(*wisdomPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nsaved %d entries to %s\n", tune.Wisdom().Len(), *wisdomPath)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 || n > 26 {
			return nil, fmt.Errorf("bad size %q (want integers in [1, 26])", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

// writeStageTable times every table stage on each backend row this host
// runs (the scalar kernels, and the vector tier when present), float64
// plus float32 per stage, writes the table to path, and prints the
// additivity report: each pick's DP-predicted cost against the pick
// measured whole, beside the balanced plan measured whole.  Each of the
// timing.Repeat passes times every stage once, and a stage's cost is
// its median over the passes, so a burst of host noise spreads over
// many stages one sample each instead of skewing one stage's every
// sample.
func writeStageTable(path string, timing exec.TimingOptions) error {
	passes := max(timing.Repeat, 1)
	once := timing
	once.Repeat = 1
	type rowSpec struct {
		name string
		pol  codelet.Policy
	}
	var rows []rowSpec
	for _, b := range []codelet.Backend{codelet.ScalarBackend, codelet.SIMDBackend} {
		if b == codelet.SIMDBackend && !codelet.SIMDAvailable() {
			continue
		}
		pol := codelet.DefaultPolicy()
		pol.Backend = b
		rows = append(rows, rowSpec{exec.StageRow(b), pol})
	}
	samples := map[string]map[exec.StageKey][]float64{}
	for pass := 0; pass < passes; pass++ {
		for _, r := range rows {
			if samples[r.name] == nil {
				samples[r.name] = map[exec.StageKey][]float64{}
			}
			for n := 1; n <= exec.StageTableMaxLog; n++ {
				for _, key := range exec.StageKeys(n) {
					ns := exec.TimeStage[float64](key, r.pol, once) + exec.TimeStage[float32](key, r.pol, once)
					samples[r.name][key] = append(samples[r.name][key], ns)
				}
			}
		}
		log.Printf("stage pass %d/%d done", pass+1, passes)
	}
	table := exec.StageTable{}
	for row, keys := range samples {
		table[row] = new(exec.StageCosts)
		for key, ns := range keys {
			table[row][key.N][key.M][key.K] = median(ns)
		}
	}
	fp := wisdom.CurrentFingerprint()
	header := fmt.Sprintf("Stage-cost table of the untuned default plan (exec.DefaultPlan): the median\n"+
		"ns of one stage run alone, float64 plus float32, over %d passes.  Regenerate on a\n"+
		"quiet host with\n"+
		"go run ./cmd/whttune -stagetable internal/exec/stagecost.txt -repeat %d\n"+
		"Measured on %s/%s maxprocs=%d isa=%s, warmup %d, mindur %s.",
		passes, passes, fp.OS, fp.Arch, fp.MaxProcs, fp.ISA, timing.Warmup, timing.MinDuration)
	if err := os.WriteFile(path, table.Format(header), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)

	whole := func(p *plan.Node, pol codelet.Policy) float64 {
		s := exec.CompileWith(p, pol)
		return exec.TimeScheduleOf[float64](s, timing) + exec.TimeScheduleOf[float32](s, timing)
	}
	fmt.Printf("%-13s %-3s %12s %12s %9s %12s  %s\n", "row", "n", "predicted ns", "measured ns", "residual", "balanced ns", "pick")
	for _, r := range rows {
		costs := table[r.name]
		for n := 6; n <= exec.StageTableMaxLog; n++ {
			pick := exec.BestStages(n, 1, func(k exec.StageKey) float64 { return costs[k.N][k.M][k.K] })[0]
			got := whole(plan.FromStages(pick.Stages), r.pol)
			bal := whole(plan.Balanced(n, plan.MaxLeafLog), r.pol)
			fmt.Printf("%-13s %-3d %12.0f %12.0f %+8.1f%% %12.0f  %v\n",
				r.name, n, pick.Cost, got, 100*(pick.Cost-got)/got, bal, pick.Stages)
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
