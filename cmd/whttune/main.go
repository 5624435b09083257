// Command whttune is the measured-cost autotuner: for each requested
// size it runs the model-pruned search with a real-timing final stage
// (the paper's conclusion — spend cheap model evaluations to shortlist,
// measurements only on the shortlist), compares the winner against the
// balanced default, and accumulates the results into a wisdom file that
// wht.LoadWisdom (or -load here) serves from in later processes.
//
// Usage:
//
//	whttune -sizes 10,14,18 [-count 24] [-keep 0.25] [-seed 1]
//	        [-workers 4] [-repeat 3] [-mindur 5ms] [-backend auto]
//	        [-wisdom wht-wisdom.json] [-load old-wisdom.json]
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
	"strconv"
	"strings"
	"time"

	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/internal/tune"
	"repro/internal/wisdom"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whttune: ")
	sizes := flag.String("sizes", "10,14,18", "comma-separated transform log-sizes to tune")
	count := flag.Int("count", 24, "random candidates per size")
	keep := flag.Float64("keep", 0.25, "fraction surviving the model filter into real timing")
	seed := flag.Uint64("seed", 1, "sampling seed")
	workers := flag.Int("workers", 1, "parallel model evaluations")
	warmup := flag.Int("warmup", 1, "warmup runs per measurement")
	repeat := flag.Int("repeat", 3, "timed repetitions per measurement (median reported)")
	minDur := flag.Duration("mindur", 5*time.Millisecond, "minimum wall time per repetition")
	backend := flag.String("backend", "", "process-wide kernel backend override: auto, scalar, or simd (the -flag form of WHT_SIMD)")
	wisdomPath := flag.String("wisdom", "", "write accumulated wisdom to this file")
	loadPath := flag.String("load", "", "merge an existing wisdom file before tuning")
	flag.Parse()

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
	fmt.Printf("%-4s %12s %12s %8s %9s  %s\n", "n", "tuned ns", "balanced ns", "speedup", "measured", "plan")
	for _, n := range ns {
		opt := tune.Options{
			Candidates: *count,
			KeepFrac:   *keep,
			Seed:       *seed,
			Workers:    *workers,
			Timing:     exec.TimingOptions{Warmup: *warmup, Repeat: *repeat, MinDuration: *minDur},
		}
		res, err := tune.Tune(n, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %12.0f %12.0f %7.2fx %9d  %s\n",
			n, res.NsPerRun, res.BaselineNs, res.BaselineNs/res.NsPerRun, res.Measured, res.Plan)
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
