// Autotune: use the dynamic-programming search (the WHT package's "best"
// algorithm, as in the paper's Figures 1-3) to find a fast plan on the
// virtual Opteron, then compare it against the three canonical algorithms
// both in virtual cycles and in real Go wall-clock time.  The final step
// is the measured-cost tuner: wht.Tune times real compiled schedules,
// serves the winner from Transform's schedule cache, and persists it as
// wisdom for later processes — the paper's point that search must
// ultimately be driven by measurements, closed end to end.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/wht"
)

const n = 18 // 2^18 elements: past L1, at the L2 boundary — the paper's hard regime

func main() {
	mach := wht.NewMachine()

	start := time.Now()
	best := wht.SearchDP(n, wht.VirtualCycles(mach), wht.SearchOptions{})
	fmt.Printf("DP search found %s in %v\n\n", best.Plan, time.Since(start).Round(time.Millisecond))

	plans := []struct {
		name string
		p    *wht.Plan
	}{
		{"dp-best", best.Plan},
		{"iterative", wht.Iterative(n)},
		{"right-rec", wht.RightRecursive(n)},
		{"left-rec", wht.LeftRecursive(n)},
		{"balanced-6", wht.Balanced(n, 6)},
	}

	tr := wht.NewTracer(mach)
	fmt.Printf("%-11s %14s %14s %12s %12s %12s\n",
		"plan", "virt cycles", "instructions", "l1 misses", "tlb misses", "go time")
	rng := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, 1<<n)
	for i := range x {
		x[i] = rng.Float64()
	}
	for _, pl := range plans {
		m := wht.Measure(tr, pl.p)
		elapsed := timeTransform(pl.p, x)
		fmt.Printf("%-11s %14.0f %14d %12d %12d %12v\n",
			pl.name, m.Cycles, m.Instructions, m.L1Misses, m.TLBMisses, elapsed.Round(time.Microsecond))
	}

	fmt.Println("\nNote: virtual cycles are deterministic simulator output (the paper's")
	fmt.Println("Opteron stand-in); Go wall-clock depends on the host but should show the")
	fmt.Println("same ordering for the extreme plans (left-recursive worst at this size).")

	// Measured-cost tuning: the stage-sequence DP over real stage
	// timings, then serve the winner from the schedule cache and persist
	// it as wisdom.
	start = time.Now()
	tuned, err := wht.Tune(n, wht.TuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured tuning picked %s (%.0f ns/run, %d timings) in %v\n",
		tuned.Plan, tuned.NsPerRun, tuned.Measured, time.Since(start).Round(time.Millisecond))

	path := filepath.Join(os.TempDir(), "wht-wisdom.json")
	if err := wht.SaveWisdom(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wisdom saved to %s — a later process calls wht.LoadWisdom(%q)\n", path, path)
	fmt.Println("and wht.Transform serves the tuned plan from its first call on.")
}

// timeTransform runs the plan a few times on a private copy and returns
// the best wall-clock time.
func timeTransform(p *wht.Plan, x []float64) time.Duration {
	buf := make([]float64, len(x))
	bestTime := time.Duration(1<<62 - 1)
	for rep := 0; rep < 3; rep++ {
		copy(buf, x)
		start := time.Now()
		if err := wht.Apply(p, buf); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start); d < bestTime {
			bestTime = d
		}
	}
	return bestTime
}
