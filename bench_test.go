// The paper-figure benchmark harness: one benchmark per figure of the
// evaluation section, each regenerating (a scaled version of) the figure's
// series and logging the headline numbers, plus transform/ablation
// benchmarks.  cmd/whtrepro produces the full-scale CSVs; these benchmarks
// are the `go test -bench` entry point demanded of a reproduction.
package repro

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/codelet"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/figures"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/tune"
	"repro/wht"
)

// benchCfg is the scaled configuration the benchmarks run at; the shapes
// are identical to the paper-scale run of cmd/whtrepro.
func benchCfg() figures.Config {
	cfg := figures.Quick()
	cfg.Samples = 150
	cfg.MaxSize = 12
	return cfg
}

// The two sample studies are shared across the figure benchmarks: the
// measurement campaign runs once; each benchmark then times its own
// figure-generation step.
var (
	onceSmall, onceLarge   sync.Once
	studySmall, studyLarge figures.SampleStudy
)

func smallStudy() figures.SampleStudy {
	onceSmall.Do(func() { studySmall = figures.Sample(benchCfg(), benchCfg().SmallN) })
	return studySmall
}

func largeStudy() figures.SampleStudy {
	onceLarge.Do(func() { studyLarge = figures.Sample(benchCfg(), benchCfg().LargeN) })
	return studyLarge
}

// --- Figures 1-3: canonical algorithms vs DP best, n = 1..MaxSize ---

func BenchmarkFig01CanonicalCycleRatios(b *testing.B) {
	cfg := benchCfg()
	var st figures.CanonicalStudy
	for i := 0; i < b.N; i++ {
		st = figures.Canonicals(cfg)
	}
	for i, n := range st.Sizes {
		b.Logf("n=%2d iterative/best=%.2f left/best=%.2f right/best=%.2f (best %s)",
			n, st.CycleRatio["iterative"][i], st.CycleRatio["left"][i], st.CycleRatio["right"][i], st.BestPlans[i])
	}
}

func BenchmarkFig02InstructionRatios(b *testing.B) {
	cfg := benchCfg()
	var st figures.CanonicalStudy
	for i := 0; i < b.N; i++ {
		st = figures.Canonicals(cfg)
	}
	for i, n := range st.Sizes {
		b.Logf("n=%2d iterative/best=%.2f left/best=%.2f right/best=%.2f",
			n, st.InstrRatio["iterative"][i], st.InstrRatio["left"][i], st.InstrRatio["right"][i])
	}
}

func BenchmarkFig03CacheMissRatios(b *testing.B) {
	cfg := benchCfg()
	cfg.MaxSize = 16 // must pass the L1 boundary (n=14) to show the regime change
	var st figures.CanonicalStudy
	for i := 0; i < b.N; i++ {
		st = figures.Canonicals(cfg)
	}
	for i, n := range st.Sizes {
		b.Logf("n=%2d log10 ratios: iterative=%.2f left=%.2f right=%.2f",
			n, math.Log10(st.MissRatio["iterative"][i]), math.Log10(st.MissRatio["left"][i]),
			math.Log10(st.MissRatio["right"][i]))
	}
}

// --- Figures 4-5: histograms over the random samples ---

func BenchmarkFig04HistogramsWHT9(b *testing.B) {
	st := smallStudy()
	var ch, ih stats.Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch = stats.NewHistogram(st.Cycles, 50)
		ih = stats.NewHistogram(st.Instr, 50)
	}
	b.Logf("cycles hist: [%.3g, %.3g] total %d; instr hist: [%.3g, %.3g] total %d",
		ch.Min, ch.Max, ch.Total(), ih.Min, ih.Max, ih.Total())
}

func BenchmarkFig05HistogramsWHT18(b *testing.B) {
	st := largeStudy()
	var ch, ih, mh stats.Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch = stats.NewHistogram(st.Cycles, 50)
		ih = stats.NewHistogram(st.Instr, 50)
		mh = stats.NewHistogram(st.Misses, 50)
	}
	b.Logf("n=%d cycles [%.3g, %.3g]; instr [%.3g, %.3g]; misses [%.3g, %.3g] (all %d samples)",
		st.N, ch.Min, ch.Max, ih.Min, ih.Max, mh.Min, mh.Max, ch.Total())
}

// --- Figures 6-8: correlation scatters ---

func BenchmarkFig06CorrelationWHT9(b *testing.B) {
	st := smallStudy()
	var rho float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rho, _ = stats.Pearson(st.Instr, st.Cycles)
	}
	b.Logf("rho(instructions, cycles) at n=%d: %.3f (paper: 0.96)", st.N, rho)
}

func BenchmarkFig07InstrCorrWHT18(b *testing.B) {
	st := largeStudy()
	var rho float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rho, _ = stats.Pearson(st.Instr, st.Cycles)
	}
	b.Logf("rho(instructions, cycles) at n=%d: %.3f (paper: 0.77 at n=18)", st.N, rho)
}

func BenchmarkFig08MissCorrWHT18(b *testing.B) {
	st := largeStudy()
	var rho float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rho, _ = stats.Pearson(st.Misses, st.Cycles)
	}
	b.Logf("rho(L1 misses, cycles) at n=%d: %.3f (paper: 0.66 at n=18)", st.N, rho)
}

// --- Figure 9: the (alpha, beta) correlation grid ---

func BenchmarkFig09AlphaBetaGrid(b *testing.B) {
	st := largeStudy()
	var res stats.GridResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = stats.GridSearch(st.Instr, st.Misses, st.Cycles, 0.05, false)
	}
	ratio, olsRho := stats.OptimalRatio(st.Instr, st.Misses, st.Cycles)
	b.Logf("max rho %.3f at (alpha=%.2f, beta=%.2f) raw units; OLS ratio %.1f rho %.3f (paper: 0.92)",
		res.Best.Rho, res.Best.Alpha, res.Best.Beta, ratio, olsRho)
}

// --- Figures 10-11: percentile pruning curves ---

func BenchmarkFig10PruningCDFWHT9(b *testing.B) {
	st := smallStudy()
	var curves []stats.PruneCurve
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves = stats.PruneCurves(st.Instr, st.Cycles, []float64{1, 5, 10})
	}
	thr := stats.PruneThreshold(st.Instr, st.Cycles, 5, 1.0)
	b.Logf("n=%d: %d curves; keep-all-of-top-5%% threshold: %.3g instructions (paper: 7e4 at n=9)",
		st.N, len(curves), thr)
}

func BenchmarkFig11PruningCDFWHT18(b *testing.B) {
	st := largeStudy()
	alpha, beta := st.GridRaw.Best.Alpha, st.GridRaw.Best.Beta
	combined := make([]float64, len(st.Instr))
	for i := range combined {
		combined[i] = alpha*st.Instr[i] + beta*st.Misses[i]
	}
	var curves []stats.PruneCurve
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves = stats.PruneCurves(combined, st.Cycles, []float64{1, 5, 10})
	}
	for _, c := range curves {
		b.Logf("n=%d p=%g%%: limit %.3f (expect %.2f)", st.N, c.Percentile, c.Y[len(c.Y)-1], 1-c.Percentile/100)
	}
}

// --- Section 2: the algorithm-space census and the theory of [5] ---

func BenchmarkAlgorithmSpaceCensus(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = theory.GrowthRatio(30, plan.MaxLeafLog)
	}
	b.Logf("a(30)/a(29) = %.3f; a(20) = %s (paper: ~O(7^n))",
		ratio, theory.Count(20, plan.MaxLeafLog))
}

func BenchmarkTheoryMoments(b *testing.B) {
	cost := machine.VirtualOpteron224().Cost
	var mom theory.Moments
	for i := 0; i < b.N; i++ {
		mom = theory.InstructionMoments(18, plan.MaxLeafLog, cost)
	}
	b.Logf("n=18: mean %.4g sd %.4g; n=9: mean %.4g sd %.4g",
		mom.Mean[18], math.Sqrt(mom.Variance[18]), mom.Mean[9], math.Sqrt(mom.Variance[9]))
}

// --- Transform engine benchmarks (real execution, not simulation) ---

// apply is wht.Apply failing the benchmark on error.
func apply(b *testing.B, p *plan.Node, x []float64) {
	if err := wht.Apply(p, x); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTransform(b *testing.B) {
	mach := machine.VirtualOpteron224()
	for _, n := range []int{10, 14, 18, 20} {
		best := search.DP(n, search.VirtualCycles(mach), search.Options{})
		x := make([]float64, 1<<n)
		for i := range x {
			x[i] = float64(i&7) - 3.5
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 << n))
			for i := 0; i < b.N; i++ {
				apply(b, best.Plan, x)
			}
		})
	}
}

// Canonical-plan ablation: the real Go runtime ordering at an out-of-cache
// size should mirror Figure 1 (left-recursive worst).
func BenchmarkCanonicalPlans(b *testing.B) {
	const n = 18
	x := make([]float64, 1<<n)
	for i := range x {
		x[i] = float64(i&15) - 7.5
	}
	for name, p := range map[string]*plan.Node{
		"iterative": plan.Iterative(n),
		"right":     plan.RightRecursive(n),
		"left":      plan.LeftRecursive(n),
		"balanced6": plan.Balanced(n, 6),
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(8 << n))
			for i := 0; i < b.N; i++ {
				apply(b, p, x)
			}
		})
	}
}

// Leaf-size ablation: single-level radix-2^k plans, k = 1..MaxLeafLog.
// The sweet spot trades amortized loop overhead and full-vector pass
// count against register spills.
func BenchmarkLeafSizeAblation(b *testing.B) {
	const n = 16
	x := make([]float64, 1<<n)
	for i := range x {
		x[i] = float64(i & 31)
	}
	for k := 1; k <= plan.MaxLeafLog; k++ {
		p := plan.RadixIterative(n, k)
		b.Run(fmt.Sprintf("radix2^%d", k), func(b *testing.B) {
			b.SetBytes(int64(8 << n))
			for i := 0; i < b.N; i++ {
				apply(b, p, x)
			}
		})
	}
}

// --- Compiled engine: walker vs compiled, batch throughput, SIMD kernels ---

// Walker-vs-compiled on the canonical plans.  "interpret" walks the tree
// on every call (the pre-refactor engine); "compiled" runs a precompiled
// schedule; "compile+run" pays flattening on every call (what a one-shot
// Apply costs).  The deep left-recursive plan is where recursion and
// dispatch overhead bite hardest.
func BenchmarkWalkerVsCompiled(b *testing.B) {
	const n = 18
	x := make([]float64, 1<<n)
	for i := range x {
		x[i] = float64(i&15) - 7.5
	}
	for name, p := range map[string]*plan.Node{
		"balanced": plan.Balanced(n, 6),
		"left":     plan.LeftRecursive(n),
		"right":    plan.RightRecursive(n),
	} {
		sched := exec.Compile(p)
		b.Run(name+"/interpret", func(b *testing.B) {
			b.SetBytes(int64(8 << n))
			for i := 0; i < b.N; i++ {
				if err := exec.Interpret(p, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/compiled", func(b *testing.B) {
			b.SetBytes(int64(8 << n))
			for i := 0; i < b.N; i++ {
				exec.MustRun(sched, x)
			}
		})
		b.Run(name+"/compile+run", func(b *testing.B) {
			b.SetBytes(int64(8 << n))
			for i := 0; i < b.N; i++ {
				exec.MustRun(exec.Compile(p), x)
			}
		})
	}
}

// RunBatch at one worker on Balanced(16, 8), two stages, and on the
// default schedule ForSize(16), at 8 and 32 vectors: every batch runs
// vector by vector, so the per-element time matches a single-vector
// Run of the same schedule.  "parallel" fans the vectors out over
// GOMAXPROCS workers.
func BenchmarkRunBatch(b *testing.B) {
	const n = 16
	for _, sc := range []struct {
		name  string
		sched *exec.Schedule
	}{
		{"balanced", exec.Compile(plan.Balanced(n, plan.MaxLeafLog))},
		{"default", exec.ForSize(n)},
	} {
		for _, lane := range []int{8, 32} {
			batch := make([][]float64, lane)
			for i := range batch {
				batch[i] = make([]float64, 1<<n)
				for j := range batch[i] {
					batch[i][j] = float64((i+j)&15) - 7.5
				}
			}
			for _, w := range []struct {
				name    string
				workers int
			}{{"seq", 1}, {"parallel", 0}} {
				b.Run(fmt.Sprintf("%s/n=%d/lane=%d/%s", sc.name, n, lane, w.name), func(b *testing.B) {
					b.SetBytes(int64(8 << n * lane))
					for i := 0; i < b.N; i++ {
						if err := exec.RunBatch(nil, sc.sched, batch, w.workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// Stage-shape kernel variants at the paper's sizes: the same plan
// compiled strided-only (the legacy engine), contiguous-only, and with
// full variant dispatch (contiguous + interleaved).  The balanced plan's
// last stage runs at S up to 2^(n-8), the stride regime where the
// interleaved kernel's unit-stride streaming passes beat the strided
// walk's cache-hostile access pattern.
func BenchmarkVariantStages(b *testing.B) {
	policies := []struct {
		name string
		pol  codelet.Policy
	}{
		{"strided", codelet.Policy{StridedOnly: true}},
		{"contig", codelet.Policy{ILMinS: -1}},
		{"contig+il", codelet.DefaultPolicy()},
	}
	for _, n := range []int{16, 17, 18, 19, 20} {
		p := plan.Balanced(n, plan.MaxLeafLog)
		x := make([]float64, 1<<n)
		for i := range x {
			x[i] = float64(i&15) - 7.5
		}
		for _, pc := range policies {
			sched := exec.CompileWith(p, pc.pol)
			b.Run(fmt.Sprintf("n=%d/%s", n, pc.name), func(b *testing.B) {
				b.SetBytes(int64(8 << n))
				for i := 0; i < b.N; i++ {
					exec.MustRun(sched, x)
				}
			})
		}
	}
}

// The SIMD backend against the scalar kernels on the streaming forms it
// vectorizes, same plan and policy, backend pinned either way: the
// fused interleaved single-vector path and the strided and contiguous
// tiers.  On hosts without the vector tier both pins run the same
// scalar kernels and every ratio is ~1x.
func BenchmarkSIMDKernels(b *testing.B) {
	if !codelet.SIMDAvailable() {
		b.Log("no SIMD kernel tier on this host; both backends run scalar")
	}
	backends := []struct {
		name string
		bk   codelet.Backend
	}{
		{"scalar", codelet.ScalarBackend},
		{"simd", codelet.SIMDBackend},
	}

	// Fused interleaved single-vector streams: radix-4 passes whose
	// unit-stride k-loops the vector tier replaces four (or eight)
	// columns at a time.
	for _, n := range []int{16, 18} {
		p := plan.Balanced(n, plan.MaxLeafLog)
		x := make([]float64, 1<<n)
		for i := range x {
			x[i] = float64(i&15) - 7.5
		}
		name := fmt.Sprintf("fused-il/n=%d", n)
		ns := map[string]float64{}
		for _, bk := range backends {
			sched := exec.CompileWith(p, codelet.Policy{ILFuse: true, Backend: bk.bk})
			b.Run(name+"/"+bk.name, func(b *testing.B) {
				b.SetBytes(int64(8 << n))
				for i := 0; i < b.N; i++ {
					exec.MustRun(sched, x)
				}
				ns[bk.name] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			})
		}
		if ns["scalar"] > 0 && ns["simd"] > 0 {
			b.Logf("%s: scalar %.0f ns vs simd %.0f ns — %.2fx", name, ns["scalar"], ns["simd"], ns["scalar"]/ns["simd"])
		}
	}

	// Vectorized strided and contiguous unrolled tiers: full j-rows of a
	// strided stage stream as interleaved passes (no gathers), and the
	// contiguous codelets run an in-register head plus whole vector
	// butterfly passes.  StridedOnly forces
	// every stage through the strided dispatch; ILMinS -1 leaves the
	// stride-1 stage on the contiguous codelet with strided above it.
	for _, cfg := range []struct {
		name string
		pol  codelet.Policy
		n    int
	}{
		{"strided/n=16", codelet.Policy{StridedOnly: true}, 16},
		{"strided/n=18", codelet.Policy{StridedOnly: true}, 18},
		{"contig/n=16", codelet.Policy{ILMinS: -1}, 16},
		{"contig/n=18", codelet.Policy{ILMinS: -1}, 18},
	} {
		p := plan.Balanced(cfg.n, plan.MaxLeafLog)
		x := make([]float64, 1<<cfg.n)
		for i := range x {
			x[i] = float64(i&15) - 7.5
		}
		ns := map[string]float64{}
		for _, bk := range backends {
			pol := cfg.pol
			pol.Backend = bk.bk
			sched := exec.CompileWith(p, pol)
			b.Run(cfg.name+"/"+bk.name, func(b *testing.B) {
				b.SetBytes(int64(8 << cfg.n))
				for i := 0; i < b.N; i++ {
					exec.MustRun(sched, x)
				}
				ns[bk.name] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			})
		}
		if ns["scalar"] > 0 && ns["simd"] > 0 {
			b.Logf("%s: scalar %.0f ns vs simd %.0f ns — %.2fx", cfg.name, ns["scalar"], ns["simd"], ns["scalar"]/ns["simd"])
		}
	}

	// Mixed per-stage pins: the shape the tuner's backend sweep registers
	// — SIMD where the stage vectorizes (wide strided rows, streaming
	// forms), scalar where it would not — against the all-scalar pin on
	// the same schedule.
	{
		const n = 18
		p := plan.Balanced(n, plan.MaxLeafLog)
		x := make([]float64, 1<<n)
		for i := range x {
			x[i] = float64(i&15) - 7.5
		}
		ns := map[string]float64{}
		for _, bk := range backends {
			sched := exec.CompileWith(p, codelet.Policy{Backend: codelet.ScalarBackend})
			if bk.bk == codelet.SIMDBackend {
				bs := make([]codelet.Backend, len(sched.Stages()))
				for i, st := range sched.Stages() {
					bs[i] = codelet.ScalarBackend
					if st.V == codelet.Interleaved || st.S >= codelet.SIMDWidth64 {
						bs[i] = codelet.SIMDBackend
					}
				}
				if err := sched.SetStageBackends(bs); err != nil {
					b.Fatal(err)
				}
			}
			name := "mixed-pin/n=18/" + bk.name
			if bk.bk == codelet.SIMDBackend {
				name = "mixed-pin/n=18/mixed"
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(8 << n))
				for i := 0; i < b.N; i++ {
					exec.MustRun(sched, x)
				}
				ns[bk.name] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			})
		}
		if ns["scalar"] > 0 && ns["simd"] > 0 {
			b.Logf("mixed-pin/n=18: scalar %.0f ns vs mixed %.0f ns — %.2fx", ns["scalar"], ns["simd"], ns["scalar"]/ns["simd"])
		}
	}
}

// Measured-cost autotuning vs the untuned default at the paper's hard
// size: the acceptance bar is "tuned no slower than the default".  Both
// plans are timed through the shared exec.TimeSchedule helper (the same
// loop the tuner uses), then run under the standard benchmark harness.
func BenchmarkTunedVsDefault(b *testing.B) {
	const n = 18
	tune.Reset()
	defer tune.Reset()
	timing := exec.TimingOptions{Warmup: 1, Repeat: 3, MinDuration: 10 * time.Millisecond}
	res, err := tune.Tune(n, tune.Options{Timing: timing})
	if err != nil {
		b.Fatal(err)
	}
	defPlan := exec.DefaultPlan(n, codelet.AutoBackend)
	def := exec.Compile(defPlan)
	tuned := exec.Compile(res.Plan)
	b.Logf("n=%d tuned %s: %.0f ns/run vs default %.0f ns/run (%.2fx)",
		n, res.Plan, res.NsPerRun, res.BaselineNs, res.BaselineNs/res.NsPerRun)
	// The rematch inside Tune guarantees a non-default winner beat the
	// baseline head to head; a large regression here means that logic
	// broke.  The margin absorbs wall-clock noise on shared CI runners,
	// and an identical plan is trivially not a regression.
	if !res.Plan.Equal(defPlan) && res.NsPerRun > res.BaselineNs*1.25 {
		b.Errorf("tuned plan (%.0f ns) more than 25%% slower than the default (%.0f ns)",
			res.NsPerRun, res.BaselineNs)
	}
	x := make([]float64, 1<<n)
	for i := range x {
		x[i] = float64(i&15) - 7.5
	}
	b.Run("default", func(b *testing.B) {
		b.SetBytes(int64(8 << n))
		for i := 0; i < b.N; i++ {
			exec.MustRun(def, x)
		}
	})
	b.Run("tuned", func(b *testing.B) {
		b.SetBytes(int64(8 << n))
		for i := 0; i < b.N; i++ {
			exec.MustRun(tuned, x)
		}
	})
}

// Parallel candidate evaluation in the search layer: the same pruned
// search, sequential vs fanned out over a worker pool of forked
// virtual-cycle tracers.
func BenchmarkPrunedSearchWorkers(b *testing.B) {
	mach := machine.VirtualOpteron224()
	model := search.ModelInstructions(mach.Cost)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				search.Pruned(14, 200, 1, model, search.NewCycleCoster(mach), 0.1,
					search.Options{Workers: workers})
			}
		})
	}
}

// --- Simulator and search cost benchmarks ---

func BenchmarkVirtualMeasurementWHT18(b *testing.B) {
	mach := machine.VirtualOpteron224()
	tr := trace.New(mach)
	p := plan.Balanced(18, 6)
	for i := 0; i < b.N; i++ {
		core.Measure(tr, p)
	}
}

func BenchmarkInstructionModel(b *testing.B) {
	cost := machine.VirtualOpteron224().Cost
	s := plan.NewSampler(5, plan.MaxLeafLog)
	plans := s.Plans(18, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Instructions(plans[i&63], cost)
	}
}

func BenchmarkDPSearch(b *testing.B) {
	mach := machine.VirtualOpteron224()
	for i := 0; i < b.N; i++ {
		search.DP(14, search.VirtualCycles(mach), search.Options{})
	}
}

// Context-aware vs plain DP: the paper notes DP is a heuristic because
// sub-plan cost depends on calling context; the stride-aware table closes
// that gap at higher search cost.
func BenchmarkDPContextAblation(b *testing.B) {
	mach := machine.VirtualOpteron224()
	b.Run("plain", func(b *testing.B) {
		var res search.Result
		for i := 0; i < b.N; i++ {
			res = search.DP(14, search.VirtualCycles(mach), search.Options{})
		}
		b.Logf("plain DP: %.4g cycles (%s)", res.Cost, res.Plan)
	})
	b.Run("context", func(b *testing.B) {
		var res search.Result
		for i := 0; i < b.N; i++ {
			res = search.DPContext(14, mach, search.Options{})
		}
		b.Logf("context DP: %.4g cycles (%s)", res.Cost, res.Plan)
	})
}

// Prefetcher ablation: the sequential prefetcher rescues streaming plans
// (iterative) and leaves stride-doubling plans (left-recursive) behind.
func BenchmarkPrefetchAblation(b *testing.B) {
	for _, prefetch := range []bool{false, true} {
		mach := machine.VirtualOpteron224()
		mach.NextLinePrefetch = prefetch
		name := "off"
		if prefetch {
			name = "on"
		}
		b.Run("prefetch="+name, func(b *testing.B) {
			tr := trace.New(mach)
			var iter, left uint64
			for i := 0; i < b.N; i++ {
				iter = tr.Run(plan.Iterative(18)).Mem.L1Misses
				left = tr.Run(plan.LeftRecursive(18)).Mem.L1Misses
			}
			b.Logf("n=18 L1 misses: iterative=%d left=%d", iter, left)
		})
	}
}

// DP arity ablation: wider splits enlarge the candidate set; the bench
// shows the cost growth, the log shows the (small) quality gain.
func BenchmarkDPArityAblation(b *testing.B) {
	mach := machine.VirtualOpteron224()
	for _, arity := range []int{2, 3} {
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			var res search.Result
			for i := 0; i < b.N; i++ {
				res = search.DP(12, search.VirtualCycles(mach), search.Options{MaxArity: arity})
			}
			b.Logf("arity %d: best %.4g cycles (%s)", arity, res.Cost, res.Plan)
		})
	}
}
