// Package wht is the public API of the WHT performance-analysis library, a
// Go reproduction of Andrews & Johnson, "Performance Analysis of a Family
// of WHT Algorithms" (IPPS 2007).
//
// It exposes, as thin aliases over the internal packages:
//
//   - plans (the ~O(7^n) algorithm space of split trees) and their
//     compiled evaluation: Compile flattens a plan once into a reusable
//     Schedule of I(R) (x) WHT(2^m) (x) I(S) stages and one generic
//     executor runs it for float64 and float32 vectors, on one or many
//     workers, one vector or a whole batch at a time; unrolled
//     codelets cover every leaf size 2^1..2^8 (MaxLeafLog), and sequency
//     (Walsh) ordering is included;
//   - the performance models of the paper: instruction counts from the
//     high-level description, direct-mapped cache-miss counts, and the
//     combined alpha*I + beta*M model;
//   - the virtual Opteron 224 machine and its trace-driven cache/TLB
//     simulator, standing in for the paper's PAPI measurements;
//   - the searches (dynamic programming, exhaustive, random, model-pruned)
//     and the theory of the space (exact counts, extremes, moments).
//
// Quick start:
//
//	x := make([]float64, 1<<10)
//	x[3] = 1
//	if err := wht.Transform(x); err != nil { ... }
//
// Transform answers repeated same-size calls from a process-wide LRU cache
// of compiled schedules.  To serve many vectors with one explicit plan,
// compile it once:
//
//	sched, err := wht.Compile(p)
//	for _, x := range vectors { _ = wht.Run(sched, x) }
//
// or hand the whole batch over: wht.RunBatch(ctx, sched, vectors, 0).
// Run is the bare call on the caller's goroutine; RunCtx (one vector)
// and RunBatch (many) add cancellation, kernel-panic containment and a
// worker count (0: GOMAXPROCS, 1: the caller's goroutine).  A batch
// runs vector by vector, its workers taking whole vectors.
//
// On amd64 hosts with AVX2 (and arm64 with NEON) the streaming kernel
// forms (interleaved and fused interleaved), wide strided stages and
// large contiguous leaves execute through
// hand-written vector assembly, bitwise-identical to the scalar tier
// because unit-stride vectorization never reorders any element's
// add/sub chain.  The scalar tier runs unrolled codelets for strided
// leaves and contiguous leaves up to 2^7, and loops for every other
// shape; on NaN inputs only the NaN payload bits may differ between
// tiers.  Dispatch is automatic (runtime CPU detection); Policy.Backend
// pins one schedule, SetBackend or the WHT_SIMD environment variable
// ("scalar"/"simd") overrides the whole process, and every other
// GOOS/GOARCH builds the pure-Go fallback via build tags.
//
// Model-driven search on the virtual machine:
//
//	mach := wht.NewMachine()
//	best := wht.SearchDP(20, wht.VirtualCycles(mach), wht.SearchOptions{})
//	_ = wht.Apply(best.Plan, x)
//
// Autotuning with real measurements and persistent wisdom: Tune times
// every butterfly stage a size's algorithms can execute, runs the exact
// stage-sequence DP over those timings, times the cheapest sequences
// whole against the untuned default, registers the winner behind
// Transform's schedule cache, and records it in a process wisdom store.  SaveWisdom/LoadWisdom persist that store as a small
// versioned JSON file keyed by a machine fingerprint
// (GOOS/GOARCH/GOMAXPROCS plus the detected vector ISA), so a fresh
// process serves tuned plans from its first Transform call:
//
//	res, _ := wht.Tune(18, wht.TuneOptions{})
//	_ = wht.SaveWisdom("wht-wisdom.json")   // tune once ...
//	// ... later, in a new process:
//	_ = wht.LoadWisdom("wht-wisdom.json")   // ... serve forever
//	_ = wht.Transform(x)                    // uses the tuned plan
package wht

import (
	"context"

	"repro/internal/codelet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/tune"
	"repro/internal/wht"
	"repro/internal/wisdom"
)

// Plan is a node of a WHT algorithm tree ("small[k]" leaves and
// "split[...]" internal nodes).
type Plan = plan.Node

// MaxLeafLog is the largest unrolled codelet log-size (2^8 = 256 points),
// and so the largest leaf a plan may carry.
const MaxLeafLog = plan.MaxLeafLog

// Plan construction and parsing.
var (
	Leaf      = plan.Leaf
	NewLeaf   = plan.NewLeaf
	Split     = plan.Split
	NewSplit  = plan.NewSplit
	Parse     = plan.Parse
	MustParse = plan.MustParse
)

// Canonical algorithms of the paper's Section 2.
var (
	Iterative      = plan.Iterative
	RightRecursive = plan.RightRecursive
	LeftRecursive  = plan.LeftRecursive
	Balanced       = plan.Balanced
	RadixIterative = plan.RadixIterative
)

// Sampler draws plans from the recursive split uniform distribution of
// [5], the distribution of the paper's 10,000-plan studies.
type Sampler = plan.Sampler

// NewSampler returns a deterministic rsu sampler.
var NewSampler = plan.NewSampler

// Transform applies the default plan in place (see ScheduleForSize);
// len(x) must be a power of two >= 2.  Repeated calls at the same length reuse a compiled
// schedule from a process-wide LRU cache (the library's FFTW-"wisdom"
// analogue) instead of re-planning and re-compiling.
func Transform(x []float64) error { return transform(x) }

// Transform32 is Transform on a float32 vector, served from the same
// cached schedules: a schedule is element-type agnostic.  4-byte
// elements are what put the virtual Opteron's cache boundaries at
// n = 14 and n = 18.
func Transform32(x []float32) error { return transform(x) }

func transform[T Float](x []T) error {
	n, err := log2Len(len(x))
	if err != nil {
		return err
	}
	return exec.Run(exec.ForSize(n), x)
}

// Apply compiles the plan and evaluates it in place on x, a float64 or
// float32 vector of the plan's size.  The plan determines the order of
// butterflies but not the result: any valid plan of matching size
// computes the same transform.  To amortize compilation over many
// vectors, use Compile and then Run, RunCtx or RunBatch.
func Apply[T Float](p *Plan, x []T) error {
	s, err := exec.NewSchedule(p)
	if err != nil {
		return err
	}
	return exec.Run(s, x)
}

// Schedule is a plan compiled to a flat sequence of
// I(R) (x) WHT(2^m) (x) I(S) stage ops.  Schedules are immutable, safe
// for concurrent use, and shared between the float64 and float32 engines.
type Schedule = exec.Schedule

// Float constrains the element types the generic executor accepts
// (float32 and float64).
type Float = exec.Float

// Variant identifies the stage-shape-specialized kernel form a compiled
// stage executes with: the generic strided kernel, the stride-1
// contiguous kernel, or the interleaved kernel that absorbs a stage's
// inner k-loop into unit-stride streaming passes.
type Variant = codelet.Variant

// The kernel variants.
const (
	VariantStrided     = codelet.Strided
	VariantContiguous  = codelet.Contiguous
	VariantInterleaved = codelet.Interleaved
)

// VariantPolicy selects a kernel variant per stage shape at compile time.
// The zero value is the library default: contiguous kernels at S == 1,
// interleaved kernels at S >= DefaultILMinS, strided between.
type VariantPolicy = codelet.Policy

// DefaultILMinS is the default smallest stage S at which the interleaved
// kernel is selected.
const DefaultILMinS = codelet.DefaultILMinS

// DefaultVariantPolicy returns the default variant-selection policy.
var DefaultVariantPolicy = codelet.DefaultPolicy

// Backend selects the instruction tier the streaming kernel forms run
// on (VariantPolicy.Backend): the portable scalar kernels or the
// hand-written vector kernels on hosts that have them.  SIMD results
// are bitwise-identical to scalar — vectorizing a unit-stride butterfly
// sweep never reorders any element's operation DAG — so the choice is
// purely a performance one, measured per stage shape by the tuner.
type Backend = codelet.Backend

// The kernel backends.
const (
	// AutoBackend (the zero value) follows the process override
	// (SetBackend / the WHT_SIMD environment variable) and, absent one,
	// runs SIMD whenever the host supports it.
	AutoBackend = codelet.AutoBackend
	// ScalarBackend pins the pure-Go kernels.
	ScalarBackend = codelet.ScalarBackend
	// SIMDBackend requests the vector kernels, degrading to scalar
	// (never erroring) on hosts without the tier.
	SIMDBackend = codelet.SIMDBackend
)

// ParseBackend parses the wisdom-file and WHT_SIMD spellings of a
// backend: "", "auto", "scalar"/"off"/"0", "simd"/"on"/"1".
var ParseBackend = codelet.ParseBackend

// SIMDAvailable reports whether the SIMD kernel tier exists on this
// host (amd64 with AVX2 and OS-enabled YMM state).
var SIMDAvailable = codelet.SIMDAvailable

// SetBackend sets the process-wide backend override Auto-backend
// schedules resolve through — the programmatic form of the WHT_SIMD
// environment variable.  Per-schedule choices via
// VariantPolicy.Backend take precedence.
var SetBackend = codelet.SetBackend

// ActiveBackend returns the process-wide backend override (AutoBackend
// when none was set).
var ActiveBackend = codelet.ActiveBackend

// ISAFeatures names the detected vector extensions ("avx2", or "" on
// scalar-only hosts) — the string recorded in wisdom fingerprints, so
// SIMD-tuned wisdom refuses to load where the ISA differs.
var ISAFeatures = isa.Features

// Compile flattens a plan into a reusable schedule under the default
// variant policy.
func Compile(p *Plan) (*Schedule, error) { return exec.NewSchedule(p) }

// CompileWith is Compile under an explicit variant-selection policy —
// e.g. VariantPolicy{StridedOnly: true} for the legacy single-variant
// engine, or VariantPolicy{ILMinS: 2} to interleave every strided stage.
func CompileWith(p *Plan, pol VariantPolicy) (*Schedule, error) {
	return exec.NewScheduleWith(p, pol)
}

// Run executes a compiled schedule in place on x on the caller's
// goroutine, with no cancellation and no panic containment: the
// cheapest call, the one Transform and Apply make.
func Run[T Float](s *Schedule, x []T) error { return exec.Run(s, x) }

// RunCtx is Run with cooperative cancellation, fault containment and a
// worker count.  The executor polls ctx between bounded chunks of
// kernel calls, so cancellation takes effect within one chunk and
// returns ctx.Err(); a nil ctx skips the polling.  A kernel panic comes
// back as an error matching ErrKernelPanic instead of crashing the
// process.  workers <= 0 selects GOMAXPROCS and 1 runs on the caller's
// goroutine.  Transforms of at least 2^17 elements
// (exec.ParallelMinElems, the measured crossover) fan out over a
// worker pool: the leading stages whose rows fit a cache block run
// block by block with no barrier, then one barrier separates each
// later stage from the next.  Smaller transforms run on the caller's
// goroutine, where fanning out costs more than it saves.
func RunCtx[T Float](ctx context.Context, s *Schedule, x []T, workers int) error {
	return exec.RunCtx(ctx, s, x, workers)
}

// RunBatch executes one schedule over many vectors in place, with
// RunCtx's cancellation, containment and worker count; a kernel panic
// poisons only its batch call.  Workers take whole vectors, with no
// stage barriers.
func RunBatch[T Float](ctx context.Context, s *Schedule, xs [][]T, workers int) error {
	return exec.RunBatch(ctx, s, xs, workers)
}

// RunParallel is RunCtx with a nil ctx, the name the benchmark's
// vector-large workload calls.
func RunParallel[T Float](s *Schedule, x []T, workers int) error {
	return exec.RunCtx(nil, s, x, workers)
}

// RunBatchParallelCtx is RunBatch, the name the benchmark's serve-open
// workload calls.
func RunBatchParallelCtx[T Float](ctx context.Context, s *Schedule, xs [][]T, workers int) error {
	return exec.RunBatch(ctx, s, xs, workers)
}

// ErrKernelPanic is the sentinel every contained kernel panic matches
// (errors.Is).  The concrete error is a *PanicError carrying the stage
// index, the panic value, and the goroutine stack — blast-radius
// attribution for one poisoned request.
var ErrKernelPanic = exec.ErrKernelPanic

// PanicError is the typed error a recovered kernel panic returns.
type PanicError = exec.PanicError

// ErrCorruptWisdom is the sentinel a damaged wisdom file matches
// (errors.Is): truncated, scrambled, trailing-garbage, or structurally
// invalid content.  Intact files that merely mismatch this build's
// version or machine fingerprint return ordinary errors instead — they
// are somebody's valid wisdom, not corruption.  The concrete error is a
// *wisdom.CorruptError naming the path and damage shape; the serving
// daemon quarantines on exactly this match.
var ErrCorruptWisdom = wisdom.ErrCorrupt

// Definition is the O(N^2) transform straight from the matrix definition
// (the correctness reference).
var Definition = wht.Definition

// Machine is the virtual processor description (costs, caches, TLBs).
type Machine = machine.Machine

// NewMachine returns the paper's testbed model, the virtual Opteron 224.
func NewMachine() *Machine { return machine.VirtualOpteron224() }

// Tracer drives plans through the machine's simulated memory hierarchy.
type Tracer = trace.Tracer

// NewTracer returns a tracer (one per goroutine) for the machine.
var NewTracer = trace.New

// Measurement is one virtual PAPI reading: instructions, misses, cycles.
type Measurement = core.Measurement

// Measure runs one plan through a tracer and the cycle model.
var Measure = core.Measure

// Instructions evaluates the closed-form instruction-count model of [5].
func Instructions(p *Plan, m *Machine) int64 { return core.Instructions(p, m.Cost) }

// DirectMappedMisses evaluates the cache-miss model of [8]: misses in a
// direct-mapped cache of 2^lgLines one-element lines.
var DirectMappedMisses = core.DirectMappedMisses

// Combined evaluates the paper's alpha*I + beta*M model.
var Combined = core.Combined

// Search API.
type (
	// SearchCost scores a plan (lower is better).  It satisfies Coster,
	// so functors and closures plug into every search.
	SearchCost = search.Cost
	// Coster is the unified scoring abstraction: the closed-form model,
	// the virtual-cycle simulator, and real measured execution are
	// interchangeable backends behind it.  Fork yields per-goroutine
	// evaluators for concurrent search (SearchOptions.Workers > 1).
	Coster = search.Coster
	// SearchOptions bounds the searches.
	SearchOptions = search.Options
	// SearchResult is a plan with its cost.
	SearchResult = search.Result
)

// Coster backends and combinators.
var (
	// NewModelCoster is the forkable closed-form instruction-model
	// backend (stateless, parallelizes freely).
	NewModelCoster = search.NewModelCoster
	// NewCycleCoster is the concurrency-safe virtual-cycle backend (one
	// tracer per fork).
	NewCycleCoster = search.NewCycleCoster
	// NewMeasuredCoster compiles and times candidates for real — the
	// backend that closes the model/measurement gap the paper documents.
	NewMeasuredCoster = search.NewMeasuredCoster
	// NewStageModelCoster is the variant-aware instruction model of the
	// compiled engine: candidates are flattened under a variant policy
	// and costed per stage shape, so model-guided search sees the same
	// contiguous/strided/interleaved landscape the measured coster does.
	NewStageModelCoster = search.NewStageModelCoster
	// NewStageCycleCoster is the variant-aware virtual-cycle backend:
	// each candidate's schedule is replayed through the simulated cache
	// hierarchy with its per-stage kernel variant's reference stream.
	NewStageCycleCoster = search.NewStageCycleCoster
	// Memoize wraps a Coster with a concurrent plan-hash memo shared
	// across forks.
	Memoize = search.Memoize
)

var (
	// VirtualCycles measures deterministic cycles on the machine.
	VirtualCycles = search.VirtualCycles
	// ModelInstructions scores by the instruction model only.
	ModelInstructions = search.ModelInstructions
	// SearchDP is the WHT package's dynamic-programming search.
	SearchDP = search.DP
	// SearchDPContext is the stride-aware DP (scores sub-plans in their
	// calling context, addressing the heuristic gap the paper notes).
	SearchDPContext = search.DPContext
	// SearchExhaustive scans the whole space (small sizes only).
	SearchExhaustive = search.Exhaustive
	// SearchRandom scores a random rsu sample.
	SearchRandom = search.Random
	// SearchPruned is the paper's model-pruned search.
	SearchPruned = search.Pruned
	// SearchAnneal is simulated annealing over the plan space.
	SearchAnneal = search.Anneal
)

// AnnealOptions tunes SearchAnneal.
type AnnealOptions = search.AnnealOptions

// Autotuning: measured-cost search plus persistent wisdom.
type (
	// TimingOptions controls real-execution timing (warmup runs, timed
	// repetitions, minimum duration per repetition).
	TimingOptions = exec.TimingOptions
	// TuneOptions bounds a tuning run.
	TuneOptions = tune.Options
	// TuneResult is the outcome of a tuning run.
	TuneResult = tune.Result
	// CacheStats counts schedule-cache traffic (hits/misses/evictions).
	CacheStats = exec.CacheStats
)

var (
	// TimeSchedule measures the median real per-run latency of a
	// compiled schedule in nanoseconds — the shared timing loop behind
	// the measured-cost search backend and the tuner.  Its scratch
	// vector is reinitialized between timed chunks so arbitrarily long
	// measurements never overflow the unnormalized transform's ~2^n
	// per-run growth into Inf/NaN arithmetic.
	TimeSchedule = exec.TimeSchedule
	// TimeBatch measures the median latency of transforming a whole
	// batch of lane vectors through RunBatch's path at one worker.
	TimeBatch = exec.TimeBatch
	// Tune finds a measured-fast plan for WHT(2^n), serves it from the
	// schedule cache behind Transform, and records it in the process
	// wisdom store.
	Tune = tune.Tune
	// SaveWisdom persists every plan tuned or loaded in this process.
	SaveWisdom = tune.SaveWisdom
	// LoadWisdom restores a wisdom file and serves its plans from the
	// schedule cache (rejecting corrupt, mis-versioned, or
	// wrong-machine-fingerprint files).
	LoadWisdom = tune.LoadWisdom
	// ResetTuning drops tuned plans and wisdom, restoring the untuned
	// defaults.
	ResetTuning = tune.Reset
	// ScheduleCacheStats reports traffic counters of the process-wide
	// schedule cache behind Transform/Transform32.
	ScheduleCacheStats = exec.DefaultCacheStats
	// ScheduleForSize returns the process-wide cached schedule serving
	// WHT(2^n): the tuned plan when one is registered, the untuned
	// default (the stage-sequence DP's pick over the checked-in
	// stage-cost table; see exec.ForSize) otherwise.
	ScheduleForSize = exec.ForSize
)

// Record is a flat measurement row; Collect measures plans in parallel.
type Record = dataset.Record

var (
	Collect       = dataset.Collect
	CollectSample = dataset.CollectSample
	WriteCSV      = dataset.WriteCSV
	ReadCSV       = dataset.ReadCSV
)

// Theory of the algorithm space ([5]).
var (
	// CountAlgorithms returns the exact size of the space (~O(7^n)).
	CountAlgorithms = theory.Count
	// SpaceGrowthRatio returns a(n)/a(n-1).
	SpaceGrowthRatio = theory.GrowthRatio
	// MinInstructionPlan reconstructs the instruction-optimal plan.
	MinInstructionPlan = theory.MinInstructionPlan
)

// InstructionExtremes returns the min/max instruction counts per size.
func InstructionExtremes(n, leafMax int, m *Machine) theory.Extremes {
	return theory.InstructionExtremes(n, leafMax, m.Cost)
}

// InstructionMoments returns the exact mean/variance of the instruction
// count under the rsu distribution.
func InstructionMoments(n, leafMax int, m *Machine) theory.Moments {
	return theory.InstructionMoments(n, leafMax, m.Cost)
}
