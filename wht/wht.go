// Package wht is the public API of the WHT performance-analysis library, a
// Go reproduction of Andrews & Johnson, "Performance Analysis of a Family
// of WHT Algorithms" (IPPS 2007).
//
// It exposes, as thin aliases over the internal packages:
//
//   - plans (the ~O(7^n) algorithm space of split trees) and their
//     compiled evaluation: Compile flattens a plan once into a reusable
//     Schedule of I(R) (x) WHT(2^m) (x) I(S) stages and one generic
//     executor runs it for float64 and float32 vectors, sequentially, in
//     parallel (schedule-aware fan-out), or over whole batches; unrolled
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
// or hand the whole batch over: wht.ApplyBatch(p, vectors).  Wide
// batches with favorable schedule shapes are served by the SoA tier
// (one stage pass across the whole lane of vectors, bitwise-equal to
// per-vector evaluation); RunBatchSoA/ApplyBatchSoA force it, and
// Schedule.SetSoAMinBatch (or a tuned wisdom entry) sets the crossover.
//
// On amd64 hosts with AVX2 the streaming kernel forms (interleaved,
// fused-IL, and the SoA lane sweeps) execute through hand-written
// vector assembly, bitwise-identical to the scalar codelets because
// unit-stride vectorization never reorders any element's add/sub
// chain.  Dispatch is automatic (runtime CPU detection); Policy.Backend
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
// Autotuning with real measurements and persistent wisdom: Tune runs the
// paper's model-pruned search with a measured-cost final stage (each
// surviving candidate is compiled and timed for real), registers the
// winner behind Transform's schedule cache, and records it in a process
// wisdom store.  SaveWisdom/LoadWisdom persist that store as a small
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

// Transform applies a default (balanced) plan in place; len(x) must be a
// power of two >= 2.  Repeated calls at the same length reuse a compiled
// schedule from a process-wide LRU cache (the library's FFTW-"wisdom"
// analogue) instead of re-planning and re-compiling.
var Transform = wht.Transform

// Apply compiles the plan and evaluates it in place on x.  To amortize
// compilation over many vectors, use Compile/Run or ApplyBatch.
var Apply = wht.Apply

// Schedule is a plan compiled to a flat sequence of
// I(R) (x) WHT(2^m) (x) I(S) stage ops.  Schedules are immutable, safe
// for concurrent use, and shared between the float64 and float32 engines.
type Schedule = exec.Schedule

// Float constrains the element types the generic executor accepts
// (float32 and float64).
type Float = exec.Float

// Variant identifies the stage-shape-specialized kernel form a compiled
// stage executes with: the generic strided codelet, the stride-1
// contiguous codelet, or the interleaved codelet that absorbs a stage's
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

// Run executes a compiled schedule in place on x; it is the single
// evaluation code path behind every Apply* entry point.
func Run[T Float](s *Schedule, x []T) error { return exec.Run(s, x) }

// RunCtx is Run with cooperative cancellation and fault containment:
// the executor polls ctx between bounded chunks of kernel calls (so
// cancellation takes effect within one chunk, returning ctx.Err()) and
// recovers kernel panics into an error matching ErrKernelPanic instead
// of crashing the process.  A nil ctx runs the uninstrumented chunking
// and costs nothing over Run.
func RunCtx[T Float](ctx context.Context, s *Schedule, x []T) error {
	return exec.RunCtx(ctx, s, x)
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

// RunParallel is Run with the schedule's stages executed by a worker
// pool (workers <= 0 selects GOMAXPROCS): the leading stages whose rows
// fit a cache block run block by block with no barrier, then one
// barrier separates each later stage from the next.  Transforms below
// 2^17 elements (the measured crossover, exec.ParallelMinElems), or
// calls with one worker, run on the caller's goroutine, where fanning
// out costs more than it saves.
func RunParallel[T Float](s *Schedule, x []T, workers int) error {
	return exec.RunParallel(s, x, workers)
}

// RunParallelCtx is RunParallel with cooperative cancellation and
// per-worker panic containment: every pool goroutine recovers, the
// first failure aborts the rest of the run, and the pool is reusable
// afterwards.
func RunParallelCtx[T Float](ctx context.Context, s *Schedule, x []T, workers int) error {
	return exec.RunParallelCtx(ctx, s, x, workers)
}

// RunBatch executes one schedule over many vectors in place.  When the
// batch width and the schedule's shape favor it (see SoAMinBatch and
// the tuner's batch sweep), the batch runs through the SoA tier — one
// stage pass across the whole lane of vectors instead of per vector —
// computing bitwise the same results.
func RunBatch[T Float](s *Schedule, xs [][]T) error { return exec.RunBatch(s, xs) }

// RunBatchSoA forces the batch through the structure-of-arrays tier:
// transpose into a pooled SoA scratch buffer, run every stage once
// across the lane of len(xs) vectors, transpose back.
func RunBatchSoA[T Float](s *Schedule, xs [][]T) error { return exec.RunBatchSoA(s, xs) }

// RunBatchSoAParallel is RunBatchSoA with the batch split into
// contiguous per-worker lanes (workers <= 0 selects GOMAXPROCS).
func RunBatchSoAParallel[T Float](s *Schedule, xs [][]T, workers int) error {
	return exec.RunBatchSoAParallel(s, xs, workers)
}

// RunBatchCtx, RunBatchParallelCtx, RunBatchSoACtx, and
// RunBatchSoAParallelCtx are the batch executors with cooperative
// cancellation and panic containment: ctx is polled between vectors
// and between SoA sub-lanes, and a kernel panic poisons only its batch
// call, coming back as an error matching ErrKernelPanic.
func RunBatchCtx[T Float](ctx context.Context, s *Schedule, xs [][]T) error {
	return exec.RunBatchCtx(ctx, s, xs)
}

// RunBatchParallelCtx is RunBatchParallel with cancellation and
// per-worker panic containment.
func RunBatchParallelCtx[T Float](ctx context.Context, s *Schedule, xs [][]T, workers int) error {
	return exec.RunBatchParallelCtx(ctx, s, xs, workers)
}

// RunBatchSoACtx is RunBatchSoA with cancellation and panic containment.
func RunBatchSoACtx[T Float](ctx context.Context, s *Schedule, xs [][]T) error {
	return exec.RunBatchSoACtx(ctx, s, xs)
}

// RunBatchSoAParallelCtx is RunBatchSoAParallel with cancellation and
// per-worker panic containment.
func RunBatchSoAParallelCtx[T Float](ctx context.Context, s *Schedule, xs [][]T, workers int) error {
	return exec.RunBatchSoAParallelCtx(ctx, s, xs, workers)
}

// DefaultSoAMinBatch is the batch width at which the batch executors
// switch to the SoA tier by default when the schedule's shape favors it;
// Schedule.SetSoAMinBatch (or a tuned wisdom entry) overrides the
// crossover per schedule.
const DefaultSoAMinBatch = exec.DefaultSoAMinBatch

// ApplyBatch and ApplyBatch32 transform every vector of a batch in place
// with one compiled schedule — the serving shape for repeated traffic.
// Wide batches with favorable schedule shapes are served by the SoA tier
// automatically.
var (
	ApplyBatch   = wht.ApplyBatch
	ApplyBatch32 = wht.ApplyBatch32
)

// TransformCtx, ApplyCtx, and ApplyBatchCtx are the cancellable,
// fault-contained forms of Transform, Apply, and ApplyBatch — the
// entry points the serving daemon (cmd/whtserved) builds on.
var (
	TransformCtx  = wht.TransformCtx
	ApplyCtx      = wht.ApplyCtx
	ApplyBatchCtx = wht.ApplyBatchCtx
)

// ApplyBatchSoA and ApplyBatchSoA32 force the batch through the SoA
// tier regardless of the crossover heuristic.
var (
	ApplyBatchSoA   = wht.ApplyBatchSoA
	ApplyBatchSoA32 = wht.ApplyBatchSoA32
)

// ApplyBatchParallel is ApplyBatch fanned out across vectors (whole
// transforms per worker, no stage barriers).
var ApplyBatchParallel = wht.ApplyBatchParallel

// ApplyParallel compiles the plan and executes it with schedule-aware
// fan-out: every stage whose independent kernel calls exceed the fan-out
// grain is split across the worker pool, wherever its leaf sat in the
// tree (the old tree walker could only fan out at the root).
var ApplyParallel = wht.ApplyParallel

// ApplyStrided evaluates a plan on a strided sub-vector (the building
// block of multi-dimensional transforms).
var ApplyStrided = wht.ApplyStrided

// Inverse applies the inverse transform (Apply followed by the 1/N scale).
var Inverse = wht.Inverse

// Apply2D computes the separable two-dimensional WHT of a row-major
// matrix; Transform2D uses default plans.
var (
	Apply2D     = wht.Apply2D
	Transform2D = wht.Transform2D
)

// Apply32 and Transform32 are the single-precision engine (the WHT
// package's wht_float build; 4-byte elements are what the virtual
// Opteron's cache boundaries assume).
var (
	Apply32     = wht.Apply32
	Transform32 = wht.Transform32
)

// Definition is the O(N^2) transform straight from the matrix definition
// (the correctness reference).
var Definition = wht.Definition

// Sequency (Walsh) ordering conversions.
var (
	SequencyPermutation = wht.SequencyPermutation
	ToSequency          = wht.ToSequency
	FromSequency        = wht.FromSequency
)

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
	// batch of lane vectors, forcing either the SoA tier or the
	// per-vector path — the primitive behind the tuner's batch sweep.
	TimeBatch = exec.TimeBatch
	// TimeScheduleParallel measures the median latency of a schedule
	// under a forced parallel tier and worker count — the primitive
	// behind the tuner's parallel-mode sweep.
	TimeScheduleParallel = exec.TimeScheduleParallel
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
	// balanced defaults.
	ResetTuning = tune.Reset
	// ScheduleCacheStats reports traffic counters of the process-wide
	// schedule cache behind Transform/Transform32.
	ScheduleCacheStats = exec.DefaultCacheStats
	// ScheduleForSize returns the process-wide cached schedule serving
	// WHT(2^n): the tuned plan when one is registered, the balanced
	// default otherwise.
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
