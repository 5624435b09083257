// Package repro is the root of the WHT performance-analysis reproduction
// (Andrews & Johnson, "Performance Analysis of a Family of WHT
// Algorithms", IPPS 2007).  The public API lives in package repro/wht;
// plans are evaluated by the compiled execution engine of
// repro/internal/exec, which flattens each split tree once into a linear
// schedule of butterfly stages — each stage specialized at compile time
// to a shape-matched kernel variant (strided, contiguous, or interleaved;
// see internal/codelet.Variant) — and replays it for single vectors,
// strided views, batches, and parallel runs.  Every leaf is an unrolled
// codelet of at most 2^8 points (wht.MaxLeafLog), so every stage is one
// butterfly array of that size — the space of stage sequences Serre &
// Püschel characterize.  A batch (wht.RunBatch) runs vector by vector,
// its workers taking whole vectors.  Multi-worker runs (wht.RunCtx with
// workers > 1) have one tier: a barrier pool that splits each stage
// across workers and joins between consecutive stages.  It fans
// out only from exec.ParallelMinElems (2^17 elements, two cache
// blocks), the measured size where it stops losing to the sequential
// executor; smaller transforms run inline.  Both executors are cache
// blocked above 2^16 elements (a block of 512 KiB of float64, the L2 of
// the host it was measured on): the leading stages whose rows fit a
// block run block by block — the parallel tier hands whole blocks to
// workers with no barrier — and vector-bank interleaved rows wider
// than a block stream in column panels of about 32 KB, which together
// halve the time of the default n = 22 schedule at 2 workers.  Orthogonal
// to all of it runs the backend axis: every kernel form ships as pure-Go
// scalar code plus, on amd64 (AVX2) and arm64 (NEON), hand-written vector
// assembly for the streaming passes, wide strided
// stages (full j-rows streamed as chunked fused passes, no gathers), and
// large contiguous codelets — bitwise-identical to scalar by construction,
// since vectorizing a unit-stride sweep reorders no element's add/sub
// chain.  The scalar tier unrolls (cmd/whtgen) only the forms that beat
// their loop — the strided kernel (every leaf size; 2^8 awaits a
// re-measure) and the contiguous one up to 2^7 — and runs every other
// shape through a Generic* loop
// written once for both element types.  Results are bitwise identical
// across all tiers — generated codelets, loops, vector kernels, the
// batch path and the segmented executor — on every input, ±Inf and NaN
// included, except for the payload bits of NaN outputs: which NaN comes
// out may differ between a generated codelet and a loop.  The backend is pinned per compiled stage
// (exec.Schedule.SetStageBackends): a mixed schedule runs scalar
// kernels on shapes that do not vectorize next to SIMD kernels on
// shapes that do, and the cost model prices each stage's pin
// shape-aware (machine.SIMDVectorizes/SIMDStageOpsShaped).  The
// untuned default plan of each size (exec.ForSize) is the stage
// sequence an exact DP over the prefix bit offset (plan.BestStages)
// prices cheapest over a checked-in stage-cost table, one row per
// measured backend (exec.DefaultPlan; Balanced where no row exists);
// on non-integer inputs its results differ from other plans' at the
// rounding level.  The measured-cost autotuner (wht.Tune,
// cmd/whttune) runs the same DP over live stage timings, then times
// the cheapest sequences whole — the fused-interleaved policy and the
// per-stage backend vector
// (model-prefiltered by machine.DecisiveBackendPreference, contested
// stages settled by greedy measured flips) included — serves the winner from the
// process-wide schedule cache, and persists it across restarts as a
// fingerprinted wisdom file (wht.SaveWisdom/LoadWisdom), including the
// kernel-variant policy and stage backends the winner was measured
// under —
// the paper's conclusion that search must be driven by measurements,
// closed end to end.  Its timing loop reinitializes its
// scratch between chunks, so arbitrarily long measurements of the
// unnormalized (data-doubling) transform stay finite.
//
// For serving, the executor has one contained entry point per data
// shape, wht.RunCtx for a vector and wht.RunBatch for a batch, each
// taking a context and a worker count: ctx is polled between bounded
// chunks of kernel calls — per worker chunk on the parallel tier,
// per vector in a batch — so cancellation takes effect within one
// chunk and returns ctx.Err(); a nil ctx skips the polling.  Both
// contain kernel panics, nil ctx included: every
// worker-pool goroutine recovers, the first failure aborts the run and
// comes back as a *exec.PanicError (matching wht.ErrKernelPanic) with
// stage attribution, and the pools stay reusable.  Damaged
// wisdom files fail typed too — wht.ErrCorruptWisdom matches truncated,
// scrambled, trailing-garbage, and structurally invalid files, while
// intact files from other machines or format versions return ordinary
// errors — and LoadWisdom is all-or-nothing: a file with any
// unregistrable entry registers nothing.  On top of these sit
// repro/internal/serve and cmd/whtserved, the batch-serving daemon:
// length-prefixed request/response frames over TCP or unix sockets,
// same-size coalescing into batches by group commit (a batch takes
// what is queued when it starts, up to the lane width, so lanes widen
// with load), bounded queues that reject with a retry-after hint of
// the last batch time, per-request deadlines, a per-size degradation ladder for
// repeated contained faults, quarantine-and-continue boot for corrupt
// wisdom, and a closed-loop load generator (whtserved -loadgen /
// -selfserve, plus an open-loop mode that holds a fixed offered rate
// past saturation) reporting p50/p99 latency vs offered load; a
// degraded size class earns its way back up the ladder through
// periodic canary batches (server-owned vectors through the next tier
// up — client traffic never rides an unproven tier), and the daemon
// exports its counters in Prometheus text format (stdlib only) via
// -metrics.  The fault-injection harness driving the robustness suite
// is repro/internal/faultinject.
//
// Transforms larger than RAM run out of core over the same stage
// algebra.  A plan whose vector exceeds the resident budget is
// rewritten into the two-phase form (repro/internal/plan.TwoPhase):
// WHT(2^(a+b)) = (WHT(2^a) ⊗ I_{2^b}) · (I_{2^a} ⊗ WHT(2^b)), i.e.
// the lo phase acting on the low b index bits and the hi phase on the
// a bits above them — recursing into a phase whose own vector still
// exceeds the budget.  exec.NewSegmentedSchedule compiles that form
// into a segmented Schedule: one stage-run segment per phase, each a
// run of butterfly stages acting on an index-bit range [L, L+W).  The
// executor runs every segment as gather windows — 2^W rows at stride
// 2^L, each a contiguous run of 2^K elements, transformed in a pooled
// per-worker buffer and written back in place — so each phase is one
// read and one write pass over the store, with no transposes.  A
// fully-local form compiles to exactly the flat stage list, so in-RAM
// behavior is unchanged, and segmented execution is bitwise-equal to
// flat by the regrouping lemma (property-tested across the policy ×
// backend × width × worker grid and every row-run shape).  Storage is
// behind the exec.BufStore interface: exec.SliceStore adapts an
// in-RAM slice, and repro/internal/shard provides a striped
// mmap-backed store with crash-safe open semantics — per-stripe
// checksums over both planes, an open/sealed manifest written
// atomically, and typed
// *shard.CorruptError rejection of partial or damaged stores.  The
// facade entry points are wht.TransformLarge/TransformLarge32 (form
// and budget resolved from options, wisdom, or the two-phase form of
// the balanced plan),
// the tuner sweeps split point and resident budget
// (wht.TuneSegmented), wisdom persists the winning segment geometry,
// and cmd/whtshard drives the end-to-end out-of-core benchmark
// (BENCH_oocore).  The root package exists to host the paper-figure
// and engine benchmark harness (bench_test.go).  See README.md for
// the quickstart and package map.
package repro
