package exec

import (
	"context"
	"fmt"

	"repro/internal/codelet"
	"repro/internal/faultinject"
)

// Context-aware execution.
//
// The serving path (internal/serve) needs two properties the raw
// executors were never asked for: a request must be cancellable without
// abandoning the goroutine that runs it, and a poisoned request must
// not take the worker pool or the process with it.  Both are threaded
// through here as one mechanism: RunCtx and RunBatch poll ctx at
// work-chunk granularity, and every execution chunk — on every tier —
// runs inside a recover that converts a kernel panic to
// a *PanicError with stage attribution (see errors.go).
//
// Cancellation granularity is one chunk of work per tier: the
// sequential tier checks between chunks of at most seqCancelElems
// elements (one interleaved row when rows are larger), the barrier tier
// between stages and per worker chunk, and the SoA tier between
// sub-lanes, stage passes, and j-rows.  Above one cache block both the
// sequential and the barrier tier run the blocked prefix (see
// blockedPrefix) with one check per block: 2^cacheBlockLog elements
// through every prefix stage, each worker finishing the block it is
// in.  A single kernel call is never interrupted, so a cancelled call
// returns after at most one chunk of residual work.  On a nil ctx the
// polls compile to a pointer test and the chunking degenerates to one
// chunk per stage (per block and stage in the prefix), so a nil-ctx
// call runs the same kernel calls in the same order as Run.
//
// On any error return the vector contents are unspecified (some stages
// may have run), but schedules, caches, and pools all remain valid:
// re-running the same schedule on fresh data must succeed — the
// property the fault-injection suite pins.

// seqCancelElems bounds the number of vector elements one cancellation
// check covers on the sequential tier (RunCtx's path with one worker
// or below ParallelMinElems) outside the blocked prefix.  2^14
// elements is a few microseconds of butterfly work — far below any
// plausible request deadline — while the check itself (one atomic load
// inside ctx.Err) stays amortized over thousands of kernel calls.  In
// the blocked prefix one check covers a whole cache block through every
// prefix stage: 2^cacheBlockLog elements times at most cacheBlockLog
// stages, under a millisecond of work.
const seqCancelElems = 1 << 14

// ctxErr polls a nilable context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelChunkCalls returns the flattened-call chunk one cancellation
// check covers for the stage: seqCancelElems worth of kernel calls,
// row-aligned for interleaved stages (splitting below one row would
// trade the unrolled whole-row kernel for the slower range form on
// every chunk seam; a row that is itself larger than the bound becomes
// the chunk).
func cancelChunkCalls(st *Stage) int {
	chunk := seqCancelElems >> uint(st.M)
	if chunk < 1 {
		chunk = 1
	}
	if st.V == codelet.Interleaved {
		if chunk < st.S {
			chunk = st.S
		} else {
			chunk = chunk / st.S * st.S
		}
	}
	return chunk
}

// runStageChunkRecover executes calls [lo, hi) of stage i with panic
// containment: a panic anywhere below — kernel, dispatch, or an armed
// fault-injection hook — returns as a *PanicError attributed to the
// stage.  It is the single contained execution chunk of the sequential
// and barrier tiers.
func runStageChunkRecover[T Float](st *Stage, stage int, ks *kernelSet[T], x []T, base, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(stage, r)
		}
	}()
	faultinject.Fire(faultinject.ExecChunk)
	runStageRange(st, ks, x, base, lo, hi)
	return nil
}

// runStagesCtx is the sequential contained executor behind RunCtx and
// the batch executors' per-vector path: the blocked prefix block by
// block with cancellation checked per block, then the remaining stages
// in schedule order with cancellation checked every cancel chunk;
// panics are recovered per chunk.
func runStagesCtx[T Float](ctx context.Context, s *Schedule, kt *kernelTable[T], x []T) error {
	p := blockedPrefix(s)
	for b := 0; p > 0 && b < s.size>>cacheBlockLog; b++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := runBlockCtx(s, kt, x, p, b); err != nil {
			return err
		}
	}
	for i := p; i < len(s.stages); i++ {
		st := &s.stages[i]
		ks := kt.get(st.M, st.Backend)
		total := st.R * st.S
		chunk := total
		if ctx != nil {
			chunk = cancelChunkCalls(st)
		}
		for lo := 0; lo < total; lo += chunk {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			if err := runStageChunkRecover(st, i, ks, x, 0, lo, hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// runVectorCtx transforms one unit-stride vector through the contained
// sequential executor, firing the batch-vector fault point inside the
// containment.
func runVectorCtx[T Float](ctx context.Context, s *Schedule, kt *kernelTable[T], x []T) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(-1, r)
		}
	}()
	faultinject.Fire(faultinject.ExecBatchVector)
	return runStagesCtx(ctx, s, kt, x)
}

// RunCtx executes the schedule in place on x with cancellation and
// fault containment: it polls ctx between work chunks (returning
// ctx.Err() within one chunk of a cancellation) and converts a kernel
// panic to a *PanicError instead of unwinding into the caller.  A nil
// ctx disables the polling but keeps the containment.
//
// workers <= 0 selects GOMAXPROCS.  With one worker, or below
// ParallelMinElems, the schedule runs on the caller's goroutine;
// otherwise its stages fan out over the barrier pool (see
// ParallelMinElems and runBarrier), every worker recovering its own
// panics so a poisoned run returns with the pool drained.  On error
// the contents of x are unspecified; x, the schedule, and all caches
// remain reusable.
func RunCtx[T Float](ctx context.Context, s *Schedule, x []T, workers int) error {
	if s == nil {
		return fmt.Errorf("exec: nil schedule")
	}
	if len(x) != s.size {
		return fmt.Errorf("exec: vector length %d does not match schedule size %d", len(x), s.size)
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return runParallel(ctx, s, x, workers)
}

// RunBatch executes one schedule over many vectors in place, with the
// cancellation and containment of RunCtx — the serving shape, where
// one default-size transform handles a stream of requests.  Every
// vector must have the schedule's length; the batch is validated up
// front so either all vectors are transformed or none are (barring a
// cancellation or a panic, after which some vectors may be transformed
// and others not, or half).
//
// When the batch width and the schedule's shape favor it (see
// Schedule.SoAMinBatch and the tuner's batch sweep), the batch runs
// through the SoA tier — one pass per stage across a whole lane of
// vectors instead of per vector — computing bitwise the same results.
// Otherwise each vector is one work item.  workers <= 0 selects
// GOMAXPROCS; with one worker the batch runs on the caller's
// goroutine, otherwise the workers take whole vectors (or contiguous
// SoA lanes), with no barriers.
func RunBatch[T Float](ctx context.Context, s *Schedule, xs [][]T, workers int) error {
	if s == nil {
		return fmt.Errorf("exec: nil schedule")
	}
	for i, x := range xs {
		if len(x) != s.size {
			return fmt.Errorf("exec: batch vector %d has length %d, want %d", i, len(x), s.size)
		}
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return runBatchParallel(ctx, s, xs, workers)
}
