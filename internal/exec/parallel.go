package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/codelet"
)

// Parallel fan-out thresholds.  A stage fans out when it offers enough
// independent calls to split (R*S >= FanoutCalls) and enough total work to
// pay for the barrier (R*S*2^M >= FanoutElems elements touched).  The old
// tree walker could only fan out at the root node's stages; a schedule is
// flat, so every stage anywhere in the former tree is a fan-out candidate.
const (
	// FanoutCalls is the minimum number of kernel calls in a stage before
	// the parallel executor splits it across workers.
	FanoutCalls = 8
	// FanoutElems is the minimum number of vector elements a stage touches
	// before splitting is worth a barrier (~one L1's worth of butterflies).
	FanoutElems = 1 << 13
)

// RunParallel executes the schedule with the R*S independent kernel calls
// of each sufficiently large stage distributed over a worker pool.  Within
// a stage all calls touch pairwise disjoint strided vectors, so they can
// run concurrently; stages are separated by a barrier because stage i+1
// reads what stage i wrote.  Small stages run inline through the same
// runStageRange path as the sequential executor.
//
// Splitting is variant-correct: workers receive disjoint ranges of the
// flattened (j, k) space, and runStageRange executes each range with the
// stage's compiled kernel variant — full interleaved rows through the
// unrolled IL kernel, partial rows through its range form, so an
// interleaved stage with R == 1 (the large-S shape that benefits most)
// still splits across all workers.  When an interleaved stage has at
// least one row per worker, chunk boundaries are aligned to whole rows
// so every worker runs full IL kernels instead of paying the slower
// ilRange partial-row form at each chunk seam.
//
// The executor behind RunParallel is selected per schedule: the
// window-pipelined tier (pipeline.go) replaces the per-stage barriers
// with dependency-counted window scheduling when the schedule's
// registered ParallelMode — or, under AutoParallel, the crossover
// heuristic — says it pays; this function is the barrier tier both are
// measured against.
//
// workers <= 0 selects GOMAXPROCS.
func RunParallel[T Float](s *Schedule, x []T, workers int) error {
	if s == nil {
		return fmt.Errorf("exec: nil schedule")
	}
	return RunParallelMode(s, x, workers, s.ParallelMode())
}

// RunParallelMode is RunParallel with the executor tier pinned: Barrier
// runs the per-stage fan-out below, Pipelined the dependency-counted
// window scheduler, and Auto the crossover heuristic (pickParallelMode).
// All tiers compute bitwise-identical results; the choice is purely a
// performance one, which the tuner's parallel sweep measures per size.
func RunParallelMode[T Float](s *Schedule, x []T, workers int, mode ParallelMode) error {
	if s == nil {
		return fmt.Errorf("exec: nil schedule")
	}
	if len(x) != s.size {
		return fmt.Errorf("exec: vector length %d does not match schedule size %d", len(x), s.size)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if mode == AutoParallel {
		mode = pickParallelMode(s, workers)
	}
	if mode == PipelinedParallel {
		return runPipelined(nil, s, x, workers)
	}
	return runBarrier(nil, s, x, workers)
}

// runBarrier is the barrier tier's body: per stage, fan the flattened
// call range out over fresh goroutines and wait.  Every goroutine —
// and the inline small-stage path — runs its chunk inside a recover, so
// a panicking kernel surfaces as the call's *PanicError after the
// stage's pool has fully drained (wg.Wait always completes: recovery
// happens inside the worker, before wg.Done).  A non-nil ctx is polled
// between stages, per worker chunk, and at seqCancelElems granularity
// on the inline path.
func runBarrier[T Float](ctx context.Context, s *Schedule, x []T, workers int) error {
	kt := newKernelTable[T](s)
	for i := range s.stages {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		st := &s.stages[i]
		ks := kt.get(st.M, st.Backend)
		total := st.R * st.S
		// The element count is computed in 64 bits: total<<M can exceed
		// int on 32-bit hosts for large stage shapes, and a wrapped gate
		// would run a huge stage inline (or split a tiny one).
		if workers == 1 || total < FanoutCalls || int64(total)<<uint(st.M) < FanoutElems {
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
			continue
		}
		chunk := (total + workers - 1) / workers
		if st.V == codelet.Interleaved && st.R >= workers {
			// Row-align the chunks: ceil(R/workers) whole rows per worker
			// keeps every call on the unrolled IL kernel.  Stages with
			// fewer rows than workers keep the element-column split, where
			// partial rows (ilRange) are the price of using all workers.
			chunk = (st.R + workers - 1) / workers * st.S
		}
		fail := newFailure()
		var wg sync.WaitGroup
		for lo := 0; lo < total; lo += chunk {
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				if fail.failed() {
					return
				}
				if err := ctxErr(ctx); err != nil {
					fail.set(err)
					return
				}
				if err := runStageChunkRecover(st, i, ks, x, 0, lo, hi); err != nil {
					fail.set(err)
				}
			}(lo, hi)
		}
		wg.Wait()
		if err := fail.err(); err != nil {
			return err
		}
	}
	return nil
}

// RunBatchParallel transforms a batch of vectors with one schedule,
// fanning out across vectors (each worker runs whole transforms
// sequentially).  For batches this beats per-stage fan-out: there are no
// barriers and each worker streams through its own vectors.
//
// workers <= 0 selects GOMAXPROCS.
func RunBatchParallel[T Float](s *Schedule, xs [][]T, workers int) error {
	if s == nil {
		return fmt.Errorf("exec: nil schedule")
	}
	for i, x := range xs {
		if len(x) != s.size {
			return fmt.Errorf("exec: batch vector %d has length %d, want %d", i, len(x), s.size)
		}
	}
	return runBatchParallel(nil, s, xs, workers)
}

// runBatchParallel is the shared body behind RunBatchParallel and
// RunBatchParallelCtx: per-vector fan-out with an atomic work counter,
// each worker containing its own panics (runVectorCtx) and the first
// error aborting the remaining hand-outs.
func runBatchParallel[T Float](ctx context.Context, s *Schedule, xs [][]T, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.soaSelect(len(xs)) {
		// The SoA tier's per-worker lanes serve the same fan-out shape
		// (whole transforms per worker, no barriers) with each stage pass
		// amortized across the worker's lane.
		return runBatchSoAParallel(ctx, s, xs, workers)
	}
	if workers == 1 || len(xs) < 2 {
		kt := newKernelTable[T](s)
		for _, x := range xs {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := runVectorCtx(ctx, s, &kt, x); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > len(xs) {
		workers = len(xs)
	}
	var next atomic.Int64
	fail := newFailure()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kt := newKernelTable[T](s)
			for {
				if fail.failed() {
					return
				}
				if err := ctxErr(ctx); err != nil {
					fail.set(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(xs) {
					return
				}
				if err := runVectorCtx(ctx, s, &kt, xs[i]); err != nil {
					fail.set(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return fail.err()
}
