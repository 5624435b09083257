package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/codelet"
)

// ParallelMinElems is the transform size, in elements, from which
// RunCtx fans stages out over its workers; smaller transforms run
// on the caller's goroutine through the sequential executor.  Every
// stage of a flat schedule touches all N elements (R*2^M*S = N), so one
// whole-schedule test replaces a per-stage gate.  The value is the
// measured crossover of the barrier fan-out against the sequential
// executor at 2 workers on a 2-vCPU AVX2 host (TimeSchedule against
// the fan-out on ForSize(n), alternating pairs, n = 14..22).  It is two
// cache blocks: from there the blocked prefix hands each worker whole
// blocks with no barrier between stages.  Fanning out cost 3.2-8.9x at
// n = 14..16, where the schedule fits one block and every stage pays a
// barrier, won 11 of 12 pairs at n = 17 (median 0.80x), and won every
// pair from n = 18 up (0.60-0.89x at 18, 0.42-0.65x at 19..22).  Worker
// counts above 2 and other ISAs were not measured.
const ParallelMinElems = 1 << 17

// ParallelMode names an executor tier for RunParallelMode.  There is one
// parallel tier, so both modes run RunCtx; the names remain for callers
// that pin a tier explicitly (the benchmark's vector-large spans).
type ParallelMode uint8

const (
	// BarrierParallel is the per-stage barrier fan-out.
	BarrierParallel ParallelMode = iota
	// PipelinedParallel is a compatibility name for BarrierParallel.
	PipelinedParallel
)

// RunParallelMode is RunCtx with a nil ctx; the mode is ignored (see
// ParallelMode).
func RunParallelMode[T Float](s *Schedule, x []T, workers int, _ ParallelMode) error {
	return RunCtx(nil, s, x, workers)
}

// runParallel is RunCtx's body once the arguments are validated: the
// crossover test, then either the contained sequential executor or the
// barrier fan-out.
func runParallel[T Float](ctx context.Context, s *Schedule, x []T, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || s.size < ParallelMinElems {
		kt := newKernelTable[T](s)
		return runStagesCtx(ctx, s, &kt, x)
	}
	return runBarrier(ctx, s, x, workers)
}

// runBarrier is the barrier tier's body.  The blocked prefix runs
// first, with no barrier: workers take cache blocks through fanOut and
// run every prefix stage on each (blocks are disjoint, and within one
// the stages run in order).  Then, per remaining stage, it fans the
// flattened call range out over fresh goroutines and waits: within a
// stage all calls touch pairwise disjoint strided vectors, and stage
// i+1 reads what stage i wrote.
//
// Splitting is variant-correct: workers receive disjoint ranges of the
// flattened (j, k) space, and runStageRange executes each range with the
// stage's compiled kernel variant — full interleaved rows through the
// unrolled IL kernel, partial rows through its range form, so an
// interleaved stage with R == 1 still splits across all workers.  When
// an interleaved stage has at least one row per worker, chunk
// boundaries are aligned to whole rows so every worker runs full IL
// kernels.
//
// Every goroutine runs its chunks inside a recover, so a panicking
// kernel surfaces as the call's *PanicError after the pool has fully
// drained (wg.Wait always completes: recovery happens inside the
// worker, before wg.Done).  A non-nil ctx is polled per block, between
// stages and per worker chunk.
func runBarrier[T Float](ctx context.Context, s *Schedule, x []T, workers int) error {
	kt := newKernelTable[T](s)
	p := blockedPrefix(s)
	if p > 0 {
		err := fanOut(ctx, workers, s.size>>cacheBlockLog, func(_, b int) error {
			return runBlockCtx(s, &kt, x, p, b)
		})
		if err != nil {
			return err
		}
	}
	for i := p; i < len(s.stages); i++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		st := &s.stages[i]
		ks := kt.get(st.M, st.Backend)
		total := st.R * st.S
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

// runBatchParallel is RunBatch's body once the arguments are
// validated: the SoA lanes when soaSelect picks them, otherwise a
// per-vector fanOut, each vector containing its own panics
// (runVectorCtx) and the first error aborting the remaining hand-outs.
// Fanning out across whole vectors needs no barriers: each worker
// streams through its own transforms.
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
	kt := newKernelTable[T](s)
	return fanOut(ctx, workers, len(xs), func(_, i int) error {
		return runVectorCtx(ctx, s, &kt, xs[i])
	})
}

// fanOut runs work(w, i) for every i in [0, n) on min(workers, n)
// workers, the caller's goroutine among them, which take indices from
// an atomic counter; w < workers names the worker, for per-worker
// buffers.  ctx is polled before each item, and the first error stops
// the hand-outs and is returned once every worker has exited.  work
// contains its own panics.
func fanOut(ctx context.Context, workers, n int, work func(w, i int) error) error {
	var next atomic.Int64
	fail := newFailure()
	run := func(w int) {
		for !fail.failed() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctxErr(ctx); err != nil {
				fail.set(err)
				return
			}
			if err := work(w, i); err != nil {
				fail.set(err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	return fail.err()
}
