package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/codelet"
	"repro/internal/faultinject"
)

// The window-pipelined parallel tier.
//
// The per-stage barriers of the barrier executor (runBarrier) treat every
// stage boundary as a global synchronization point, but the stage algebra
// says it is not: stage i partitions the vector into N/Blk_i aligned
// blocks of Blk_i = S_i*2^M_i elements and every kernel call of the stage
// reads and writes inside exactly one block.  Group consecutive blocks
// into power-of-two windows and a window of stage i+1 depends only on the
// stage-i windows covering the same element range — a computable, small
// dependency set, the view Serre & Püschel make explicit by treating
// every WHT algorithm as a sequence of butterfly arrays.
//
// Flattening guarantees the window algebra stays nested: the stage
// sequence of any plan has nondecreasing Blk.  (Induction over the tree:
// a leaf in context (r, s) emits one stage with Blk = s*2^m; a split
// node's children are flattened right to left, the child at local
// position (rLoc, sLoc) in context (r*rLoc, sLoc*s), so each child's
// stages end at Blk = s*(product of its and all later siblings' sizes) —
// exactly where the next child's stages begin.)  Window sizes chosen as
// max(Blk_i, PipelineWindowMin), clamped to N, are therefore
// nondecreasing powers of two: every stage-(i+1) window covers a whole
// number of stage-i windows and each stage-i window has exactly one
// parent.  Adjacent-stage dependencies suffice transitively.
//
// Execution replaces the barrier with dependency counting: one bounded
// pool of workers (spawned once per call, not per stage — the barrier
// path's goroutine churn) drains a queue of (stage, window, chunk) work
// items.  Each window carries an atomic count of outstanding chunks and
// each stage-(i+1) window an atomic count of incomplete child windows;
// the worker that completes a window's last chunk decrements the parent's
// dependency count and, on zero, enqueues the parent's chunks.  Workers
// flow into ready downstream windows instead of idling at a WaitGroup.
// The happens-before chain (vector writes -> atomic decrements -> channel
// send -> channel receive) makes the in-place writes of a child window
// visible to whichever worker picks up the parent, so the tier is exact
// under the race detector.
//
// Splitting stays variant-correct, as in the barrier tier: windows are
// whole numbers of Blk rows, multi-row chunks of interleaved stages are
// row-aligned.  Partial rows of fused interleaved stages run the fused
// range kernel (codelet.GenericILFusedRange, ceil(m/2) radix-4 passes)
// where the barrier tier pays the single-level range form's m passes.

// ParallelMode selects the executor tier behind RunParallel.  All tiers
// compute bitwise-identical results; the choice is purely a performance
// one, measured per size by the tuner's parallel sweep and round-tripped
// through wisdom files as the "parallel_mode" entry field.
type ParallelMode uint8

const (
	// AutoParallel applies the crossover heuristic: pipelined for
	// multi-stage schedules at out-of-cache sizes, barrier otherwise.
	AutoParallel ParallelMode = iota
	// BarrierParallel pins the per-stage fan-out with WaitGroup barriers.
	BarrierParallel
	// PipelinedParallel pins the dependency-counted window scheduler.
	PipelinedParallel
)

// String returns the wisdom-file spelling of the mode.
func (m ParallelMode) String() string {
	switch m {
	case BarrierParallel:
		return "barrier"
	case PipelinedParallel:
		return "pipelined"
	}
	return "auto"
}

// ParseParallelMode maps a wisdom-file spelling back to a mode; the
// empty string is AutoParallel (the absent-field default).
func ParseParallelMode(s string) (ParallelMode, bool) {
	switch s {
	case "", "auto":
		return AutoParallel, true
	case "barrier":
		return BarrierParallel, true
	case "pipelined":
		return PipelinedParallel, true
	}
	return AutoParallel, false
}

// ParallelMode returns the executor tier RunParallel uses for this
// schedule (AutoParallel unless a tuned mode was registered).
func (s *Schedule) ParallelMode() ParallelMode { return s.parMode }

// SetParallelMode sets the parallel executor tier (see ParallelMode).
// Schedules are otherwise immutable and shared without synchronization,
// so the mode must be set before the schedule is published to other
// goroutines — the tuner sets it between compiling and warming the
// cache.
func (s *Schedule) SetParallelMode(m ParallelMode) { s.parMode = m }

const (
	// PipelineMinElems is the smallest transform size at which the auto
	// heuristic picks the pipelined tier: below it whole stages fit in
	// mid-level cache, per-stage runs are tens of microseconds, and the
	// barrier tier's simpler control is at parity — the measured
	// pipelined advantage starts where the paper's out-of-cache regime
	// does.  The tuner's parallel sweep overrides the heuristic per size.
	PipelineMinElems = 1 << 16

	// PipelineWindowMin is the minimum window grain in elements: stages
	// with tiny Blk would otherwise shatter into thousands of windows
	// whose counter traffic outweighs the barrier they replace.
	PipelineWindowMin = 1 << 12

	// pipeMinChunkElems floors the element count of one work item so the
	// queue never degenerates into per-call message passing.
	pipeMinChunkElems = 1 << 11

	// pipeChunksPerWorker targets this many chunks per worker per stage —
	// enough slack for dynamic load balance without flooding the queue.
	pipeChunksPerWorker = 2
)

// pickParallelMode is the AutoParallel crossover heuristic; see
// PipelineMinElems.  machine.ParallelCost carries the model-side terms
// of the same decision.
func pickParallelMode(s *Schedule, workers int) ParallelMode {
	if workers < 2 || len(s.stages) < 2 || s.size < PipelineMinElems {
		return BarrierParallel
	}
	return PipelinedParallel
}

// pipeStage is the per-stage window/chunk geometry of one pipelined run.
// Windows of a stage are uniform (the window size divides N), so the
// whole structure is a handful of integers per stage.
type pipeStage struct {
	lgWin        int  // log2 window size in elements
	numWin       int  // N >> lgWin
	winCalls     int  // kernel calls per window (window elements >> M)
	chunkCalls   int  // calls per work item (last chunk of a window may be short)
	chunksPerWin int  // ceil(winCalls / chunkCalls)
	firstWin     int  // index of this stage's first window in the global counter arrays
	firstChunk   int  // global id of this stage's first chunk
	depShift     uint // lgWin - previous stage's lgWin (child windows per parent = 1<<depShift); stages[0] has none
}

// pipePlan is the derived window/dependency structure of one schedule at
// one worker count.
type pipePlan struct {
	stages      []pipeStage
	totalWins   int
	totalChunks int
}

// PipeShape reports the window and chunk counts the pipelined tier
// would schedule for this schedule at the given worker count — the
// inputs machine.ParallelCost prices the tier with.  ok is false when
// the schedule cannot pipeline (fewer than two stages or workers) and
// RunParallel would fall back to the barrier tier.
func PipeShape(s *Schedule, workers int) (windows, chunks int, ok bool) {
	pp := buildPipePlan(s, workers)
	if pp == nil {
		return 0, 0, false
	}
	return pp.totalWins, pp.totalChunks, true
}

// buildPipePlan derives the window plan, or returns nil when the
// schedule has no cross-stage structure to pipeline (fewer than two
// stages) and the caller should fall back to the barrier tier.
func buildPipePlan(s *Schedule, workers int) *pipePlan {
	if len(s.stages) < 2 || workers < 2 {
		return nil
	}
	pp := &pipePlan{stages: make([]pipeStage, len(s.stages))}
	lgWinMin := log2(PipelineWindowMin)
	if lgWinMin > s.n {
		lgWinMin = s.n
	}
	prev := 0
	for i := range s.stages {
		st := &s.stages[i]
		lg := st.SLog + st.M // log2(Blk)
		if lg < lgWinMin {
			lg = lgWinMin
		}
		if lg < prev {
			lg = prev // defensive; flatten guarantees nondecreasing Blk
		}
		if lg > s.n {
			lg = s.n
		}
		ps := &pp.stages[i]
		ps.lgWin = lg
		ps.numWin = 1 << uint(s.n-lg)
		total := st.R * st.S
		ps.winCalls = total / ps.numWin
		chunk := total / (workers * pipeChunksPerWorker)
		// pipeMinChunkElems >> M is at least 8 calls: leaves are bounded
		// by plan.MaxLeafLog.
		if minC := pipeMinChunkElems >> uint(st.M); chunk < minC {
			chunk = minC
		}
		if st.V == codelet.Interleaved && chunk > st.S {
			// Row-align multi-row chunks so every full row runs the
			// unrolled/fused whole-row kernel; sub-row chunks (chunk < S)
			// are the column splits the range kernels exist for.
			chunk = chunk / st.S * st.S
		}
		if chunk > ps.winCalls {
			chunk = ps.winCalls
		}
		ps.chunkCalls = chunk
		ps.chunksPerWin = (ps.winCalls + chunk - 1) / chunk
		ps.firstWin = pp.totalWins
		ps.firstChunk = pp.totalChunks
		if i > 0 {
			ps.depShift = uint(lg - pp.stages[i-1].lgWin)
		}
		prev = lg
		pp.totalWins += ps.numWin
		pp.totalChunks += ps.numWin * ps.chunksPerWin
	}
	return pp
}

// stageOf maps a global chunk id to its stage index.
func (pp *pipePlan) stageOf(id int) int {
	si := len(pp.stages) - 1
	for si > 0 && id < pp.stages[si].firstChunk {
		si--
	}
	return si
}

// runPipeChunk executes the flattened call slice [lo, hi) of one stage
// on the unit-stride vector x — runStageRange, except that partial rows
// of fused interleaved stages run the fused range kernel (bitwise-equal
// to the single-level form, ceil(m/2) passes instead of m).
func runPipeChunk[T Float](st *Stage, ks *kernelSet[T], x []T, lo, hi int) {
	if st.V == codelet.Interleaved && st.Fused {
		for idx := lo; idx < hi; {
			j := idx >> uint(st.SLog)
			k := idx & (st.S - 1)
			end := idx + st.S - k
			if end > hi {
				end = hi
			}
			rowBase := j * st.Blk
			if k == 0 && end-idx == st.S {
				ks.ilFused(x, rowBase, st.S)
			} else {
				ks.ilFusedRange(x, rowBase, st.S, k, k+(end-idx))
			}
			idx = end
		}
		return
	}
	runStageRange(st, ks, x, 0, lo, hi)
}

// runPipeChunkRecover is runPipeChunk with panic containment: a panic
// in the chunk — kernel, dispatch, or an armed fault hook — returns as
// a *PanicError attributed to (stage, window).
func runPipeChunkRecover[T Float](st *Stage, stage, win int, ks *kernelSet[T], x []T, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(stage, win, r)
		}
	}()
	faultinject.Fire(faultinject.ExecChunk)
	runPipeChunk(st, ks, x, lo, hi)
	return nil
}

// runPipelined executes the schedule through the window-pipelined tier;
// see the package comment at the top of this file.  Falls back to the
// barrier tier when the schedule has nothing to pipeline.
//
// Failure handling must not deadlock the pool: on the first error (a
// recovered chunk panic or a cancelled ctx) the failure's done channel
// closes and every worker's select exits without draining or closing
// the queue.  That is safe precisely because the queue is buffered to
// hold every chunk of the run — no sender ever blocks, so abandoning
// the queue strands no goroutine, and the garbage collector reclaims
// it.  close(queue) happens only on the clean remaining==0 path.
// Dependency bookkeeping after a failed chunk is skipped; downstream
// windows simply never become ready, which is moot once the pool is
// aborting.
func runPipelined[T Float](ctx context.Context, s *Schedule, x []T, workers int) error {
	pp := buildPipePlan(s, workers)
	if pp == nil {
		return runBarrier(ctx, s, x, workers)
	}
	if workers > pp.totalChunks {
		workers = pp.totalChunks
	}

	// Kernel sets are resolved once, before the pool starts, so the
	// workers index a slice instead of resolving backends per chunk.
	kt := newKernelTable[T](s)
	sets := make([]*kernelSet[T], len(s.stages))
	for i := range s.stages {
		sets[i] = kt.get(s.stages[i].M, s.stages[i].Backend)
	}

	deps := make([]atomic.Int32, pp.totalWins)
	left := make([]atomic.Int32, pp.totalWins)
	for si := range pp.stages {
		ps := &pp.stages[si]
		for w := 0; w < ps.numWin; w++ {
			left[ps.firstWin+w].Store(int32(ps.chunksPerWin))
			if si > 0 {
				deps[ps.firstWin+w].Store(int32(1) << ps.depShift)
			}
		}
	}

	// The queue holds every work item of the run, so sends never block:
	// a worker finishing a chunk can always publish the windows it
	// readied and move on.
	queue := make(chan int32, pp.totalChunks)
	var remaining atomic.Int32
	remaining.Store(int32(pp.totalChunks))
	first := &pp.stages[0]
	for c := 0; c < first.numWin*first.chunksPerWin; c++ {
		queue <- int32(c)
	}

	fail := newFailure()
	work := func() {
		for {
			select {
			case <-fail.done:
				return
			case id, ok := <-queue:
				if !ok {
					return
				}
				if fail.failed() {
					return
				}
				if err := ctxErr(ctx); err != nil {
					fail.set(err)
					return
				}
				si := pp.stageOf(int(id))
				ps := &pp.stages[si]
				rel := int(id) - ps.firstChunk
				win := rel / ps.chunksPerWin
				winFirst := win * ps.winCalls
				lo := winFirst + (rel%ps.chunksPerWin)*ps.chunkCalls
				hi := lo + ps.chunkCalls
				if end := winFirst + ps.winCalls; hi > end {
					hi = end
				}
				if err := runPipeChunkRecover(&s.stages[si], si, win, sets[si], x, lo, hi); err != nil {
					fail.set(err)
					return
				}

				if left[ps.firstWin+win].Add(-1) == 0 && si+1 < len(pp.stages) {
					// Window complete: the parent window in the next stage
					// loses one outstanding child; its chunks become ready
					// when the last child completes.
					ns := &pp.stages[si+1]
					parent := win >> ns.depShift
					if deps[ns.firstWin+parent].Add(-1) == 0 {
						base := int32(ns.firstChunk + parent*ns.chunksPerWin)
						for c := int32(0); c < int32(ns.chunksPerWin); c++ {
							queue <- base + c
						}
					}
				}
				if remaining.Add(-1) == 0 {
					close(queue)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is a worker too
	wg.Wait()
	return fail.err()
}
