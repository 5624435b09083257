package exec

import (
	"context"
	"fmt"
	"runtime"
)

// The segmented streaming executor.
//
// RunSegmented replays a segmented schedule against a BufStore one
// segment at a time, each segment as gather windows.  A segment acting
// on the index bits [L, L+W) gathers windows of 2^W rows at stride 2^L,
// each row a contiguous run of 2^K elements (K <= L): a window holds
// 2^(W+K) elements, and the windows enumerate the remaining bits,
// [K, L) and [L+W, n).  A worker reads a window's rows into its buffer,
// runs the segment's stages there with every stride scaled by 2^K, and
// writes the rows back where they came from.  Every segment is one read
// pass and one write pass over the store's primary plane; nothing is
// transposed and the auxiliary plane is never touched.
//
// Windows are pairwise disjoint, so they stream through a bounded pool
// of workers, each owning one pooled buffer: while one worker waits on
// store I/O another is deep in butterfly compute.  Segments run in
// order, with a barrier between them.
//
// K is chosen per call from each worker's share of the resident cap:
// K = min(L, log2(ResidentElems/workers) - W), floored at 0.  With no
// cap, K = min(L, max(segMinRunLog, ResidentLog() - W)): a window holds
// up to the compiled budget's worth of rows, and rows never run shorter
// than 2^segMinRunLog elements when L allows it.

// segMinRunLog is the log2 of the shortest row run an uncapped call
// gathers when the phase's bit position allows it (128 elements, 1 KiB
// of float64 per store call).
const segMinRunLog = 7

// segPool holds the segmented executor's window buffers across calls.
var segPool scratchPool

// SegOptions tunes one RunSegmented call.  The zero value uses
// GOMAXPROCS workers and no resident cap.
type SegOptions struct {
	// Workers bounds the streaming pool (<= 0 selects GOMAXPROCS).
	Workers int

	// ResidentElems caps the executor's own buffering in elements
	// across all workers (<= 0: no cap).  Each worker's share sets the
	// row run K of every gather window; a share smaller than one phase
	// shrinks the worker pool instead, never below one worker — a
	// single 2^W window is the irreducible working set of the compiled
	// budget.
	ResidentElems int
}

// RunSegmented executes the schedule against the store, streaming
// gather windows when the schedule carries segments and falling back
// to the ordinary in-place executors for flat schedules over a
// SliceStore.  Cancellation is polled per window and per stage chunk,
// and kernel panics return as *PanicError, as on every other tier.  On
// error the store contents are unspecified but the store itself
// remains usable.
//
// The result lands in the store's primary plane (for a SliceStore, the
// caller's original slice).
func RunSegmented[T Float](ctx context.Context, s *Schedule, store BufStore[T], opt SegOptions) error {
	if s == nil {
		return fmt.Errorf("exec: nil schedule")
	}
	if store == nil {
		return fmt.Errorf("exec: nil store")
	}
	if store.Len() != s.size {
		return fmt.Errorf("exec: store length %d does not match schedule size %d", store.Len(), s.size)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if !s.IsSegmented() {
		// Flat schedule: over a SliceStore this is exactly the
		// pre-segmentation engine; over an external store the vector
		// must fit one resident buffer (the schedule was compiled
		// without a budget, so its working set is the whole vector).
		if ss, ok := store.(*SliceStore[T]); ok {
			return RunCtx(ctx, s, ss.primary, workers)
		}
		if opt.ResidentElems > 0 && opt.ResidentElems < s.size {
			return fmt.Errorf("exec: flat schedule of %d elements exceeds resident budget %d; compile a segmented schedule", s.size, opt.ResidentElems)
		}
		buf := make([]T, s.size)
		if err := store.Read(buf, 0); err != nil {
			return err
		}
		kt := newKernelTable[T](s)
		if err := runStagesCtx(ctx, s, &kt, buf); err != nil {
			return err
		}
		return store.Write(buf, 0)
	}

	// Shape every segment first, so each worker's buffer is taken once,
	// sized to the largest window that worker runs.
	gs := make([]gather, len(s.segments))
	var sizes []int
	for i := range s.segments {
		gs[i] = newGather(s, &s.segments[i], workers, opt.ResidentElems)
		for w := 0; w < gs[i].workers; w++ {
			if w == len(sizes) {
				sizes = append(sizes, 0)
			}
			sizes[w] = max(sizes[w], gs[i].elems())
		}
	}
	bufs := make([]*[]T, len(sizes))
	for w, n := range sizes {
		bufs[w] = getScratch[T](&segPool, n)
	}
	defer func() {
		for _, b := range bufs {
			putScratch(&segPool, b)
		}
	}()

	kt := newKernelTable[T](s)
	for i := range gs {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := runGather(ctx, &kt, &gs[i], store, bufs); err != nil {
			return err
		}
	}
	return nil
}

// gather is the run-time shape of one segment: phase bits [l, l+w),
// rows of 2^k contiguous elements, and the segment's stages with their
// strides scaled by 2^k for the gathered layout.
type gather struct {
	w, l, k int
	numWin  int // 2^(n-w-k): one window per setting of the other bits
	workers int
	stages  []Stage
}

// newGather shapes one segment under the pool size and resident cap
// of a call (see the file comment for the rule picking k).  Each
// stage's variant is re-selected by the schedule's policy for its
// scaled stride; its backend pin is kept.
func newGather(s *Schedule, seg *Segment, workers, resident int) gather {
	k := max(segMinRunLog, s.residentLog-seg.W)
	if resident > 0 {
		k = log2(resident/workers) - seg.W
	}
	k = max(0, min(k, seg.L))
	g := gather{w: seg.W, l: seg.L, k: k, numWin: 1 << uint(s.n-seg.W-k)}
	g.workers = min(workers, g.numWin)
	if resident > 0 {
		g.workers = min(g.workers, resident/g.elems())
	}
	g.workers = max(g.workers, 1)
	g.stages = make([]Stage, len(seg.Stages))
	for i, st := range seg.Stages {
		g.stages[i] = newStage(st.M, st.R, st.S<<uint(k), s.policy)
		g.stages[i].Backend = st.Backend
	}
	return g
}

// elems returns the elements of one window, 2^(w+k).
func (g *gather) elems() int { return 1 << uint(g.w+g.k) }

// base returns the store offset of window id's first row: the low
// l-k bits of id fill index bits [k, l), the rest fill bits from l+w.
func (g *gather) base(id int) int {
	low := uint(g.l - g.k)
	return (id&(1<<low-1))<<uint(g.k) | (id>>low)<<uint(g.l+g.w)
}

// gatherIO moves one window between buf and the store through io
// (the store's Read or Write): one call per row, or a single call when
// the rows are adjacent (k == l).
func gatherIO[T Float](g *gather, buf []T, base int, io func([]T, int) error) error {
	if g.k == g.l {
		return io(buf, base)
	}
	run, stride := 1<<uint(g.k), 1<<uint(g.l)
	for r, off := 0, base; r < len(buf); r, off = r+run, off+stride {
		if err := io(buf[r:r+run], off); err != nil {
			return err
		}
	}
	return nil
}

// runGather streams the windows of one segment through the worker
// pool: worker w gathers into bufs[w], transforms resident, and
// scatters back.
func runGather[T Float](ctx context.Context, kt *kernelTable[T], g *gather, store BufStore[T], bufs []*[]T) error {
	// Resolve every stage's set before the pool starts, so workers
	// index a slice instead of resolving backends per window.
	sets := make([]*kernelSet[T], len(g.stages))
	for i := range g.stages {
		sets[i] = kt.get(g.stages[i].M, g.stages[i].Backend)
	}

	return fanOut(ctx, g.workers, g.numWin, func(w, id int) error {
		buf := (*bufs[w])[:g.elems()]
		base := g.base(id)
		if err := gatherIO(g, buf, base, store.Read); err != nil {
			return err
		}
		if err := runSegWindow(ctx, g.stages, sets, buf); err != nil {
			return err
		}
		return gatherIO(g, buf, base, store.Write)
	})
}

// runSegWindow runs a stage list on one resident window, with
// per-chunk cancellation and panic containment (the same contained
// chunk the sequential tier uses, so the ExecChunk fault point and
// *PanicError attribution apply here too).
func runSegWindow[T Float](ctx context.Context, stages []Stage, sets []*kernelSet[T], x []T) error {
	for i := range stages {
		st := &stages[i]
		total := st.R * st.S
		chunk := total
		if ctx != nil {
			chunk = cancelChunkCalls(st)
		}
		for lo := 0; lo < total; lo += chunk {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			hi := min(lo+chunk, total)
			if err := runStageChunkRecover(st, i, sets[i], x, 0, lo, hi); err != nil {
				return err
			}
		}
	}
	return nil
}
