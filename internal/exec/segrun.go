package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The segmented streaming executor.
//
// RunSegmented replays a segmented schedule against a BufStore.  Within
// one segment every work unit — a 2^W butterfly window of a stage run,
// a SegTransposeTile-square tile of a transpose — touches a disjoint
// element range, so units stream through a bounded pool of workers:
// this is the PR 6 window-dependency structure lifted one level, with
// the degenerate dependency graph the segment barrier induces (every
// unit of segment i+1 depends on all of segment i, because a transpose
// is all-to-all across its window).  Each copy-path worker owns one
// resident buffer, so while one worker waits on store I/O another is
// deep in butterfly compute — the transpose-I/O/compute overlap an
// out-of-core run lives on — and the total resident footprint is
// bounded by workers * max(window, 2 tiles), clamped under
// SegOptions.ResidentElems.
//
// Stores that expose their planes directly (SliceStore) skip the
// resident buffers entirely: windows run in place and tiles copy
// plane-to-plane.

// SegOptions tunes one RunSegmented call.  The zero value uses
// GOMAXPROCS workers and an uncapped resident pool (one window or two
// tiles per worker).
type SegOptions struct {
	// Workers bounds the streaming pool (<= 0 selects GOMAXPROCS).
	Workers int

	// ResidentElems caps the executor's own buffering in elements
	// across all workers (<= 0: no cap).  The cap is enforced by
	// shrinking the worker pool, never below one worker — a single
	// window (or tile pair) is the irreducible working set of the
	// compiled budget.
	ResidentElems int
}

// RunSegmented executes the schedule against the store, streaming
// segments when the schedule carries them and falling back to the
// ordinary in-place executors for flat schedules over RAM-backed
// stores.  Cancellation is polled per window/tile and kernel panics
// return as *PanicError, as on every other tier.  On error the store
// contents are unspecified but the store itself remains usable.
//
// The transform result lands in the store's primary plane (for a
// SliceStore, the caller's original slice): segments flip planes an
// even number of times.
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
		// Flat schedule: over a RAM-backed store this is exactly the
		// pre-segmentation engine; over an external store the vector
		// must fit one resident buffer (the schedule was compiled
		// without a budget, so its working set is the whole vector).
		if direct, ok := store.(sliceBacked[T]); ok {
			x, _ := direct.Planes()
			if workers > 1 {
				return RunParallelCtx(ctx, s, x, workers)
			}
			kt := newKernelTable[T](s)
			return runStagesCtx(ctx, s, &kt, x)
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
	kt := newKernelTable[T](s)
	for i := range s.segments {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		seg := &s.segments[i]
		var err error
		switch seg.Kind {
		case StageRunSegment:
			err = runSegStages(ctx, s, &kt, seg, store, workers, opt)
		case TransposeSegment:
			if err = runSegTranspose(ctx, s, seg, store, workers, opt); err == nil {
				err = store.Flip()
			}
		default:
			err = fmt.Errorf("exec: unknown segment kind %d", seg.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runSegWindow runs one segment's stage list on one resident window at
// the given base, with per-chunk cancellation and panic containment
// (the same contained chunk the sequential tier uses, so the ExecChunk
// fault point and *PanicError attribution apply here too).
func runSegWindow[T Float](ctx context.Context, seg *Segment, sets []*kernelSet[T], x []T, base int) error {
	for i := range seg.Stages {
		st := &seg.Stages[i]
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
			if err := runStageChunkRecover(st, i, sets[i], x, base, lo, hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSegStages streams the 2^(n-W) independent windows of a stage-run
// segment through the worker pool.  Copy-path workers own one window
// buffer each (read, transform resident, write back); direct-path
// workers transform in place.
func runSegStages[T Float](ctx context.Context, s *Schedule, kt *kernelTable[T], seg *Segment, store BufStore[T], workers int, opt SegOptions) error {
	numWin := 1 << uint(s.n-seg.W)
	winElems := 1 << uint(seg.W)

	// Resolve every stage's set before the pool starts, as the
	// pipelined tier does.
	sets := make([]*kernelSet[T], len(seg.Stages))
	for i := range seg.Stages {
		sets[i] = kt.get(seg.Stages[i].M, seg.Stages[i].Backend)
	}

	direct, isDirect := store.(sliceBacked[T])
	if workers > numWin {
		workers = numWin
	}
	if !isDirect && opt.ResidentElems > 0 {
		if cap := opt.ResidentElems / winElems; workers > cap {
			workers = cap
		}
	}
	if workers < 1 {
		workers = 1
	}

	var next atomic.Int64
	fail := newFailure()
	work := func() {
		var buf []T
		if !isDirect {
			buf = make([]T, winElems)
		}
		for !fail.failed() {
			w := int(next.Add(1) - 1)
			if w >= numWin {
				return
			}
			base := w * winElems
			if isDirect {
				x, _ := direct.Planes()
				if err := runSegWindow(ctx, seg, sets, x, base); err != nil {
					fail.set(err)
					return
				}
				continue
			}
			if err := store.Read(buf, base); err != nil {
				fail.set(err)
				return
			}
			if err := runSegWindow(ctx, seg, sets, buf, 0); err != nil {
				fail.set(err)
				return
			}
			if err := store.Write(buf, base); err != nil {
				fail.set(err)
				return
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
	work()
	wg.Wait()
	return fail.err()
}

// runSegTranspose streams the tiles of a transpose segment: each
// SegTransposeTile-square tile of each window is read as whole input
// rows, transposed resident, and written as whole output rows into the
// auxiliary plane.  Tiles are pairwise disjoint on both planes, so they
// parallelize freely; the caller flips the planes afterwards.
func runSegTranspose[T Float](ctx context.Context, s *Schedule, seg *Segment, store BufStore[T], workers int, opt SegOptions) error {
	numWin := 1 << uint(s.n-seg.W)
	rows := 1 << uint(seg.P)
	cols := 1 << uint(seg.Q)
	t := SegTransposeTile
	if t > rows {
		t = rows
	}
	if t > cols {
		t = cols
	}
	tilesR := rows / t
	tilesC := cols / t
	totalTiles := numWin * tilesR * tilesC

	direct, isDirect := store.(sliceBacked[T])
	if workers > totalTiles {
		workers = totalTiles
	}
	if !isDirect && opt.ResidentElems > 0 {
		if cap := opt.ResidentElems / (2 * t * t); workers > cap {
			workers = cap
		}
	}
	if workers < 1 {
		workers = 1
	}

	var next atomic.Int64
	fail := newFailure()
	work := func() {
		var tin, tout []T
		if !isDirect {
			tin = make([]T, t*t)
			tout = make([]T, t*t)
		}
		for !fail.failed() {
			id := int(next.Add(1) - 1)
			if id >= totalTiles {
				return
			}
			if err := ctxErr(ctx); err != nil {
				fail.set(err)
				return
			}
			win := id / (tilesR * tilesC)
			rem := id % (tilesR * tilesC)
			tr := rem / tilesC
			tc := rem % tilesC
			base := win << uint(seg.W)
			var err error
			if isDirect {
				err = transposeTileDirect(direct, base, rows, cols, t, tr, tc)
			} else {
				err = transposeTileCopy(store, tin, tout, base, rows, cols, t, tr, tc)
			}
			if err != nil {
				fail.set(err)
				return
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
	work()
	wg.Wait()
	return fail.err()
}

// transposeTileDirect moves one tile plane-to-plane in RAM: output row
// or of the tile gathers input column tc*t+or across the tile's input
// rows.
func transposeTileDirect[T Float](direct sliceBacked[T], base, rows, cols, t, tr, tc int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(-1, -1, r)
		}
	}()
	p, a := direct.Planes()
	for or := 0; or < t; or++ {
		src := base + tr*t*cols + tc*t + or
		dst := base + (tc*t+or)*rows + tr*t
		for c := 0; c < t; c++ {
			a[dst+c] = p[src+c*cols]
		}
	}
	return nil
}

// transposeTileCopy moves one tile through resident buffers: t
// contiguous input-row runs in, a resident t x t transpose, t
// contiguous output-row runs out to the auxiliary plane.
func transposeTileCopy[T Float](store BufStore[T], tin, tout []T, base, rows, cols, t, tr, tc int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(-1, -1, r)
		}
	}()
	for r := 0; r < t; r++ {
		if err := store.Read(tin[r*t:(r+1)*t], base+(tr*t+r)*cols+tc*t); err != nil {
			return err
		}
	}
	for or := 0; or < t; or++ {
		for c := 0; c < t; c++ {
			tout[or*t+c] = tin[c*t+or]
		}
	}
	for or := 0; or < t; or++ {
		if err := store.WriteAux(tout[or*t:(or+1)*t], base+(tc*t+or)*rows+tr*t); err != nil {
			return err
		}
	}
	return nil
}
