package exec

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/codelet"
	"repro/internal/faultinject"
)

// The SoA batch tier executes one schedule over a whole batch of vectors
// in structure-of-arrays layout: the batch is transposed into a pooled
// scratch buffer where element j of vector b sits at y[j*B + b], every
// stage runs ONCE across the whole lane of B vectors, and the result is
// transposed back.  The stage algebra is the paper's: appending the
// batch axis as the innermost unit-stride dimension turns each stage
// I(R) (x) WHT(2^m) (x) I(S) of the single-vector schedule into
// I(R) (x) WHT(2^m) (x) I(S*B) over the SoA buffer, so the compiled
// stage sequence carries over unchanged with S scaled by B — and every
// memory touch of a stage now serves all B vectors at once instead of
// being repaid per vector.

// DefaultSoAMinBatch is the batch width at which RunBatch switches to
// the SoA tier when the schedule's shape favors it and no tuned
// threshold has been registered (SetSoAMinBatch).  Below it the two transposes cost more than the
// amortized stage passes recover.
const DefaultSoAMinBatch = 8

// DefaultSoAMinLog/DefaultSoAMaxLog bound the transform sizes the
// untuned crossover heuristic selects SoA for.  The window was measured
// on the BenchmarkBatchSoA shapes and is deliberately narrow: n=16 is
// where the per-vector working set decisively outgrows mid-level cache
// so the fused lane-wide streams win ~1.5x, while n <= 15 measures
// parity (per-vector passes still enjoy residency, so the transposes
// buy nothing) and n >= 17-18 loses (the SoA image outgrows on-chip
// cache while the per-vector passes still partly fit).  The tuner's
// batch sweep measures the real crossover per size and host and
// overrides this default via SetSoAMinBatch.
const (
	DefaultSoAMinLog = 16
	DefaultSoAMaxLog = 16
)

// SoAPadMinLane is the narrowest lane the SoA tier pads: power-of-two
// lanes of at least this width get one pad column so the leading
// dimension of the SoA buffer is odd.  An exact power-of-two leading
// dimension is the worst case for a physically indexed cache: the
// lane-strided transpose columns and the power-of-two-strided butterfly
// positions all collapse onto a handful of sets (and alias at 4 KB page
// granularity), which is precisely the conflict pathology the paper's
// set-associativity analysis flags.  An odd leading dimension walks the
// columns through every set instead.  Narrow lanes are exempt: their
// whole tile image fits in a couple of lines per set, and the pad would
// only waste bandwidth.
const SoAPadMinLane = 8

// SoALaneDim returns the leading dimension of the SoA buffer for a lane
// of `lane` vectors: element j of vector b sits at y[j*SoALaneDim(lane)
// + b].  Power-of-two lanes >= SoAPadMinLane get one pad column (see
// SoAPadMinLane); every other width is already conflict-benign and stays
// dense.  machine.SoALaneDim mirrors this (the equality is asserted by
// tests) so the cost model and the trace simulator price the padded
// layout the executor actually runs.
func SoALaneDim(lane int) int {
	if lane >= SoAPadMinLane && lane&(lane-1) == 0 {
		return lane + 1
	}
	return lane
}

// SoAMinBatch returns the batch-width threshold at which the batch
// executors pick the SoA tier for this schedule: 0 means the default
// crossover heuristic, negative means never, k >= 1 means batches of at
// least k vectors.
func (s *Schedule) SoAMinBatch() int { return s.soaMin }

// SetSoAMinBatch sets the SoA crossover threshold (see SoAMinBatch).
// Schedules are otherwise immutable and shared without synchronization,
// so the threshold must be set before the schedule is published to other
// goroutines — the tuner sets it between compiling and warming the
// cache.
func (s *Schedule) SetSoAMinBatch(min int) { s.soaMin = min }

// SoAUsesLaneKernels reports whether the SoA tier executes this
// schedule through the per-position lane kernels instead of the
// radix-4 fused interleaved streams: policies without interleaved
// forms (StridedOnly, or a negative ILMinS) map to the lane kernels —
// the SoA analogue of the legacy strided engine.  The cost model and
// the trace simulator branch on the same predicate so batch pricing
// follows the engine the policy actually runs.
func (s *Schedule) SoAUsesLaneKernels() bool {
	return s.policy.StridedOnly || s.policy.ILMinS < 0
}

// soaSelect reports whether a batch of the given width should run
// through the SoA tier: the tuned threshold when one is registered, the
// default width bound plus a shape check otherwise.
func (s *Schedule) soaSelect(batch int) bool {
	min := s.soaMin
	if min < 0 {
		return false
	}
	if min == 0 {
		if !s.soaShapeFavors() {
			return false
		}
		min = DefaultSoAMinBatch
	}
	return batch >= min
}

// soaShapeFavors is the untuned half of the crossover heuristic.  SoA
// pays two transpose passes, which the fused lane-wide stage streams
// only win back when (a) the schedule has a large-stride stage — one
// the per-vector engine must run as a strided walk or an m-pass
// interleaved stream, which the SoA tier halves to radix-4 fused
// passes amortized over the lane; (b) the schedule is shallow (at most
// two stages: every extra stage adds fused passes over the
// B-times-larger SoA buffer while the transposes stay fixed, and
// measured three-plus-stage schedules lose); and (c) the transform size
// sits in the measured crossover window.
func (s *Schedule) soaShapeFavors() bool {
	if s.n < DefaultSoAMinLog || s.n > DefaultSoAMaxLog {
		return false
	}
	if len(s.stages) > 2 {
		return false
	}
	large := false
	for _, st := range s.stages {
		if st.S >= codelet.DefaultILMinS {
			large = true
		}
	}
	return large
}

// soaRun executes the schedule's SoA stage sequence in place on the SoA
// buffer y holding lane vectors.  The effective inner factor of a stage
// is S*lane and every j-row of the SoA buffer is a contiguous block of
// 2^M * S * lane elements, so each stage runs as R calls of the radix-4
// fused interleaved stream: the row's whole (k, b) space is absorbed
// into unit-stride passes, two butterfly levels per pass, bitwise-equal
// to the single-level kernels — half the streaming passes the
// per-vector interleaved stage pays, amortized across the whole lane.
// (The SoA lane kernel — one strided visit per position — loses to the
// stream on this layout: at large power-of-two effective strides its
// 2^M positions collapse onto a handful of cache sets, the same
// conflict pathology that makes the AoS strided kernel lose to IL.)
//
// Policies that disable the interleaved forms (StridedOnly, or a
// negative ILMinS) map to the SoA lane kernels instead — the SoA
// analogue of the legacy strided engine.
// The buffer's leading dimension is SoALaneDim(lane): a padded lane
// runs its fused streams at effective inner factor S*ld, so the pad
// column rides along inside the unit-stride passes.  Butterfly partners
// sit a multiple of S*ld apart, which preserves the column index mod
// ld — pads only ever pair with pads (kept zero by transposeIn, so the
// extra arithmetic stays in fast finite range) and every real column
// computes exactly the per-vector network.
func soaRun[T Float](ctx context.Context, s *Schedule, kt *kernelTable[T], y []T, lane int) error {
	ld := SoALaneDim(lane)
	useLane := s.SoAUsesLaneKernels()
	for i := range s.stages {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		st := &s.stages[i]
		ks := kt.get(st.M, st.Backend)
		if err := soaRunStage(ctx, st, i, ks, y, ld, lane, useLane); err != nil {
			return err
		}
	}
	return nil
}

// soaRunStage runs one stage across the lane with panic
// containment (attributed to the stage index) and a cancellation
// poll per j-row — each row is a contiguous Blk*ld-element pass, the
// natural chunk of this tier.
func soaRunStage[T Float](ctx context.Context, st *Stage, stage int, ks *kernelSet[T], y []T, ld, lane int, useLane bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(stage, r)
		}
	}()
	sEff := st.S * ld
	rowLen := st.Blk * ld
	if useLane {
		for j := 0; j < st.R; j++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			rowBase := j * rowLen
			for k := 0; k < st.S; k++ {
				ks.soa(y, rowBase+k*ld, sEff, lane)
			}
		}
		return nil
	}
	for j := 0; j < st.R; j++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		ks.ilFused(y, j*rowLen, sEff)
	}
	return nil
}

// SoATransposeTile is the transpose tile: tiles of this many vector
// elements keep each tile's SoA image (tile * lane elements)
// cache-resident while the per-vector reads stay sequential.
// machine.TransposeTile mirrors it so the cost model and the trace
// simulator price the loop structure the executor actually runs (the
// equality is asserted by tests).
const SoATransposeTile = 128

// transposeIn gathers the batch into SoA layout with leading dimension
// ld = SoALaneDim(lane): y[j*ld+b] = xs[b][j].  When the lane is padded
// the pad column is zeroed tile by tile — the fused stage streams run
// butterflies over it, and zeros keep that arithmetic finite (pooled
// scratch could otherwise hand the passes denormal or Inf leftovers,
// which are exactly the slow operands the timing layer guards against).
func transposeIn[T Float](y []T, xs [][]T, size int) {
	lane := len(xs)
	if lane == 1 {
		copy(y, xs[0])
		return
	}
	ld := SoALaneDim(lane)
	for j0 := 0; j0 < size; j0 += SoATransposeTile {
		j1 := j0 + SoATransposeTile
		if j1 > size {
			j1 = size
		}
		for b, x := range xs {
			for j := j0; j < j1; j++ {
				y[j*ld+b] = x[j]
			}
		}
		if ld != lane {
			for j := j0; j < j1; j++ {
				y[j*ld+lane] = 0
			}
		}
	}
}

// transposeOut scatters the SoA buffer back: xs[b][j] = y[j*ld+b].
func transposeOut[T Float](xs [][]T, y []T, size int) {
	lane := len(xs)
	if lane == 1 {
		copy(xs[0], y)
		return
	}
	ld := SoALaneDim(lane)
	for j0 := 0; j0 < size; j0 += SoATransposeTile {
		j1 := j0 + SoATransposeTile
		if j1 > size {
			j1 = size
		}
		for b, x := range xs {
			for j := j0; j < j1; j++ {
				x[j] = y[j*ld+b]
			}
		}
	}
}

// scratchPool recycles one executor tier's scratch slices, one pool
// per element type, so steady-state traffic allocates nothing.
type scratchPool struct {
	f64 sync.Pool // *[]float64
	f32 sync.Pool // *[]float32
}

// soaPool holds the SoA batch tier's lane buffers.
var soaPool scratchPool

// getScratch returns a pooled scratch slice of at least n elements,
// sliced to exactly n.
func getScratch[T Float](sp *scratchPool, n int) *[]T {
	var zero T
	if _, ok := any(zero).(float64); ok {
		if p, _ := sp.f64.Get().(*[]float64); p != nil && cap(*p) >= n {
			*p = (*p)[:n]
			return any(p).(*[]T)
		}
		buf := make([]float64, n)
		return any(&buf).(*[]T)
	}
	if p, _ := sp.f32.Get().(*[]float32); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return any(p).(*[]T)
	}
	buf := make([]float32, n)
	return any(&buf).(*[]T)
}

// putScratch returns a scratch slice to its pool.
func putScratch[T Float](sp *scratchPool, p *[]T) {
	switch q := any(p).(type) {
	case *[]float64:
		sp.f64.Put(q)
	case *[]float32:
		sp.f32.Put(q)
	}
}

// SoAMaxLane bounds the lane width a single SoA pass runs at: wider
// batches are processed as consecutive sub-lanes through one bounded
// scratch buffer.  The amortization saturates well below this width
// (every memory touch already serves 8 cache lines of vectors at
// lane 64, float64), while an unbounded lane would allocate scratch
// proportional to the whole batch — doubling peak memory for wide
// batches and parking a peak-sized buffer in the pool.
const SoAMaxLane = 64

// runBatchSoA is the validated SoA batch body: the batch is processed
// in sub-lanes of at most SoAMaxLane vectors, each transposed into the
// pooled scratch, run through every stage once, and transposed back.
// Lane grouping never changes a vector's butterfly network, so the
// split keeps results bitwise identical.  ctx is polled between
// sub-lanes (and within each lane per SoA stage row); panics anywhere
// in a lane return as a *PanicError.
func runBatchSoA[T Float](ctx context.Context, s *Schedule, kt *kernelTable[T], xs [][]T) error {
	for lo := 0; lo < len(xs); lo += SoAMaxLane {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		hi := lo + SoAMaxLane
		if hi > len(xs) {
			hi = len(xs)
		}
		if err := runBatchSoALane(ctx, s, kt, xs[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// runBatchSoALane runs one bounded sub-lane through the SoA tier.  The
// lane-level recover catches transpose panics and the armed SoA-lane
// fault point (stage attribution -1); stage-attributed containment
// lives in soaRunStage.  The deferred release keeps the scratch pool
// intact on every exit path.
func runBatchSoALane[T Float](ctx context.Context, s *Schedule, kt *kernelTable[T], xs [][]T) (err error) {
	lane := len(xs)
	p := getScratch[T](&soaPool, s.size*SoALaneDim(lane))
	defer putScratch(&soaPool, p)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(-1, r)
		}
	}()
	faultinject.Fire(faultinject.ExecSoALane)
	y := *p
	transposeIn(y, xs, s.size)
	if err := soaRun(ctx, s, kt, y, lane); err != nil {
		return err
	}
	transposeOut(xs, y, s.size)
	return nil
}

// runBatchSoAParallel is RunBatch's SoA body: the batch split into
// contiguous per-worker lanes, each worker transposing and transforming
// its own sub-batch through its own scratch buffer (no stage barriers,
// no shared writes) and containing its own panics, the first error
// winning.  Lane grouping never changes a vector's butterfly network,
// so results are bitwise identical to the single-lane form.
func runBatchSoAParallel[T Float](ctx context.Context, s *Schedule, xs [][]T, workers int) error {
	if len(xs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each worker's lane must stay wide enough to amortize its two
	// transposes: fragmenting the batch into near-single-vector lanes
	// (e.g. GOMAXPROCS >= batch width) would degenerate the tier into
	// per-vector execution plus two copies per vector — strictly worse
	// than the per-vector parallel path.
	if maxW := (len(xs) + DefaultSoAMinBatch - 1) / DefaultSoAMinBatch; workers > maxW {
		workers = maxW
	}
	if workers == 1 {
		kt := newKernelTable[T](s)
		return runBatchSoA(ctx, s, &kt, xs)
	}
	chunk := (len(xs) + workers - 1) / workers
	fail := newFailure()
	var wg sync.WaitGroup
	for lo := 0; lo < len(xs); lo += chunk {
		hi := lo + chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		wg.Add(1)
		go func(sub [][]T) {
			defer wg.Done()
			if fail.failed() {
				return
			}
			kt := newKernelTable[T](s)
			if err := runBatchSoA(ctx, s, &kt, sub); err != nil {
				fail.set(err)
			}
		}(xs[lo:hi])
	}
	wg.Wait()
	return fail.err()
}
