package exec

import (
	"context"
	"runtime"
	"sort"
	"time"
)

// TimingOptions controls TimeSchedule.  The zero value selects defaults
// suitable for search-time measurement: one warmup run, three timed
// repetitions, at least 2ms of work per repetition.
type TimingOptions struct {
	Warmup      int           // untimed warmup runs before measuring (default 1)
	Repeat      int           // timed repetitions; the median is reported (default 3)
	MinDuration time.Duration // minimum wall time per repetition (default 2ms)
}

func (o TimingOptions) withDefaults() TimingOptions {
	if o.Warmup <= 0 {
		o.Warmup = 1
	}
	if o.Repeat <= 0 {
		o.Repeat = 3
	}
	if o.MinDuration <= 0 {
		o.MinDuration = 2 * time.Millisecond
	}
	return o
}

// seedScratch fills x with the bounded timing test pattern (sup norm
// 3.5 = 2^2 less a bit, so growth bounds below are easy to state).
func seedScratch[T Float](x []T) {
	for i := range x {
		x[i] = T(i&7) - 3.5
	}
}

// maxTimedRuns bounds how many unnormalized WHT(2^n) runs may replay in
// place on one scratch buffer before it must be reinitialized: each run
// grows the sup norm by at most 2^n (and W^2 = 2^n*I makes the growth
// geometric, not incidental), so after c runs from the seed the largest
// exponent is at most 2 + n*c.  Keeping n*c under 990 leaves the buffer
// comfortably inside float64 range — overflowing it would have the
// timing loop measure Inf/NaN arithmetic (often denormal-speed, never
// kernel-speed) instead of the real transform.
func maxTimedRuns(n int) int { return timedRunBound(990, n) }

// maxTimedRunsOf is maxTimedRuns for element type T and a growth of at
// most 2^g per run: float32 keeps the exponent under 112 of its 127.
func maxTimedRunsOf[T Float](g int) int {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return timedRunBound(110, g)
	}
	return maxTimedRuns(g)
}

// timedRunBound is how many runs growing the exponent by g each fit in
// an exponent budget, clamped to [1, 1024].
func timedRunBound(budget, g int) int {
	if g < 1 {
		g = 1
	}
	c := budget / g
	if c < 1 {
		c = 1
	}
	if c > 1<<10 {
		c = 1 << 10
	}
	return c
}

// timeChunked is the shared chunked timing loop behind TimeSchedule and
// TimeBatch: run(k) executes k back-to-back evaluations, reset
// reinitializes the scratch data, and n is the transform log-size
// bounding how many in-place runs the scratch survives.  Each timed
// chunk is preceded by a reset outside the timed region, so the clock
// only ever covers finite-range arithmetic; chunks grow geometrically
// (capped by maxTimedRuns) so the clock is still read O(log runs)
// times.  The median over Repeat repetitions is returned in ns per run.
func timeChunked(opt TimingOptions, maxChunk int, run func(k int), reset func()) float64 {
	for w := opt.Warmup; w > 0; w -= maxChunk {
		reset()
		k := w
		if k > maxChunk {
			k = maxChunk
		}
		run(k)
	}
	samples := make([]float64, 0, opt.Repeat)
	for r := 0; r < opt.Repeat; r++ {
		runs := 0
		chunk := 1
		var elapsed time.Duration
		for {
			reset()
			start := time.Now()
			run(chunk)
			elapsed += time.Since(start)
			runs += chunk
			if elapsed >= opt.MinDuration {
				break
			}
			// Grow the chunk so the clock is read O(log runs) times and
			// tiny schedules are not dominated by timer overhead; the cap
			// keeps the scratch finite for the whole chunk.
			if chunk < maxChunk {
				chunk <<= 1
				if chunk > maxChunk {
					chunk = maxChunk
				}
			}
		}
		samples = append(samples, float64(elapsed.Nanoseconds())/float64(runs))
	}
	sort.Float64s(samples)
	mid := len(samples) / 2
	if len(samples)%2 == 1 {
		return samples[mid]
	}
	return (samples[mid-1] + samples[mid]) / 2
}

// TimeSchedule measures the real per-run latency of a compiled schedule in
// nanoseconds: it replays the schedule in place on a scratch float64
// vector until each repetition has accumulated at least MinDuration of
// work, and reports the median over Repeat repetitions.  Warmup runs
// (untimed) populate the caches and the kernel table path first.  It is
// the shared timing loop behind the measured-cost search backend, the
// tuner, and cmd/whtsearch -time.
//
// The scratch vector is reinitialized between timed chunks, outside the
// timed region: the unnormalized transform grows the data by ~2^n per
// run, so an unbounded replay would overflow to ±Inf/NaN after a few
// dozen runs and long measurements would time denormal/Inf arithmetic
// instead of the real kernels.  The chunk bound (maxTimedRuns) keeps
// the buffer finite for arbitrarily long measurements.
//
// Timing is wall-clock and therefore host-dependent and noisy; callers
// comparing plans should keep the host quiet and rely on the median to
// reject scheduling outliers.  TimeSchedule is not safe for concurrent
// use with other measurements on the same machine in the sense that
// simultaneous timings perturb each other; serialize measurements that
// will be compared.
func TimeSchedule(s *Schedule, opt TimingOptions) (nsPerRun float64) {
	return TimeScheduleOf[float64](s, opt)
}

// TimeScheduleOf is TimeSchedule on a scratch vector of element type T.
func TimeScheduleOf[T Float](s *Schedule, opt TimingOptions) float64 {
	return timeScheduleOn(s, make([]T, s.Size()), opt)
}

// timeScheduleOn is TimeSchedule on a caller-provided scratch vector
// (the regression tests inspect the buffer after the measurement).
func timeScheduleOn[T Float](s *Schedule, x []T, opt TimingOptions) float64 {
	opt = opt.withDefaults()
	return timeChunked(opt, maxTimedRunsOf[T](s.Log2Size()), func(k int) {
		for i := 0; i < k; i++ {
			MustRun(s, x)
		}
	}, func() { seedScratch(x) })
}

// TimeScheduleParallel measures the real per-run latency of the
// schedule through the barrier fan-out with the worker count pinned to
// workers (workers <= 0 selects GOMAXPROCS) — the measurement behind
// ParallelMinElems.  It times the fan-out at every size, below the
// crossover too: RunCtx's gate would run the sequential executor
// there, which TimeSchedule already measures.  The scratch discipline
// is TimeSchedule's: reinitialized between timed chunks, outside the
// timed region.
func TimeScheduleParallel(s *Schedule, workers int, opt TimingOptions) float64 {
	opt = opt.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	x := make([]float64, s.Size())
	return timeChunked(opt, maxTimedRuns(s.Log2Size()), func(k int) {
		for i := 0; i < k; i++ {
			if err := runBarrier(nil, s, x, workers); err != nil {
				panic(err)
			}
		}
	}, func() { seedScratch(x) })
}

// TimeSegmented measures the real per-run latency of a segmented
// schedule streamed through an in-RAM store by the out-of-core
// executor — the measurement primitive behind the tuner's resident
// budget and phase-split sweep.  An in-RAM store prices the segment
// structure itself (the gather copies, the per-window dispatch)
// without the noise of real disk I/O; the relative ordering of segment
// shapes is what the sweep needs, and that is store-independent.  The
// scratch discipline is TimeSchedule's.
func TimeSegmented(s *Schedule, segOpt SegOptions, opt TimingOptions) float64 {
	opt = opt.withDefaults()
	x := make([]float64, s.Size())
	store := NewSliceStore(x)
	return timeChunked(opt, maxTimedRuns(s.Log2Size()), func(k int) {
		for i := 0; i < k; i++ {
			if err := RunSegmented(context.Background(), s, store, segOpt); err != nil {
				panic(err)
			}
		}
	}, func() { seedScratch(x) })
}

// TimeBatch measures the real latency of transforming a batch of lane
// float64 vectors with the schedule, in nanoseconds per whole batch,
// through the path RunBatch runs at one worker, containment included.
// The batch scratch is reinitialized between timed chunks exactly like
// TimeSchedule's vector.
func TimeBatch(s *Schedule, lane int, opt TimingOptions) float64 {
	if lane < 1 {
		lane = 1
	}
	opt = opt.withDefaults()
	xs := make([][]float64, lane)
	for i := range xs {
		xs[i] = make([]float64, s.Size())
	}
	run := func(k int) {
		for i := 0; i < k; i++ {
			if err := runBatchVectors(nil, s, xs, 1); err != nil {
				panic(err)
			}
		}
	}
	reset := func() {
		for _, x := range xs {
			seedScratch(x)
		}
	}
	return timeChunked(opt, maxTimedRuns(s.Log2Size()), run, reset)
}
