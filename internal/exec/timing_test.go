package exec

import (
	"math"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/plan"
)

func TestTimeScheduleReportsPlausibleLatency(t *testing.T) {
	opt := TimingOptions{Warmup: 1, Repeat: 3, MinDuration: 200 * time.Microsecond}
	small := TimeSchedule(Compile(plan.Balanced(6, plan.MaxLeafLog)), opt)
	large := TimeSchedule(Compile(plan.Balanced(14, plan.MaxLeafLog)), opt)
	if small <= 0 || large <= 0 {
		t.Fatalf("non-positive latencies: %g, %g", small, large)
	}
	if large < small {
		t.Fatalf("2^14 (%g ns) timed faster than 2^6 (%g ns)", large, small)
	}
}

// TestTimeScheduleParallelTimesFanOut pins what TimeScheduleParallel
// measures: the barrier fan-out, below ParallelMinElems too.  RunCtx
// would run the sequential executor there, one chunk per stage; two
// workers split every stage into more.
func TestTimeScheduleParallelTimesFanOut(t *testing.T) {
	defer faultinject.Reset()
	s := Compile(plan.Balanced(14, plan.MaxLeafLog))
	hook, chunks := faultinject.Counter()
	faultinject.Set(faultinject.ExecChunk, hook)
	// One warmup run and one timed run: any run outlasts a nanosecond.
	const runs = 2
	TimeScheduleParallel(s, 2, TimingOptions{Warmup: 1, Repeat: 1, MinDuration: time.Nanosecond})
	if got := chunks(); got <= int64(runs*s.NumStages()) {
		t.Fatalf("%d chunks over %d runs of %d stages: one per stage is the sequential executor",
			got, runs, s.NumStages())
	}
}

// TestTimeScheduleKeepsScratchFinite is the regression test for the
// timing-loop overflow: the unnormalized WHT grows its data by ~2^n per
// in-place run (W^2 = 2^n * I), so the old loop — which never
// reinitialized its scratch — overflowed to ±Inf after a few dozen runs
// at moderate n, and every long measurement timed Inf/NaN arithmetic.
// Force a multi-thousand-run measurement and demand the buffer never
// leaves float64 range.
func TestTimeScheduleKeepsScratchFinite(t *testing.T) {
	s := Compile(plan.Balanced(10, plan.MaxLeafLog))
	x := make([]float64, s.Size())
	// Warmup beyond the old overflow horizon plus two repetitions long
	// enough for thousands of timed runs each.
	opt := TimingOptions{Warmup: 3000, Repeat: 2, MinDuration: 15 * time.Millisecond}
	ns := timeScheduleOn(s, x, opt)
	if ns <= 0 || math.IsInf(ns, 0) || math.IsNaN(ns) {
		t.Fatalf("implausible measurement %g ns", ns)
	}
	for i, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("scratch[%d] = %g after measurement; timing loop overflowed", i, v)
		}
	}
}

// TestMaxTimedRuns pins the chunk bound that keeps the scratch finite:
// c runs grow the seed's exponent by at most n*c, which must stay well
// inside float64 range for every size the engine addresses.
func TestMaxTimedRuns(t *testing.T) {
	for n := 1; n <= 30; n++ {
		c := maxTimedRuns(n)
		if c < 1 || c > 1<<10 {
			t.Fatalf("maxTimedRuns(%d) = %d outside [1, 1024]", n, c)
		}
		if 2+n*c > 1020 {
			t.Fatalf("maxTimedRuns(%d) = %d admits exponent %d (overflow)", n, c, 2+n*c)
		}
	}
	if maxTimedRuns(0) < 1 {
		t.Fatal("maxTimedRuns must stay positive for degenerate sizes")
	}
}

// TestTimeBatchPlausible covers the batch timing primitive behind the
// tuner's SoA sweep: both forced paths produce positive, finite
// per-batch latencies, and a larger batch costs more than a smaller one.
func TestTimeBatchPlausible(t *testing.T) {
	s := Compile(plan.Balanced(10, plan.MaxLeafLog))
	opt := TimingOptions{Warmup: 1, Repeat: 3, MinDuration: 500 * time.Microsecond}
	aos := TimeBatch(s, 4, false, opt)
	soa := TimeBatch(s, 4, true, opt)
	if aos <= 0 || soa <= 0 {
		t.Fatalf("non-positive batch latencies: aos %g, soa %g", aos, soa)
	}
	one := TimeBatch(s, 1, false, opt)
	if aos < one {
		t.Fatalf("batch of 4 (%g ns) timed faster than batch of 1 (%g ns)", aos, one)
	}
}

func TestTimeScheduleDefaults(t *testing.T) {
	o := TimingOptions{}.withDefaults()
	if o.Warmup != 1 || o.Repeat != 3 || o.MinDuration != 2*time.Millisecond {
		t.Fatalf("defaults = %+v", o)
	}
	// An explicit configuration passes through untouched.
	set := TimingOptions{Warmup: 2, Repeat: 5, MinDuration: time.Millisecond}
	if got := set.withDefaults(); got != set {
		t.Fatalf("explicit options rewritten: %+v", got)
	}
}
