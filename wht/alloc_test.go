package wht_test

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/wht"
)

// TestTransformAllocFree pins the warm facade call path: once a size's
// schedule is cached, Transform and Transform32 allocate nothing.
func TestTransformAllocFree(t *testing.T) {
	for n := 6; n <= 16; n++ {
		x := make([]float64, 1<<n)
		x32 := make([]float32, 1<<n)
		if err := wht.Transform(x); err != nil { // warm the schedule cache
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(10, func() { wht.Transform(x) }); a != 0 {
			t.Errorf("n=%d: %v allocs per Transform, want 0", n, a)
		}
		if a := testing.AllocsPerRun(10, func() { wht.Transform32(x32) }); a != 0 {
			t.Errorf("n=%d: %v allocs per Transform32, want 0", n, a)
		}
	}
}

// TestRunParallelBelowCrossoverAllocatesNothing pins the crossover: a
// transform below exec.ParallelMinElems runs RunParallel (RunCtx with
// a nil ctx) on the caller's goroutine through the sequential executor, so once the
// schedule is cached it spawns no goroutine, allocates nothing, and
// matches exec.Run bit for bit.
func TestRunParallelBelowCrossoverAllocatesNothing(t *testing.T) {
	const n = 14
	if 1<<n >= exec.ParallelMinElems {
		t.Fatalf("n=%d is not below the crossover %d", n, exec.ParallelMinElems)
	}
	s := wht.ScheduleForSize(n)
	x := make([]float64, 1<<n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := append([]float64(nil), x...)
	if err := exec.Run(s, want); err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), x...)
	if err := wht.RunParallel(s, got, 2); err != nil { // warm-up
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: RunParallel %v, Run %v", i, got[i], want[i])
		}
	}
	if a := testing.AllocsPerRun(10, func() { wht.RunParallel(s, got, 2) }); a != 0 {
		t.Errorf("%v allocs per RunParallel at n=%d with 2 workers, want 0", a, n)
	}
}
