package wht_test

import (
	"testing"

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
