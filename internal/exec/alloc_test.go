package exec

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// TestRunAllocFree pins allocation-free dispatch: a sequential Run of a
// default schedule builds its kernel table on the stack and takes the
// unrolled-tier kernel sets from the process-wide banks, so it
// allocates nothing on either backend.
func TestRunAllocFree(t *testing.T) {
	defer codelet.SetBackend(codelet.ActiveBackend())
	for _, b := range []codelet.Backend{codelet.AutoBackend, codelet.ScalarBackend} {
		codelet.SetBackend(b)
		for n := 6; n <= 16; n++ {
			s := ForSize(n)
			x := make([]float64, 1<<n)
			x32 := make([]float32, 1<<n)
			if a := testing.AllocsPerRun(10, func() { MustRun(s, x) }); a != 0 {
				t.Errorf("%v n=%d float64: %v allocs per Run, want 0", b, n, a)
			}
			if a := testing.AllocsPerRun(10, func() { MustRun(s, x32) }); a != 0 {
				t.Errorf("%v n=%d float32: %v allocs per Run, want 0", b, n, a)
			}
		}
	}
}

// TestBlockPartsOverrideReachesNextRun pins why block-tier kernel sets
// are resolved per run rather than cached with the unrolled banks: a
// SetBlockParts override issued after a block-leaf schedule has run
// swaps the generated kernel the schedule's next run dispatches to for
// the generic one that follows the override, and that run stays
// bitwise-equal to GenericBlock under the override.  (Every
// factorization applies the levels in the same order, so the results
// cannot tell the kernels apart; the dispatched function can.)
func TestBlockPartsOverrideReachesNextRun(t *testing.T) {
	const m = 12
	defer codelet.ClearBlockParts(m)
	s := Compile(plan.Leaf(m))
	st := s.Stages()[0]
	if st.V != codelet.Contiguous {
		t.Fatalf("leaf schedule stage %v, want contiguous", st.V)
	}
	generated := reflect.ValueOf(codelet.ForBlockContig(m)).Pointer()
	dispatched := func() uintptr {
		kt := newKernelTable[float64](s)
		return reflect.ValueOf(kt.get(st.M, st.Backend).contig).Pointer()
	}
	rng := rand.New(rand.NewPCG(5, 7))
	in := randomVector(1<<m, rng)
	MustRun(s, append([]float64(nil), in...))
	if dispatched() != generated {
		t.Fatal("default parts: run does not dispatch the generated block kernel")
	}

	if err := codelet.SetBlockParts(m, []int{8, 4}); err != nil {
		t.Fatal(err)
	}
	if dispatched() == generated {
		t.Fatal("override: next run still dispatches the generated block kernel")
	}
	got := append([]float64(nil), in...)
	MustRun(s, got)
	want := append([]float64(nil), in...)
	codelet.GenericBlock(want, 0, 1, m)
	assertBitwise(t, "override run vs GenericBlock", want, got)

	in32 := make([]float32, 1<<m)
	for i := range in32 {
		in32[i] = float32(in[i])
	}
	got32 := append([]float32(nil), in32...)
	MustRun(s, got32)
	want32 := append([]float32(nil), in32...)
	codelet.GenericBlock32(want32, 0, 1, m)
	assertBitwise(t, "float32 override run vs GenericBlock32", want32, got32)
}

// assertBitwise fails unless got and want agree bit for bit (the values
// are finite, so converting float32 to float64 keeps every bit).
func assertBitwise[T Float](t *testing.T, label string, want, got []T) {
	t.Helper()
	for i := range want {
		if math.Float64bits(float64(want[i])) != math.Float64bits(float64(got[i])) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}
