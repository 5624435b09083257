package codelet

import (
	"math/rand/v2"
	"testing"
)

// Every kernel implements the same butterfly network as Generic —
// identical pairings, identical level order — so every output must be
// BITWISE equal to the reference, not merely close: the compiled engine's
// equivalence guarantees rest on it.  These tests sweep every unrolled
// kernel and every loop the engine routes a stage shape to, over
// (size, stride/interleave, base) grids for both element types,
// against the generic strided loop kernel.

func randomVec[T Float](rng *rand.Rand, n int) []T {
	x := make([]T, n)
	for i := range x {
		x[i] = T(rng.Float64()*2 - 1)
	}
	return x
}

func TestVariantSelect(t *testing.T) {
	def := DefaultPolicy()
	cases := []struct {
		pol  Policy
		m, s int
		want Variant
	}{
		{def, 4, 1, Contiguous},
		{def, 4, 2, Strided},
		{def, 4, DefaultILMinS, Interleaved},
		{def, 4, 1 << 12, Interleaved},
		{Policy{ILMinS: 2}, 4, 2, Interleaved},
		{Policy{ILMinS: -1}, 4, 1 << 12, Strided},
		{Policy{ILMinS: -1}, 4, 1, Contiguous},
		{Policy{StridedOnly: true}, 4, 1, Strided},
		{Policy{StridedOnly: true}, 4, 1 << 12, Strided},
	}
	for _, c := range cases {
		if got := c.pol.Select(c.m, c.s); got != c.want {
			t.Errorf("policy %+v Select(%d, %d) = %v, want %v", c.pol, c.m, c.s, got, c.want)
		}
	}
	if Strided.String() != "strided" || Contiguous.String() != "contig" || Interleaved.String() != "il" {
		t.Errorf("variant names: %v %v %v", Strided, Contiguous, Interleaved)
	}
}

// TestVariantKernelsBitwiseEqualGeneric is the unrolled-kernel
// equivalence property: for every generated log-size, the strided and
// contiguous codelets of both element types reproduce the Generic
// strided reference bit for bit and leave everything outside their
// element lattice untouched.
func TestVariantKernelsBitwiseEqualGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for m := 1; m <= GeneratedMaxLog; m++ {
		unrolledBitwise(t, rng, m, For(m), ForContig(m))
		unrolledBitwise(t, rng, m, For32(m), ForContig32(m))
	}
}

func unrolledBitwise[T Float, K ~func([]T, int, int), C ~func([]T, int)](t *testing.T, rng *rand.Rand, m int, strided K, contig C) {
	t.Helper()
	n := 1 << m
	bases := []int{0, 1, 5}
	for _, stride := range []int{1, 2, 3, 7, 16, 64} {
		for _, base := range bases {
			buf := randomVec[T](rng, base+n*stride+3)
			want := append([]T(nil), buf...)
			Generic(want, base, stride, m)
			got := append([]T(nil), buf...)
			strided(got, base, stride)
			assertBitwise(t, "strided", m, base, stride, got, want)
		}
	}
	if m > GeneratedContigMaxLog {
		if contig != nil {
			t.Fatalf("m=%d: contiguous codelet generated above GeneratedContigMaxLog", m)
		}
		return
	}
	for _, base := range bases {
		buf := randomVec[T](rng, base+n+3)
		want := append([]T(nil), buf...)
		Generic(want, base, 1, m)
		got := append([]T(nil), buf...)
		contig(got, base)
		assertBitwise(t, "contig", m, base, 1, got, want)
	}
}

// TestRoutedLoopsBitwiseEqualGeneric covers every stage shape the engine
// runs through a Generic* loop instead of an unrolled kernel — the
// contiguous loop (the only contiguous kernel at m = 8), the interleaved
// and fused interleaved full rows, their range forms split at random
// seams — at every leaf size in both element types, each against
// per-column Generic calls.
func TestRoutedLoopsBitwiseEqualGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for m := 1; m <= GeneratedMaxLog; m++ {
		routedBitwise[float64](t, rng, m)
		routedBitwise[float32](t, rng, m)
	}
}

func routedBitwise[T Float](t *testing.T, rng *rand.Rand, m int) {
	t.Helper()
	n := 1 << m
	for _, base := range []int{0, 3} {
		buf := randomVec[T](rng, base+n+3)
		want := append([]T(nil), buf...)
		Generic(want, base, 1, m)
		got := append([]T(nil), buf...)
		GenericContig(got, base, m)
		assertBitwise(t, "contig-loop", m, base, 1, got, want)

		for _, s := range []int{1, 2, 3, 8, 64} {
			buf := randomVec[T](rng, base+n*s+3)
			want := append([]T(nil), buf...)
			for k := 0; k < s; k++ {
				Generic(want, base+k, s, m)
			}
			split := rng.IntN(s + 1)
			for _, run := range []struct {
				name string
				f    func(x []T)
			}{
				{"il", func(x []T) { GenericIL(x, base, s, m) }},
				{"il-fused", func(x []T) { GenericILFused(x, base, s, m) }},
				{"il-range", func(x []T) {
					GenericILRange(x, base, s, split, s, m)
					GenericILRange(x, base, s, 0, split, m)
				}},
				{"il-fused-range", func(x []T) {
					GenericILFusedRange(x, base, s, 0, split, m)
					GenericILFusedRange(x, base, s, split, s, m)
				}},
			} {
				got := append([]T(nil), buf...)
				run.f(got)
				assertBitwise(t, run.name, m, base, s, got, want)
			}
		}
	}
}

func assertBitwise[T Float](t *testing.T, variant string, m, base, sOrStride int, got, want []T) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s m=%d base=%d s/stride=%d: element %d = %v, want %v (bitwise)",
				variant, m, base, sOrStride, i, got[i], want[i])
		}
	}
}

func TestVariantForOutOfRange(t *testing.T) {
	if ForContig(0) != nil || ForContig(GeneratedContigMaxLog+1) != nil ||
		ForContig32(-1) != nil || ForContig32(GeneratedContigMaxLog+1) != nil {
		t.Error("contiguous lookups must return nil outside [1, GeneratedContigMaxLog]")
	}
}

// The fused interleaved kernels — the radix-4 full-row form and the
// radix-8 column-range form the vector strided range kernels build on —
// regroup butterfly levels into multi-level passes without changing any
// per-element operand pairing or order, so both must stay BITWISE equal
// to the per-column Generic reference: for every size covering all
// m mod 3 prologue shapes and multiple radix-8 passes, full column
// ranges and every tested split, both element types.  Full-row and
// range calls mixing within one stage is safe exactly because both
// equal this one reference.
func TestGenericILFusedAndRangeBitwiseEqualGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for m := 1; m <= 10; m++ {
		n := 1 << m
		for _, s := range []int{1, 2, 3, 5, 8} {
			for _, base := range []int{0, 3} {
				buf := randomVec[float64](rng, base+n*s+3)
				want := append([]float64(nil), buf...)
				for k := 0; k < s; k++ {
					Generic(want, base+k, s, m)
				}
				got := append([]float64(nil), buf...)
				GenericILFused(got, base, s, m)
				assertBitwise(t, "il-fused", m, base, s, got, want)
				got2 := append([]float64(nil), buf...)
				GenericILFusedRange(got2, base, s, 0, s, m)
				assertBitwise(t, "il-fused-range-full", m, base, s, got2, want)
				if s > 1 {
					split := rng.IntN(s-1) + 1
					got3 := append([]float64(nil), buf...)
					GenericILFusedRange(got3, base, s, split, s, m)
					GenericILFusedRange(got3, base, s, 0, split, m)
					assertBitwise(t, "il-fused-range-split", m, base, s, got3, want)
				}

				buf32 := randomVec[float32](rng, base+n*s+3)
				want32 := append([]float32(nil), buf32...)
				for k := 0; k < s; k++ {
					Generic(want32, base+k, s, m)
				}
				got32 := append([]float32(nil), buf32...)
				GenericILFused(got32, base, s, m)
				assertBitwise(t, "il-fused32", m, base, s, got32, want32)
				got232 := append([]float32(nil), buf32...)
				GenericILFusedRange(got232, base, s, 0, s, m)
				assertBitwise(t, "il-fused32-range-full", m, base, s, got232, want32)
				if s > 1 {
					split := rng.IntN(s-1) + 1
					got332 := append([]float32(nil), buf32...)
					GenericILFusedRange(got332, base, s, split, s, m)
					GenericILFusedRange(got332, base, s, 0, split, m)
					assertBitwise(t, "il-fused32-range-split", m, base, s, got332, want32)
				}
			}
		}
	}
}
