package codelet

import (
	"math/rand/v2"
	"testing"
)

// The variant kernels implement the same butterfly network as Generic —
// identical pairings, identical level order — so every output must be
// BITWISE equal to the reference, not merely close: the compiled engine's
// equivalence guarantees rest on it.  These tests sweep every generated
// (size, variant, stride/interleave, base) combination for both element
// types against the generic strided loop kernel.

func randomVector64(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

func randomVector32(rng *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.Float64()*2 - 1)
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

// TestVariantKernelsBitwiseEqualGeneric is the exhaustive kernel
// equivalence property: for every generated log-size, each variant —
// unrolled and generic fallback, float64 and float32 — reproduces the
// Generic strided reference bit for bit and leaves everything outside its
// element lattice untouched.
func TestVariantKernelsBitwiseEqualGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	strides := []int{1, 2, 3, 7, 16, 64}
	interleaves := []int{1, 2, 4, 8, 64, 256}
	bases := []int{0, 1, 5}
	for m := 1; m <= GeneratedMaxLog; m++ {
		n := 1 << m

		// Strided: unrolled vs Generic at every (base, stride).
		for _, stride := range strides {
			for _, base := range bases {
				buf := randomVector64(rng, base+n*stride+3)
				want := append([]float64(nil), buf...)
				Generic(want, base, stride, m)
				got := append([]float64(nil), buf...)
				For(m)(got, base, stride)
				assertBitwise64(t, "strided", m, base, stride, got, want)

				buf32 := randomVector32(rng, base+n*stride+3)
				want32 := append([]float32(nil), buf32...)
				Generic32(want32, base, stride, m)
				got32 := append([]float32(nil), buf32...)
				For32(m)(got32, base, stride)
				assertBitwise32(t, "strided32", m, base, stride, got32, want32)
			}
		}

		// Contiguous: unrolled and generic fallback vs Generic at stride 1.
		for _, base := range bases {
			buf := randomVector64(rng, base+n+3)
			want := append([]float64(nil), buf...)
			Generic(want, base, 1, m)
			got := append([]float64(nil), buf...)
			ForContig(m)(got, base)
			assertBitwise64(t, "contig", m, base, 1, got, want)
			got2 := append([]float64(nil), buf...)
			GenericContig(got2, base, m)
			assertBitwise64(t, "contig-fallback", m, base, 1, got2, want)

			buf32 := randomVector32(rng, base+n+3)
			want32 := append([]float32(nil), buf32...)
			Generic32(want32, base, 1, m)
			got32 := append([]float32(nil), buf32...)
			ForContig32(m)(got32, base)
			assertBitwise32(t, "contig32", m, base, 1, got32, want32)
			got232 := append([]float32(nil), buf32...)
			GenericContig32(got232, base, m)
			assertBitwise32(t, "contig32-fallback", m, base, 1, got232, want32)
		}

		// Interleaved: one call must equal s independent strided transforms
		// of the interleaved columns, for full calls, the generic fallback,
		// and every split of the column range.
		for _, s := range interleaves {
			for _, base := range bases {
				buf := randomVector64(rng, base+n*s+3)
				want := append([]float64(nil), buf...)
				for k := 0; k < s; k++ {
					Generic(want, base+k, s, m)
				}
				got := append([]float64(nil), buf...)
				ForIL(m)(got, base, s)
				assertBitwise64(t, "il", m, base, s, got, want)
				got2 := append([]float64(nil), buf...)
				GenericIL(got2, base, s, m)
				assertBitwise64(t, "il-fallback", m, base, s, got2, want)
				if s > 1 {
					split := rng.IntN(s-1) + 1
					got3 := append([]float64(nil), buf...)
					GenericILRange(got3, base, s, 0, split, m)
					GenericILRange(got3, base, s, split, s, m)
					assertBitwise64(t, "il-range", m, base, s, got3, want)
				}

				buf32 := randomVector32(rng, base+n*s+3)
				want32 := append([]float32(nil), buf32...)
				for k := 0; k < s; k++ {
					Generic32(want32, base+k, s, m)
				}
				got32 := append([]float32(nil), buf32...)
				ForIL32(m)(got32, base, s)
				assertBitwise32(t, "il32", m, base, s, got32, want32)
				got232 := append([]float32(nil), buf32...)
				GenericIL32(got232, base, s, m)
				assertBitwise32(t, "il32-fallback", m, base, s, got232, want32)
				if s > 1 {
					split := rng.IntN(s-1) + 1
					got332 := append([]float32(nil), buf32...)
					GenericILRange32(got332, base, s, 0, split, m)
					GenericILRange32(got332, base, s, split, s, m)
					assertBitwise32(t, "il32-range", m, base, s, got332, want32)
				}
			}
		}
	}
}

func assertBitwise64(t *testing.T, variant string, m, base, sOrStride int, got, want []float64) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s m=%d base=%d s/stride=%d: element %d = %v, want %v (bitwise)",
				variant, m, base, sOrStride, i, got[i], want[i])
		}
	}
}

func assertBitwise32(t *testing.T, variant string, m, base, sOrStride int, got, want []float32) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s m=%d base=%d s/stride=%d: element %d = %v, want %v (bitwise)",
				variant, m, base, sOrStride, i, got[i], want[i])
		}
	}
}

func TestVariantForOutOfRange(t *testing.T) {
	if ForContig(0) != nil || ForContig(GeneratedMaxLog+1) != nil ||
		ForIL(0) != nil || ForIL(GeneratedMaxLog+1) != nil ||
		ForContig32(-1) != nil || ForIL32(-1) != nil ||
		ForILFused(0) != nil || ForILFused(GeneratedMaxLog+1) != nil ||
		ForILFused32(-1) != nil {
		t.Error("variant lookups must return nil outside [1, GeneratedMaxLog]")
	}
}

// The generated (unrolled-pass) fused interleaved codelets replace the
// Generic loop forms on the scalar hot path, so they must be BITWISE
// equal to them — the same contract
// TestGenericILFusedAndRangeBitwiseEqualGeneric pins for
// the loop forms, transitively anchoring the codelets to the per-column
// Generic reference.
func TestGeneratedILFusedCodeletsBitwiseEqualGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for m := 1; m <= GeneratedMaxLog; m++ {
		n := 1 << m
		fk, fk32 := ForILFused(m), ForILFused32(m)
		if fk == nil || fk32 == nil {
			t.Fatalf("m=%d: fused codelet tables have nil entries", m)
		}
		for _, s := range []int{1, 2, 3, 5, 8} {
			for _, base := range []int{0, 3} {
				buf := randomVector64(rng, base+n*s+3)
				want := append([]float64(nil), buf...)
				GenericILFused(want, base, s, m)

				got := append([]float64(nil), buf...)
				fk(got, base, s)
				assertBitwise64(t, "gen-il-fused", m, base, s, got, want)

				buf32 := randomVector32(rng, base+n*s+3)
				want32 := append([]float32(nil), buf32...)
				GenericILFused32(want32, base, s, m)

				got32 := append([]float32(nil), buf32...)
				fk32(got32, base, s)
				assertBitwise32(t, "gen-il-fused32", m, base, s, got32, want32)
			}
		}
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
				buf := randomVector64(rng, base+n*s+3)
				want := append([]float64(nil), buf...)
				for k := 0; k < s; k++ {
					Generic(want, base+k, s, m)
				}
				got := append([]float64(nil), buf...)
				GenericILFused(got, base, s, m)
				assertBitwise64(t, "il-fused", m, base, s, got, want)
				got2 := append([]float64(nil), buf...)
				GenericILFusedRange(got2, base, s, 0, s, m)
				assertBitwise64(t, "il-fused-range-full", m, base, s, got2, want)
				if s > 1 {
					split := rng.IntN(s-1) + 1
					got3 := append([]float64(nil), buf...)
					GenericILFusedRange(got3, base, s, split, s, m)
					GenericILFusedRange(got3, base, s, 0, split, m)
					assertBitwise64(t, "il-fused-range-split", m, base, s, got3, want)
				}

				buf32 := randomVector32(rng, base+n*s+3)
				want32 := append([]float32(nil), buf32...)
				for k := 0; k < s; k++ {
					Generic32(want32, base+k, s, m)
				}
				got32 := append([]float32(nil), buf32...)
				GenericILFused32(got32, base, s, m)
				assertBitwise32(t, "il-fused32", m, base, s, got32, want32)
				got232 := append([]float32(nil), buf32...)
				GenericILFusedRange32(got232, base, s, 0, s, m)
				assertBitwise32(t, "il-fused32-range-full", m, base, s, got232, want32)
				if s > 1 {
					split := rng.IntN(s-1) + 1
					got332 := append([]float32(nil), buf32...)
					GenericILFusedRange32(got332, base, s, split, s, m)
					GenericILFusedRange32(got332, base, s, 0, split, m)
					assertBitwise32(t, "il-fused32-range-split", m, base, s, got332, want32)
				}
			}
		}
	}
}
