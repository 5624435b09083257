package codelet

import (
	"math"
	"math/rand"
	"testing"
)

// fillPattern writes a deterministic, sign-varied, non-symmetric pattern
// so that any operand-order or indexing slip changes some output bit.
func fillPattern(x []float64, r *rand.Rand) {
	for i := range x {
		x[i] = math.Ldexp(r.Float64()*2-1, r.Intn(9)-4)
	}
}

func fillPattern32(x []float32, r *rand.Rand) {
	for i := range x {
		x[i] = float32(math.Ldexp(r.Float64()*2-1, r.Intn(5)-2))
	}
}

func equalBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: bit mismatch at [%d]: want %v (%#x) got %v (%#x)",
				name, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

func equalBits32(t *testing.T, name string, want, got []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: bit mismatch at [%d]: want %v (%#x) got %v (%#x)",
				name, i, want[i], math.Float32bits(want[i]), got[i], math.Float32bits(got[i]))
		}
	}
}

// TestSIMDKernelsBitwise pins the SIMD tier's contract: every SIMD*
// kernel computes bitwise the same results as its Generic* counterpart,
// over odd strides (so vector runs straddle every alignment), non-zero
// bases, and range widths that exercise both the vector body and
// the scalar tail (including widths below one vector).
func TestSIMDKernelsBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("SIMD tier unavailable on this host; delegation is identity")
	}
	r := rand.New(rand.NewSource(7))
	base := 3 // misaligned on purpose
	for m := 1; m <= 10; m++ {
		n := 1 << uint(m)
		for _, s := range []int{1, 3, 4, 7, 8, 16, 32, 33, 64, 128} {
			ref := make([]float64, base+n*s+5)
			got := make([]float64, len(ref))
			fillPattern(ref, r)
			copy(got, ref)

			GenericIL(ref, base, s, m)
			SIMDIL(got, base, s, m)
			equalBits(t, "IL", ref, got)

			fillPattern(ref, r)
			copy(got, ref)
			GenericILFused(ref, base, s, m)
			SIMDILFused(got, base, s, m)
			equalBits(t, "ILFused", ref, got)

			for _, kr := range [][2]int{{0, s}, {0, min(5, s)}, {s / 3, s}, {s / 2, s/2 + min(6, s-s/2)}} {
				kLo, kHi := kr[0], kr[1]
				if kLo >= kHi {
					continue
				}
				fillPattern(ref, r)
				copy(got, ref)
				GenericILRange(ref, base, s, kLo, kHi, m)
				SIMDILRange(got, base, s, kLo, kHi, m)
				equalBits(t, "ILRange", ref, got)

				fillPattern(ref, r)
				copy(got, ref)
				GenericILFusedRange(ref, base, s, kLo, kHi, m)
				SIMDILFusedRange(got, base, s, kLo, kHi, m)
				equalBits(t, "ILFusedRange", ref, got)
			}
		}
	}
}

// TestSIMDKernelsBitwise32 is the float32 grid.
func TestSIMDKernelsBitwise32(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("SIMD tier unavailable on this host; delegation is identity")
	}
	r := rand.New(rand.NewSource(11))
	base := 5
	for m := 1; m <= 9; m++ {
		n := 1 << uint(m)
		for _, s := range []int{1, 3, 4, 7, 8, 16, 32, 33, 64, 128} {
			ref := make([]float32, base+n*s+3)
			got := make([]float32, len(ref))
			fillPattern32(ref, r)
			copy(got, ref)

			GenericIL(ref, base, s, m)
			SIMDIL32(got, base, s, m)
			equalBits32(t, "IL32", ref, got)

			fillPattern32(ref, r)
			copy(got, ref)
			GenericILFused(ref, base, s, m)
			SIMDILFused32(got, base, s, m)
			equalBits32(t, "ILFused32", ref, got)

			for _, kr := range [][2]int{{0, s}, {s / 3, s}, {s / 2, s/2 + min(9, s-s/2)}} {
				kLo, kHi := kr[0], kr[1]
				if kLo >= kHi {
					continue
				}
				fillPattern32(ref, r)
				copy(got, ref)
				GenericILRange(ref, base, s, kLo, kHi, m)
				SIMDILRange32(got, base, s, kLo, kHi, m)
				equalBits32(t, "ILRange32", ref, got)

				fillPattern32(ref, r)
				copy(got, ref)
				GenericILFusedRange(ref, base, s, kLo, kHi, m)
				SIMDILFusedRange32(got, base, s, kLo, kHi, m)
				equalBits32(t, "ILFusedRange32", ref, got)
			}
		}
	}
}

// TestSIMDContigStridedBitwise pins the vectorized contiguous and
// strided tiers: SIMDContig against the scalar contiguous kernel, and
// SIMDStrided / SIMDStridedRange against the per-(j,k) scalar strided
// kernel calls they replace — the engine-level claim, since the
// executor routes whole rows of strided-variant stages through them.
// Column widths sweep below, at, and off the vector width so the
// sub-width fallback, the chunk seams, and the scalar tails all run;
// the contiguous kernel runs at every base offset within a vector, and
// full rows run both as one interleaved pass program (chunk == s) and
// chunked.
func TestSIMDContigStridedBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("SIMD tier unavailable on this host; delegation is identity")
	}
	r := rand.New(rand.NewSource(13))
	base := 3
	fullRows, chunkedRows := 0, 0
	for m := 1; m <= 10; m++ {
		n := 1 << uint(m)

		for b := 0; b < simdWidth64; b++ {
			ref := make([]float64, b+n+5)
			got := make([]float64, len(ref))
			fillPattern(ref, r)
			copy(got, ref)
			GenericContig(ref, b, m)
			SIMDContig(got, b, m)
			equalBits(t, "Contig", ref, got)
		}

		for _, s := range []int{1, 2, 3, 4, 5, 7, 8, 16, 32, 33, 64, 128, 1024} {
			if s >= simdWidth64 {
				if stridedChunkCols(m, s, simdWidth64, stridedChunkTarget64) == s {
					fullRows++
				} else {
					chunkedRows++
				}
			}
			ref := make([]float64, base+n*s+5)
			got := make([]float64, len(ref))
			fillPattern(ref, r)
			copy(got, ref)
			for k := 0; k < s; k++ {
				Generic(ref, base+k, s, m)
			}
			SIMDStrided(got, base, s, m)
			equalBits(t, "Strided", ref, got)

			for _, kr := range [][2]int{{0, min(5, s)}, {s / 3, s}, {s / 2, s/2 + min(6, s-s/2)}} {
				kLo, kHi := kr[0], kr[1]
				if kLo >= kHi {
					continue
				}
				fillPattern(ref, r)
				copy(got, ref)
				for k := kLo; k < kHi; k++ {
					Generic(ref, base+k, s, m)
				}
				SIMDStridedRange(got, base, s, kLo, kHi, m)
				equalBits(t, "StridedRange", ref, got)
			}
		}
	}
	if fullRows == 0 || chunkedRows == 0 {
		t.Fatalf("grid ran %d one-chunk rows and %d chunked rows; want both", fullRows, chunkedRows)
	}
}

// TestSIMDContigStridedBitwise32 is the float32 grid.
func TestSIMDContigStridedBitwise32(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("SIMD tier unavailable on this host; delegation is identity")
	}
	r := rand.New(rand.NewSource(17))
	base := 5
	fullRows, chunkedRows := 0, 0
	for m := 1; m <= 9; m++ {
		n := 1 << uint(m)

		for b := 0; b < simdWidth32; b++ {
			ref := make([]float32, b+n+3)
			got := make([]float32, len(ref))
			fillPattern32(ref, r)
			copy(got, ref)
			GenericContig32(ref, b, m)
			SIMDContig32(got, b, m)
			equalBits32(t, "Contig32", ref, got)
		}

		for _, s := range []int{1, 3, 4, 7, 8, 9, 16, 32, 33, 64, 128, 2048} {
			if s >= simdWidth32 {
				if stridedChunkCols(m, s, simdWidth32, stridedChunkTarget32) == s {
					fullRows++
				} else {
					chunkedRows++
				}
			}
			ref := make([]float32, base+n*s+3)
			got := make([]float32, len(ref))
			fillPattern32(ref, r)
			copy(got, ref)
			for k := 0; k < s; k++ {
				Generic(ref, base+k, s, m)
			}
			SIMDStrided32(got, base, s, m)
			equalBits32(t, "Strided32", ref, got)

			for _, kr := range [][2]int{{0, min(7, s)}, {s / 3, s}} {
				kLo, kHi := kr[0], kr[1]
				if kLo >= kHi {
					continue
				}
				fillPattern32(ref, r)
				copy(got, ref)
				for k := kLo; k < kHi; k++ {
					Generic(ref, base+k, s, m)
				}
				SIMDStridedRange32(got, base, s, kLo, kHi, m)
				equalBits32(t, "StridedRange32", ref, got)
			}
		}
	}
	if fullRows == 0 || chunkedRows == 0 {
		t.Fatalf("grid ran %d one-chunk rows and %d chunked rows; want both", fullRows, chunkedRows)
	}
}

// fillSpecial writes a mix of quiet NaNs with distinct payloads and
// both signs, ±Inf and finite values, so both operands of many
// butterflies are special: which NaN payload survives an add or sub
// pins the operand order, and Inf-Inf pins where default NaNs arise.
func fillSpecial(x []float64, r *rand.Rand) {
	for i := range x {
		switch r.Intn(6) {
		case 0, 1:
			sign := uint64(r.Intn(2)) << 63
			x[i] = math.Float64frombits(sign | 0x7ff8000000000000 | uint64(i+1)<<12 | uint64(r.Intn(1<<12)))
		case 2:
			x[i] = math.Inf(1)
		case 3:
			x[i] = math.Inf(-1)
		default:
			x[i] = math.Ldexp(r.Float64()*2-1, r.Intn(9)-4)
		}
	}
}

func fillSpecial32(x []float32, r *rand.Rand) {
	for i := range x {
		switch r.Intn(6) {
		case 0, 1:
			sign := uint32(r.Intn(2)) << 31
			x[i] = math.Float32frombits(sign | 0x7fc00000 | uint32(i+1)<<8&0x3fffff | uint32(r.Intn(1<<8)))
		case 2:
			x[i] = float32(math.Inf(1))
		case 3:
			x[i] = float32(math.Inf(-1))
		default:
			x[i] = float32(math.Ldexp(r.Float64()*2-1, r.Intn(5)-2))
		}
	}
}

// TestSIMDSpecialValuesBitwise feeds NaNs with distinct payloads and
// ±Inf, in lower and upper butterfly slots alike, through the
// contiguous, interleaved and strided vector kernels and requires the
// scalar reference's exact output bits.  Which payload survives in an
// output depends on the operand order of every add and sub on its
// path, so a swapped first source anywhere shows up.
func TestSIMDSpecialValuesBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("SIMD tier unavailable on this host; delegation is identity")
	}
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		for m := 1; m <= GeneratedMaxLog; m++ {
			n := 1 << uint(m)
			base := trial % simdWidth64
			ref := make([]float64, base+n+3)
			got := make([]float64, len(ref))
			fillSpecial(ref, r)
			copy(got, ref)
			GenericContig(ref, base, m)
			SIMDContig(got, base, m)
			equalBits(t, "Contig", ref, got)

			for _, s := range []int{4, 8, 16, 32, 64, 128} {
				ref := make([]float64, base+n*s+3)
				got := make([]float64, len(ref))
				fillSpecial(ref, r)
				copy(got, ref)
				GenericIL(ref, base, s, m)
				SIMDIL(got, base, s, m)
				equalBits(t, "IL", ref, got)

				fillSpecial(ref, r)
				copy(got, ref)
				for k := 0; k < s; k++ {
					Generic(ref, base+k, s, m)
				}
				SIMDStrided(got, base, s, m)
				equalBits(t, "Strided", ref, got)
			}
		}
	}
}

// TestSIMDSpecialValuesBitwise32 is the float32 special-value grid.
func TestSIMDSpecialValuesBitwise32(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("SIMD tier unavailable on this host; delegation is identity")
	}
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		for m := 1; m <= GeneratedMaxLog; m++ {
			n := 1 << uint(m)
			base := trial % simdWidth32
			ref := make([]float32, base+n+3)
			got := make([]float32, len(ref))
			fillSpecial32(ref, r)
			copy(got, ref)
			GenericContig32(ref, base, m)
			SIMDContig32(got, base, m)
			equalBits32(t, "Contig32", ref, got)

			for _, s := range []int{4, 8, 16, 32, 64, 128} {
				ref := make([]float32, base+n*s+3)
				got := make([]float32, len(ref))
				fillSpecial32(ref, r)
				copy(got, ref)
				GenericIL(ref, base, s, m)
				SIMDIL32(got, base, s, m)
				equalBits32(t, "IL32", ref, got)

				fillSpecial32(ref, r)
				copy(got, ref)
				for k := 0; k < s; k++ {
					Generic(ref, base+k, s, m)
				}
				SIMDStrided32(got, base, s, m)
				equalBits32(t, "Strided32", ref, got)
			}
		}
	}
}

// TestBackendResolution pins the requested-vs-effective reporting the
// CLIs warn with: auto requests resolve through the process override
// before being reported, and Degraded fires exactly for an explicit
// SIMD request on a host (or under an availability state) that runs
// scalar.
func TestBackendResolution(t *testing.T) {
	defer SetBackend(AutoBackend)
	avail := SIMDAvailable()

	SetBackend(AutoBackend)
	r := Resolve(ScalarBackend)
	if r.Requested != ScalarBackend || r.Effective != ScalarBackend || r.Degraded() {
		t.Fatalf("Resolve(scalar) = %+v", r)
	}
	r = Resolve(SIMDBackend)
	if r.Requested != SIMDBackend {
		t.Fatalf("Resolve(simd).Requested = %v", r.Requested)
	}
	if avail {
		if r.Effective != SIMDBackend || r.Degraded() {
			t.Fatalf("Resolve(simd) on a SIMD host = %+v", r)
		}
		if r.String() != "simd" {
			t.Fatalf("Resolve(simd).String() = %q", r.String())
		}
	} else {
		if r.Effective != ScalarBackend || !r.Degraded() {
			t.Fatalf("Resolve(simd) on a scalar host = %+v", r)
		}
		if r.String() != "simd -> scalar" {
			t.Fatalf("Resolve(simd).String() = %q", r.String())
		}
	}

	// An auto request reports what the override resolved it to, and an
	// auto-to-scalar resolution is never degradation.
	SetBackend(ScalarBackend)
	r = Resolve(AutoBackend)
	if r.Requested != ScalarBackend || r.Effective != ScalarBackend || r.Degraded() {
		t.Fatalf("Resolve(auto) under scalar override = %+v", r)
	}
	SetBackend(SIMDBackend)
	r = Resolve(AutoBackend)
	if r.Requested != SIMDBackend {
		t.Fatalf("Resolve(auto) under simd override: Requested = %v", r.Requested)
	}
	if r.Degraded() != !avail {
		t.Fatalf("Resolve(auto) under simd override: Degraded = %v, avail = %v", r.Degraded(), avail)
	}
}

// TestBackendParseRoundTrip pins the wisdom-file spellings and the
// WHT_SIMD aliases.
func TestBackendParseRoundTrip(t *testing.T) {
	for _, b := range []Backend{AutoBackend, ScalarBackend, SIMDBackend} {
		got, ok := ParseBackend(b.String())
		if !ok || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, ok)
		}
	}
	cases := map[string]Backend{
		"": AutoBackend, "auto": AutoBackend,
		"off": ScalarBackend, "0": ScalarBackend, "scalar": ScalarBackend,
		"on": SIMDBackend, "1": SIMDBackend, "simd": SIMDBackend,
	}
	for in, want := range cases {
		got, ok := ParseBackend(in)
		if !ok || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", in, got, ok, want)
		}
	}
	if _, ok := ParseBackend("mmx"); ok {
		t.Fatal("ParseBackend accepted an unknown spelling")
	}
}

// TestEffectiveSIMD pins the backend resolution order: explicit policy
// choice > process override > host availability.
func TestEffectiveSIMD(t *testing.T) {
	defer SetBackend(ActiveBackend())
	avail := SIMDAvailable()

	SetBackend(AutoBackend)
	if EffectiveSIMD(AutoBackend) != avail {
		t.Fatal("auto/auto should track availability")
	}
	if EffectiveSIMD(ScalarBackend) {
		t.Fatal("explicit scalar policy must stay scalar")
	}
	if EffectiveSIMD(SIMDBackend) != avail {
		t.Fatal("explicit simd policy should track availability")
	}

	SetBackend(ScalarBackend)
	if EffectiveSIMD(AutoBackend) {
		t.Fatal("auto policy must follow a scalar process override")
	}
	if EffectiveSIMD(SIMDBackend) != avail {
		t.Fatal("explicit simd policy must beat a scalar process override")
	}

	SetBackend(SIMDBackend)
	if EffectiveSIMD(AutoBackend) != avail {
		t.Fatal("auto policy must follow a simd process override")
	}
	if EffectiveSIMD(ScalarBackend) {
		t.Fatal("explicit scalar policy must beat a simd process override")
	}
	SetBackend(AutoBackend)
}
