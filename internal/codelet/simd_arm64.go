package codelet

import "repro/internal/isa"

// The NEON instantiation of the vector kernel tier (see simd.go for the
// shared drivers and simd_arm64.s for the butterfly primitives):
// quadword vector registers hold 2 float64s or 4 float32s per
// operation.

// simdAvailable gates the vector tier.  Advanced SIMD is part of the
// ARMv8-A baseline, so this is effectively always true on arm64; the
// isa indirection keeps the structure identical to amd64.
var simdAvailable = isa.HasNEON()

// Vector widths in elements: the tail masks of the shared run drivers
// and the head depth of the pass programs (levels below four vectors).
const (
	simdWidth64 = 2
	simdWidth32 = 4
)

// The whole-pass kernels in Go over the NEON run primitives of
// simd_arm64.s: the same contract as the AVX2 assembly (see simd.go),
// one run call per butterfly block.

// vecHead64 runs the levels below four vectors (h = 1, 2, 4) on every
// 8-element chunk of v, or the whole WHT of a 2- or 4-element v: the
// sub-width level in Go, the rest as one vector pass.
func vecHead64(v []float64) {
	for i := 0; i+2 <= len(v); i += 2 {
		a, b := v[i], v[i+1]
		v[i], v[i+1] = a+b, a-b
	}
	switch {
	case len(v) >= 4*simdWidth64:
		vecPass4x64(v, simdWidth64)
	case len(v) == 2*simdWidth64:
		vecPass2x64(v, simdWidth64)
	}
}

// vecHead32 runs levels h = 1 .. 8 on every 16-element chunk of v, or
// the whole WHT of a 4- or 8-element v: the two sub-width levels in
// Go, the rest as one vector pass.
func vecHead32(v []float32) {
	for i := 0; i+4 <= len(v); i += 4 {
		a, b, c, d := v[i], v[i+1], v[i+2], v[i+3]
		e, f := a+b, a-b
		g, h := c+d, c-d
		v[i], v[i+1], v[i+2], v[i+3] = e+g, f+h, e-g, f-h
	}
	switch {
	case len(v) >= 4*simdWidth32:
		vecPass4x32(v, simdWidth32)
	case len(v) == 2*simdWidth32:
		vecPass2x32(v, simdWidth32)
	}
}

func vecPass2x64(v []float64, h int) {
	for blk := 0; blk < len(v); blk += 2 * h {
		vecAddSub64(&v[blk], &v[blk+h], h)
	}
}

func vecPass2x32(v []float32, h int) {
	for blk := 0; blk < len(v); blk += 2 * h {
		vecAddSub32(&v[blk], &v[blk+h], h)
	}
}

func vecPass4x64(v []float64, h int) {
	for blk := 0; blk < len(v); blk += 4 * h {
		vecBfly4x64(&v[blk], &v[blk+h], &v[blk+2*h], &v[blk+3*h], h)
	}
}

func vecPass4x32(v []float32, h int) {
	for blk := 0; blk < len(v); blk += 4 * h {
		vecBfly4x32(&v[blk], &v[blk+h], &v[blk+2*h], &v[blk+3*h], h)
	}
}
