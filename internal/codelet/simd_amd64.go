package codelet

import "repro/internal/isa"

// The AVX2 instantiation of the vector kernel tier (see simd.go for the
// shared drivers and simd_amd64.s for the butterfly primitives): YMM
// registers hold 4 float64s or 8 float32s per operation.

// simdAvailable gates the vector tier: amd64 with AVX2 and OS-enabled
// YMM state.  Detection runs once at init via internal/isa.
var simdAvailable = isa.HasAVX2()

// Vector widths in elements: the tail masks of the shared run drivers
// and the head depth of the pass programs (levels below four vectors).
const (
	simdWidth64 = 4
	simdWidth32 = 8
)

// The whole-pass kernels (simd_amd64.s).  Each is one assembly call
// per transform pass; the shared drivers in simd.go sequence them.

//go:noescape
func vecHead64(v []float64)

//go:noescape
func vecHead32(v []float32)

//go:noescape
func vecPass2x64(v []float64, h int)

//go:noescape
func vecPass2x32(v []float32, h int)

//go:noescape
func vecPass4x64(v []float64, h int)

//go:noescape
func vecPass4x32(v []float32, h int)
