// Package codelet provides the base-case kernels of the WHT package in
// two tiers: unrolled ("small") codelets — straight-line in-place
// transforms — and generic loop kernels for arbitrary sizes.
//
// Only the forms that beat their loop are unrolled: the strided kernel
// for every log-size 1..8 (m = 8 measured level or slower and awaits a
// re-measure, see cmd/whtgen) and the stride-1 contiguous specialization
// for log-sizes 1..7.  Every other stage shape (see Variant) runs a Generic*
// loop, written once for both element types: contiguous 2^8, the
// interleaved and fused interleaved forms and their range forms.  The
// unrolled kernels in codelets_gen.go / codelets32_gen.go are produced
// by cmd/whtgen (go generate ./internal/codelet) in the style of
// SPIRAL's code generator, once per element type: a func value of a
// generic instantiation would be a wrapper around the shape body, one
// extra call per kernel call.
package codelet

//go:generate go run ../../cmd/whtgen -max 8 -out codelets_gen.go
//go:generate go run ../../cmd/whtgen -max 8 -type float32 -out codelets32_gen.go

// Float constrains the element types the kernels run on: exactly float64
// and float32, the two types with generated tables and vector kernels.
type Float interface {
	float32 | float64
}

// Kernel computes an in-place WHT on the strided vector
// x[base], x[base+stride], ..., x[base+(2^m-1)*stride].
type Kernel func(x []float64, base, stride int)

// Kernel32 is the single-precision variant, matching the WHT package's
// wht_float build (and the 4-byte element size of the paper's cache
// boundaries).
type Kernel32 func(x []float32, base, stride int)

// ContigKernel computes an in-place WHT(2^m) on the contiguous vector
// x[base : base+2^m] — the stride-1 specialization whose constant slice
// indexing the compiler can bounds-check-eliminate.
type ContigKernel func(x []float64, base int)

// ContigKernel32 is the single-precision contiguous kernel.
type ContigKernel32 func(x []float32, base int)

// For returns the unrolled strided kernel for log2 size m, or nil if none
// was generated.
func For(m int) Kernel {
	if m < 1 || m > GeneratedMaxLog {
		return nil
	}
	return Kernels[m]
}

// For32 returns the unrolled float32 strided kernel for log2 size m, or nil.
func For32(m int) Kernel32 {
	if m < 1 || m > GeneratedMaxLog {
		return nil
	}
	return Kernels32[m]
}

// ForContig returns the unrolled contiguous kernel for log2 size m, or
// nil above GeneratedContigMaxLog, where GenericContig is as fast.
func ForContig(m int) ContigKernel {
	if m < 1 || m > GeneratedContigMaxLog {
		return nil
	}
	return ContigKernels[m]
}

// ForContig32 returns the unrolled float32 contiguous kernel, or nil.
func ForContig32(m int) ContigKernel32 {
	if m < 1 || m > GeneratedContigMaxLog {
		return nil
	}
	return ContigKernels32[m]
}

// Generic computes an in-place WHT(2^m) on a strided vector using the
// textbook loop nest.  It works for any m >= 0 and is the reference
// implementation every other kernel is tested against; the transform
// engine uses it only when asked to run without unrolled base cases.
func Generic[T Float](x []T, base, stride, m int) {
	n := 1 << uint(m)
	for h := 1; h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				lo := base + j*stride
				hi := lo + h*stride
				a, b := x[lo], x[hi]
				x[lo] = a + b
				x[hi] = a - b
			}
		}
	}
}
