// Package codelet provides the base-case kernels of the WHT package in
// two tiers: unrolled ("small") codelets — straight-line in-place
// transforms of size 2^1..2^8 — and generic loop kernels for arbitrary
// sizes.
//
// Each unrolled log-size carries three stage-shape variants (see
// Variant): the generic strided form, the stride-1 contiguous
// specialization, and the interleaved form that absorbs a stage's inner
// k-loop — plus the structure-of-arrays batch form (see soa.go) that
// advances a lane of B vectors per call with the batch axis unit-stride.
// The kernels in codelets_gen.go / codelets32_gen.go are produced by
// cmd/whtgen (go generate ./internal/codelet) in the style of SPIRAL's
// code generator.
package codelet

//go:generate go run ../../cmd/whtgen -max 8 -out codelets_gen.go
//go:generate go run ../../cmd/whtgen -max 8 -type float32 -out codelets32_gen.go

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

// ILKernel computes s interleaved in-place WHT(2^m)s on the contiguous
// block x[base : base+s*2^m]: vector k (k < s) occupies x[base + k + j*s].
// One call replaces the s strided kernel calls of a stage's j-row, with
// every inner loop unit-stride (the WHT package's "IL" optimization).
type ILKernel func(x []float64, base, s int)

// ILKernel32 is the single-precision interleaved kernel.
type ILKernel32 func(x []float32, base, s int)

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

// ForContig returns the unrolled contiguous kernel for log2 size m, or nil.
func ForContig(m int) ContigKernel {
	if m < 1 || m > GeneratedMaxLog {
		return nil
	}
	return ContigKernels[m]
}

// ForContig32 returns the unrolled float32 contiguous kernel, or nil.
func ForContig32(m int) ContigKernel32 {
	if m < 1 || m > GeneratedMaxLog {
		return nil
	}
	return ContigKernels32[m]
}

// ForIL returns the unrolled interleaved kernel for log2 size m, or nil.
func ForIL(m int) ILKernel {
	if m < 1 || m > GeneratedMaxLog {
		return nil
	}
	return ILKernels[m]
}

// ForIL32 returns the unrolled float32 interleaved kernel, or nil.
func ForIL32(m int) ILKernel32 {
	if m < 1 || m > GeneratedMaxLog {
		return nil
	}
	return ILKernels32[m]
}

// ForILFused returns the unrolled radix-4 fused interleaved kernel for
// log2 size m, or nil.
func ForILFused(m int) ILKernel {
	if m < 1 || m > GeneratedMaxLog {
		return nil
	}
	return ILFusedKernels[m]
}

// ForILFused32 returns the unrolled float32 fused interleaved kernel,
// or nil.
func ForILFused32(m int) ILKernel32 {
	if m < 1 || m > GeneratedMaxLog {
		return nil
	}
	return ILFusedKernels32[m]
}

// Generic computes an in-place WHT(2^m) on a strided vector using the
// textbook loop nest.  It works for any m >= 0 and is the reference
// implementation the generated kernels are tested against; the transform
// engine uses it only when asked to run without unrolled base cases.
func Generic(x []float64, base, stride, m int) {
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

// Generic32 is the float32 loop kernel.
func Generic32(x []float32, base, stride, m int) {
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
