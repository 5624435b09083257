//go:build !amd64 && !arm64

package codelet

// Hosts outside amd64/arm64 have no vector kernel tier: EffectiveSIMD
// is constant-false, so the executor never selects the SIMD* names.
// They delegate to the scalar generics anyway — the SIMD tier's
// contract is bitwise equality with scalar, so the delegation is exact
// and keeps every GOARCH compiling the same call sites.

const simdAvailable = false

// SIMDWidth64 and SIMDWidth32 are 1 on scalar-only hosts; the
// executor's strided-vectorization gate (S >= width) never fires
// because the SIMD kernel bank is never selected here.
const (
	SIMDWidth64 = 1
	SIMDWidth32 = 1
)

// SIMDIL delegates to GenericIL on hosts without the vector tier.
func SIMDIL(x []float64, base, s, m int) { GenericIL(x, base, s, m) }

// SIMDIL32 delegates to GenericIL.
func SIMDIL32(x []float32, base, s, m int) { GenericIL(x, base, s, m) }

// SIMDILFused delegates to GenericILFused.
func SIMDILFused(x []float64, base, s, m int) { GenericILFused(x, base, s, m) }

// SIMDILFused32 delegates to GenericILFused.
func SIMDILFused32(x []float32, base, s, m int) { GenericILFused(x, base, s, m) }

// SIMDILRange delegates to GenericILRange.
func SIMDILRange(x []float64, base, s, kLo, kHi, m int) {
	GenericILRange(x, base, s, kLo, kHi, m)
}

// SIMDILRange32 delegates to GenericILRange.
func SIMDILRange32(x []float32, base, s, kLo, kHi, m int) {
	GenericILRange(x, base, s, kLo, kHi, m)
}

// SIMDILFusedRange delegates to GenericILFusedRange.
func SIMDILFusedRange(x []float64, base, s, kLo, kHi, m int) {
	GenericILFusedRange(x, base, s, kLo, kHi, m)
}

// SIMDILFusedRange32 delegates to GenericILFusedRange.
func SIMDILFusedRange32(x []float32, base, s, kLo, kHi, m int) {
	GenericILFusedRange(x, base, s, kLo, kHi, m)
}

// SIMDContig delegates to GenericContig.
func SIMDContig(x []float64, base, m int) { GenericContig(x, base, m) }

// SIMDContig32 delegates to GenericContig.
func SIMDContig32(x []float32, base, m int) { GenericContig(x, base, m) }

// SIMDStrided delegates to the scalar fused streaming kernel over the
// full row — bitwise-equal to per-(j,k) strided calls.
func SIMDStrided(x []float64, base, s, m int) {
	GenericILFusedRange(x, base, s, 0, s, m)
}

// SIMDStrided32 is the float32 delegation.
func SIMDStrided32(x []float32, base, s, m int) {
	GenericILFusedRange(x, base, s, 0, s, m)
}

// SIMDStridedRange delegates to the scalar fused streaming kernel over
// the column sub-range.
func SIMDStridedRange(x []float64, base, s, kLo, kHi, m int) {
	GenericILFusedRange(x, base, s, kLo, kHi, m)
}

// SIMDStridedRange32 is the float32 delegation.
func SIMDStridedRange32(x []float32, base, s, kLo, kHi, m int) {
	GenericILFusedRange(x, base, s, kLo, kHi, m)
}
