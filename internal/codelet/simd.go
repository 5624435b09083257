//go:build amd64 || arm64

package codelet

import "math/bits"

// The shared vector kernel tier: one set of Go drivers over per-ISA
// butterfly primitives (simd_amd64.s: AVX2, 4 float64s / 8 float32s
// per YMM op; simd_arm64.go + simd_arm64.s: NEON quadwords, 2 / 4 per
// op).  simdWidth64/simdWidth32 in the per-arch Go files give the
// widths.
//
// The contiguous and full-row interleaved kernels are whole-pass
// programs (passes64/passes32).  A contiguous WHT(2^m) of at least one
// vector starts with one head call (vecHead*), which runs every level
// below four vectors — h = 1 .. 2*width — of each four-vector chunk in
// registers (a one- or two-vector transform is all head).  Every
// remaining level pairs unit-stride runs of h >= width elements, so it
// runs as whole passes over the span, one call each: a radix-2 pass
// (vecPass2*) first when the level count is odd, then radix-4 passes
// (vecPass4*), the block loop inside the primitive.  An interleaved
// row of s vectors is the same program started at h = s.  Levels whose
// runs are not a whole number of vectors (narrow rows, sizes below one
// vector) run in Go.
//
// The range and chunked strided kernels keep per-block calls of
// the run primitives (vecAddSub*, vecBfly4x*, vecBfly8x*): a vector run
// across the inner index with a scalar tail.
//
// Bitwise equality with the scalar tier.  Every butterfly keeps the
// scalar operand order — lower+upper, lower-upper, the lower operand
// the first source, including the blended lanes of the in-register
// head levels — and levels run in increasing h, the order of the
// Generic* loops.  Vectorizing therefore only regroups independent
// butterflies; it never changes any element's add/sub DAG, so results
// are bitwise-identical to the scalar tier, and on NaN inputs to the
// Generic* loops' payloads too (x86 keeps the first source's payload
// when both operands are NaN).  The equivalence tests in simd_test.go
// pin this over the size x stride x range grid and on NaN/Inf inputs.

// SIMDWidth64 and SIMDWidth32 export the host vector width in elements
// per type — the executor's eligibility gate for the vectorized
// strided tier (a strided stage needs S >= width to fill a vector from
// its contiguous inner index).
const (
	SIMDWidth64 = simdWidth64
	SIMDWidth32 = simdWidth32
)

//go:noescape
func vecAddSub64(lo, hi *float64, n int)

//go:noescape
func vecAddSub32(lo, hi *float32, n int)

//go:noescape
func vecBfly4x64(q0, q1, q2, q3 *float64, n int)

//go:noescape
func vecBfly4x32(q0, q1, q2, q3 *float32, n int)

//go:noescape
func vecBfly8x64(p0, p1, p2, p3, p4, p5, p6, p7 *float64, n int)

//go:noescape
func vecBfly8x32(p0, p1, p2, p3, p4, p5, p6, p7 *float32, n int)

// addSubRun applies the radix-2 butterfly elementwise across two
// equal-length unit-stride runs: vector body, scalar tail.
func addSubRun(lo, hi []float64) {
	n := len(lo)
	hi = hi[:n]
	w := n &^ (simdWidth64 - 1)
	if w > 0 {
		vecAddSub64(&lo[0], &hi[0], w)
	}
	for k := w; k < n; k++ {
		a, b := lo[k], hi[k]
		lo[k] = a + b
		hi[k] = a - b
	}
}

func addSubRun32(lo, hi []float32) {
	n := len(lo)
	hi = hi[:n]
	w := n &^ (simdWidth32 - 1)
	if w > 0 {
		vecAddSub32(&lo[0], &hi[0], w)
	}
	for k := w; k < n; k++ {
		a, b := lo[k], hi[k]
		lo[k] = a + b
		hi[k] = a - b
	}
}

// bfly4Run applies the radix-4 butterfly (two fused levels) elementwise
// across four equal-length unit-stride runs.
func bfly4Run(q0, q1, q2, q3 []float64) {
	n := len(q0)
	q1 = q1[:n]
	q2 = q2[:n]
	q3 = q3[:n]
	w := n &^ (simdWidth64 - 1)
	if w > 0 {
		vecBfly4x64(&q0[0], &q1[0], &q2[0], &q3[0], w)
	}
	for k := w; k < n; k++ {
		a, b, c, d := q0[k], q1[k], q2[k], q3[k]
		e, f := a+b, a-b
		g, hh := c+d, c-d
		q0[k], q1[k] = e+g, f+hh
		q2[k], q3[k] = e-g, f-hh
	}
}

func bfly4Run32(q0, q1, q2, q3 []float32) {
	n := len(q0)
	q1 = q1[:n]
	q2 = q2[:n]
	q3 = q3[:n]
	w := n &^ (simdWidth32 - 1)
	if w > 0 {
		vecBfly4x32(&q0[0], &q1[0], &q2[0], &q3[0], w)
	}
	for k := w; k < n; k++ {
		a, b, c, d := q0[k], q1[k], q2[k], q3[k]
		e, f := a+b, a-b
		g, hh := c+d, c-d
		q0[k], q1[k] = e+g, f+hh
		q2[k], q3[k] = e-g, f-hh
	}
}

// bfly8Run applies the radix-8 butterfly (three fused levels)
// elementwise across eight equal-length unit-stride runs.
func bfly8Run(p0, p1, p2, p3, p4, p5, p6, p7 []float64) {
	n := len(p0)
	p1 = p1[:n]
	p2 = p2[:n]
	p3 = p3[:n]
	p4 = p4[:n]
	p5 = p5[:n]
	p6 = p6[:n]
	p7 = p7[:n]
	w := n &^ (simdWidth64 - 1)
	if w > 0 {
		vecBfly8x64(&p0[0], &p1[0], &p2[0], &p3[0], &p4[0], &p5[0], &p6[0], &p7[0], w)
	}
	for k := w; k < n; k++ {
		a0, a1, a2, a3 := p0[k], p1[k], p2[k], p3[k]
		a4, a5, a6, a7 := p4[k], p5[k], p6[k], p7[k]
		b0, b1 := a0+a1, a0-a1
		b2, b3 := a2+a3, a2-a3
		b4, b5 := a4+a5, a4-a5
		b6, b7 := a6+a7, a6-a7
		c0, c2 := b0+b2, b0-b2
		c1, c3 := b1+b3, b1-b3
		c4, c6 := b4+b6, b4-b6
		c5, c7 := b5+b7, b5-b7
		p0[k], p4[k] = c0+c4, c0-c4
		p1[k], p5[k] = c1+c5, c1-c5
		p2[k], p6[k] = c2+c6, c2-c6
		p3[k], p7[k] = c3+c7, c3-c7
	}
}

func bfly8Run32(p0, p1, p2, p3, p4, p5, p6, p7 []float32) {
	n := len(p0)
	p1 = p1[:n]
	p2 = p2[:n]
	p3 = p3[:n]
	p4 = p4[:n]
	p5 = p5[:n]
	p6 = p6[:n]
	p7 = p7[:n]
	w := n &^ (simdWidth32 - 1)
	if w > 0 {
		vecBfly8x32(&p0[0], &p1[0], &p2[0], &p3[0], &p4[0], &p5[0], &p6[0], &p7[0], w)
	}
	for k := w; k < n; k++ {
		a0, a1, a2, a3 := p0[k], p1[k], p2[k], p3[k]
		a4, a5, a6, a7 := p4[k], p5[k], p6[k], p7[k]
		b0, b1 := a0+a1, a0-a1
		b2, b3 := a2+a3, a2-a3
		b4, b5 := a4+a5, a4-a5
		b6, b7 := a6+a7, a6-a7
		c0, c2 := b0+b2, b0-b2
		c1, c3 := b1+b3, b1-b3
		c4, c6 := b4+b6, b4-b6
		c5, c7 := b5+b7, b5-b7
		p0[k], p4[k] = c0+c4, c0-c4
		p1[k], p5[k] = c1+c5, c1-c5
		p2[k], p6[k] = c2+c6, c2-c6
		p3[k], p7[k] = c3+c7, c3-c7
	}
}

// passes64 runs the butterfly levels h, 2h, ..., len(v)/2 of v in
// increasing order, where len(v)/h is a power of two: h = 1 is a
// contiguous WHT(len(v)), h = s a row of s interleaved transforms.
func passes64(v []float64, h int) {
	n := len(v)
	if h == 1 && n >= simdWidth64 {
		vecHead64(v)
		h = min(n, 4*simdWidth64)
	}
	for ; h%simdWidth64 != 0 && h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				a, b := v[j], v[j+h]
				v[j], v[j+h] = a+b, a-b
			}
		}
	}
	if h >= n {
		return
	}
	if bits.TrailingZeros(uint(n/h))&1 == 1 {
		vecPass2x64(v, h)
		h <<= 1
	}
	for ; h < n; h <<= 2 {
		vecPass4x64(v, h)
	}
}

// passes32 is the float32 pass program.
func passes32(v []float32, h int) {
	n := len(v)
	if h == 1 && n >= simdWidth32 {
		vecHead32(v)
		h = min(n, 4*simdWidth32)
	}
	for ; h%simdWidth32 != 0 && h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				a, b := v[j], v[j+h]
				v[j], v[j+h] = a+b, a-b
			}
		}
	}
	if h >= n {
		return
	}
	if bits.TrailingZeros(uint(n/h))&1 == 1 {
		vecPass2x32(v, h)
		h <<= 1
	}
	for ; h < n; h <<= 2 {
		vecPass4x32(v, h)
	}
}

// SIMDIL is the vector form of GenericIL: s interleaved in-place
// WHT(2^m)s on x[base : base+s*2^m], run as whole passes from h = s.
func SIMDIL(x []float64, base, s, m int) { passes64(x[base:base+s<<uint(m)], s) }

// SIMDIL32 is the float32 vector interleaved kernel.
func SIMDIL32(x []float32, base, s, m int) { passes32(x[base:base+s<<uint(m)], s) }

// SIMDILFused is the vector form of GenericILFused.  The pass program
// already fuses level pairs into radix-4 passes, so it is SIMDIL.
func SIMDILFused(x []float64, base, s, m int) { SIMDIL(x, base, s, m) }

// SIMDILFused32 is the float32 vector fused interleaved kernel.
func SIMDILFused32(x []float32, base, s, m int) { SIMDIL32(x, base, s, m) }

// SIMDILRange is the vector form of GenericILRange: the [kLo, kHi)
// vector sub-range of the s interleaved vectors.
func SIMDILRange(x []float64, base, s, kLo, kHi, m int) {
	n := 1 << uint(m)
	for h := 1; h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				lo := base + j*s
				hi := lo + h*s
				addSubRun(x[lo+kLo:lo+kHi], x[hi+kLo:hi+kHi])
			}
		}
	}
}

// SIMDILRange32 is the float32 vector interleaved range kernel.
func SIMDILRange32(x []float32, base, s, kLo, kHi, m int) {
	n := 1 << uint(m)
	for h := 1; h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				lo := base + j*s
				hi := lo + h*s
				addSubRun32(x[lo+kLo:lo+kHi], x[hi+kLo:hi+kHi])
			}
		}
	}
}

// SIMDILFusedRange is the vector form of GenericILFusedRange: radix-8
// fused passes over the [kLo, kHi) vector sub-range, with the same
// radix-2/radix-4 prologue when m mod 3 != 0.
func SIMDILFusedRange(x []float64, base, s, kLo, kHi, m int) {
	n := 1 << uint(m)
	hj := 1
	switch m % 3 {
	case 1:
		for blk := 0; blk < n; blk += 2 {
			lo := base + blk*s
			hi := lo + s
			addSubRun(x[lo+kLo:lo+kHi], x[hi+kLo:hi+kHi])
		}
		hj = 2
	case 2:
		for blk := 0; blk < n; blk += 4 {
			p0 := base + blk*s
			p1 := p0 + s
			p2 := p1 + s
			p3 := p2 + s
			bfly4Run(x[p0+kLo:p0+kHi], x[p1+kLo:p1+kHi], x[p2+kLo:p2+kHi], x[p3+kLo:p3+kHi])
		}
		hj = 4
	}
	for ; hj < n; hj <<= 3 {
		for blk := 0; blk < n; blk += hj << 3 {
			for j := blk; j < blk+hj; j++ {
				p0 := base + j*s
				p1 := p0 + hj*s
				p2 := p1 + hj*s
				p3 := p2 + hj*s
				p4 := p3 + hj*s
				p5 := p4 + hj*s
				p6 := p5 + hj*s
				p7 := p6 + hj*s
				bfly8Run(
					x[p0+kLo:p0+kHi], x[p1+kLo:p1+kHi], x[p2+kLo:p2+kHi], x[p3+kLo:p3+kHi],
					x[p4+kLo:p4+kHi], x[p5+kLo:p5+kHi], x[p6+kLo:p6+kHi], x[p7+kLo:p7+kHi])
			}
		}
	}
}

// SIMDILFusedRange32 is the float32 vector fused interleaved range
// kernel.
func SIMDILFusedRange32(x []float32, base, s, kLo, kHi, m int) {
	n := 1 << uint(m)
	hj := 1
	switch m % 3 {
	case 1:
		for blk := 0; blk < n; blk += 2 {
			lo := base + blk*s
			hi := lo + s
			addSubRun32(x[lo+kLo:lo+kHi], x[hi+kLo:hi+kHi])
		}
		hj = 2
	case 2:
		for blk := 0; blk < n; blk += 4 {
			p0 := base + blk*s
			p1 := p0 + s
			p2 := p1 + s
			p3 := p2 + s
			bfly4Run32(x[p0+kLo:p0+kHi], x[p1+kLo:p1+kHi], x[p2+kLo:p2+kHi], x[p3+kLo:p3+kHi])
		}
		hj = 4
	}
	for ; hj < n; hj <<= 3 {
		for blk := 0; blk < n; blk += hj << 3 {
			for j := blk; j < blk+hj; j++ {
				p0 := base + j*s
				p1 := p0 + hj*s
				p2 := p1 + hj*s
				p3 := p2 + hj*s
				p4 := p3 + hj*s
				p5 := p4 + hj*s
				p6 := p5 + hj*s
				p7 := p6 + hj*s
				bfly8Run32(
					x[p0+kLo:p0+kHi], x[p1+kLo:p1+kHi], x[p2+kLo:p2+kHi], x[p3+kLo:p3+kHi],
					x[p4+kLo:p4+kHi], x[p5+kLo:p5+kHi], x[p6+kLo:p6+kHi], x[p7+kLo:p7+kHi])
			}
		}
	}
}

// SIMDContig is the vector form of GenericContig: the in-register head
// call, then whole vector passes (see passes64).  Sizes below one
// vector run in Go.
func SIMDContig(x []float64, base, m int) { passes64(x[base:base+1<<uint(m)], 1) }

// SIMDContig32 is the float32 vector contiguous kernel.
func SIMDContig32(x []float32, base, m int) { passes32(x[base:base+1<<uint(m)], 1) }

// The vectorized strided tier.  The full j-row of a strided stage — the
// S strided vectors at bases rowBase+k, k < S, each of stride S — is
// exactly the interleaved layout of that row, so the row vectorizes
// gather-free: every inner access is a unit-stride run of columns
// across the inner index.  A row whose footprint (2^m * s elements)
// fits the chunk target runs as the interleaved pass program; a wider
// row is cut into column chunks, each run by the radix-8 fused
// streaming kernel, so each pass stays cache-resident where the whole
// row would stream.  Chunk seams are column boundaries, and every
// column's add/sub DAG is untouched, so the results are
// bitwise-identical to per-(j,k) strided kernel calls.

// stridedChunkTarget64/32 target the per-chunk footprint of the
// vectorized strided walk in elements (~32 KB per pass).
const (
	stridedChunkTarget64 = 1 << 12
	stridedChunkTarget32 = 1 << 13
)

// stridedChunkCols returns the column-chunk width for a vectorized
// strided row: the footprint target scaled by the kernel size, never
// below one vector, never above the row.
func stridedChunkCols(m, s, width, target int) int {
	c := target >> uint(m)
	if c < width {
		c = width
	}
	if c > s {
		c = s
	}
	return c
}

// SIMDStrided runs one full j-row of a strided stage (all s columns)
// as the interleaved pass program, or chunked when the row is wide.
// Callers gate on s >= SIMDWidth64; smaller rows have no full vector to
// load.
func SIMDStrided(x []float64, base, s, m int) {
	SIMDStridedRange(x, base, s, 0, s, m)
}

// SIMDStridedRange is SIMDStrided restricted to columns [kLo, kHi) —
// the partial-row form the parallel executor hands to workers.  A full
// row that fits in one chunk runs as the interleaved pass program.
func SIMDStridedRange(x []float64, base, s, kLo, kHi, m int) {
	chunk := stridedChunkCols(m, s, simdWidth64, stridedChunkTarget64)
	if chunk == s && kLo == 0 && kHi == s {
		SIMDIL(x, base, s, m)
		return
	}
	for k := kLo; k < kHi; {
		end := k + chunk
		if end > kHi {
			end = kHi
		}
		SIMDILFusedRange(x, base, s, k, end, m)
		k = end
	}
}

// SIMDStrided32 is the float32 vectorized strided row kernel.
func SIMDStrided32(x []float32, base, s, m int) {
	SIMDStridedRange32(x, base, s, 0, s, m)
}

// SIMDStridedRange32 is the float32 partial-row form.
func SIMDStridedRange32(x []float32, base, s, kLo, kHi, m int) {
	chunk := stridedChunkCols(m, s, simdWidth32, stridedChunkTarget32)
	if chunk == s && kLo == 0 && kHi == s {
		SIMDIL32(x, base, s, m)
		return
	}
	for k := kLo; k < kHi; {
		end := k + chunk
		if end > kHi {
			end = kHi
		}
		SIMDILFusedRange32(x, base, s, k, end, m)
		k = end
	}
}
