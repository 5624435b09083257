package codelet

import "fmt"

// Variant identifies the stage-shape-specialized form of a kernel.  The
// paper's analysis turns on how a stage's (R, 2^m, S) shape drives memory
// behavior: stride-1 leaves stream through cache while large-S stages
// thrash it.  The engine therefore carries three kernel forms per
// log-size and picks one per compiled stage.  Strided kernels are
// unrolled at every log-size and contiguous ones up to
// GeneratedContigMaxLog; contiguous 2^8 and every interleaved stage run
// the Generic* loops, which the unrolled forms do not beat there.
//
//   - Strided: the generic x[base + j*stride] form — works in every
//     calling context (including non-unit outer strides) but is
//     compiler-hostile: every access is a scaled-index load the bounds
//     checker cannot reason about.
//   - Contiguous: the stride-1 specialization.  The kernel slices
//     x[base : base+2^m] once with a constant length, so every butterfly
//     access is a constant index the compiler proves in bounds.
//   - Interleaved: the WHT package's "IL" optimization — one call absorbs
//     the stage's inner k-loop, transforming the S adjacent strided
//     vectors of a j-row together.  Because vector k of a stage lives at
//     x[base + k + j*S], the set of elements {(j', k) : j' fixed-level
//     pair, k < S} is a contiguous run of length h*S, so every inner loop
//     is unit-stride: the stage streams through memory instead of hopping
//     by S per access.
type Variant uint8

const (
	// Strided is the generic x[base + j*stride] kernel form.
	Strided Variant = iota
	// Contiguous is the stride-1 specialization (constant slice indexing).
	Contiguous
	// Interleaved absorbs the inner k-loop: one call transforms S adjacent
	// strided vectors with unit-stride inner access.
	Interleaved

	numVariants
)

// NumVariants is the number of kernel variants the registry carries.
const NumVariants = int(numVariants)

// String returns the short name used in schedule and trace output.
func (v Variant) String() string {
	switch v {
	case Strided:
		return "strided"
	case Contiguous:
		return "contig"
	case Interleaved:
		return "il"
	}
	return fmt.Sprintf("variant(%d)", uint8(v))
}

// DefaultILMinS is the default smallest stage S for which the interleaved
// kernel is selected over the strided one.  Below it the strided codelet's
// register-resident single pass (2 memory ops per element) beats the
// interleaved kernel's m streaming passes (2m memory ops per element),
// because the stage's whole 2^m * S footprint still sits in a few cache
// lines per call; above it the unit-stride streaming wins back the cache
// and TLB misses the strided walk pays.  The value was measured on the
// BenchmarkVariantStages shapes (n = 16..20): thresholds from one cache
// line (8) up to 256 are within ~10% of each other, with 64 the
// consistent optimum at the out-of-cache sizes — and the tuner's policy
// sweep re-decides it per size anyway.
const DefaultILMinS = 64

// Policy selects a kernel variant from a stage's (m, S) shape.  The zero
// value is the library default (contiguous at S == 1, interleaved at
// S >= DefaultILMinS, strided between).  Policies are plain data so the
// tuner can explore them and wisdom files can round-trip the choice.
type Policy struct {
	// ILMinS is the smallest S at which the interleaved variant is chosen.
	// 0 selects DefaultILMinS; a negative value disables the interleaved
	// variant entirely.
	ILMinS int
	// StridedOnly forces the legacy strided kernel for every stage — the
	// benchmark baseline and the escape hatch for contexts the shaped
	// kernels cannot serve.
	StridedOnly bool
	// ILFuse runs interleaved stages through the radix-4 fused streaming
	// kernel (GenericILFused): two butterfly levels per pass instead of
	// one, halving the loads and stores of every interleaved stage while
	// computing the bit-identical results (fusing only regroups the same
	// per-element operation DAG).  Off by default so the default engine
	// matches the single-level kernels the variant benchmarks were
	// calibrated against; the tuner's policy sweep measures it per size.
	ILFuse bool
	// Backend selects the instruction tier the streaming kernels run on
	// (see Backend): the zero value AutoBackend follows the process
	// override and runs SIMD whenever the host supports it, so untuned
	// policies get the vector kernels for free; the tuner's backend
	// sweep pins ScalarBackend when measurement says the scalar forms
	// win a stage shape, and wisdom files round-trip the choice.
	Backend Backend
}

// DefaultPolicy returns the default selection policy (the zero value).
func DefaultPolicy() Policy { return Policy{} }

// Select picks the variant for a stage applying WHT(2^m) kernels at
// stride s (the stage's I(S) factor).
func (p Policy) Select(m, s int) Variant {
	if p.StridedOnly {
		return Strided
	}
	if s == 1 {
		return Contiguous
	}
	min := p.ILMinS
	if min == 0 {
		min = DefaultILMinS
	}
	if min > 0 && s >= min {
		return Interleaved
	}
	return Strided
}

// GenericContig computes an in-place WHT(2^m) on the contiguous vector
// x[base : base+2^m] — the stride-1 loop kernel, which serves contiguous
// stages above GeneratedContigMaxLog.
func GenericContig[T Float](x []T, base, m int) {
	n := 1 << uint(m)
	v := x[base : base+n]
	for h := 1; h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			lo := v[blk : blk+h]
			hi := v[blk+h : blk+2*h]
			hi = hi[:len(lo)]
			for j := range lo {
				a, b := lo[j], hi[j]
				lo[j] = a + b
				hi[j] = a - b
			}
		}
	}
}

// GenericContig32 is GenericContig on float32, kept as a named function
// for callers that take its address or spell the element type.
func GenericContig32(x []float32, base, m int) { GenericContig(x, base, m) }

// GenericIL computes s interleaved in-place WHT(2^m)s on the contiguous
// block x[base : base+s*2^m]: vector k (k < s) occupies the elements
// x[base + k + j*s], j < 2^m.  At butterfly level h the pair (j, j+h)
// across all k is exactly the contiguous run [j*s, (j+h)*s) against
// [(j+h)*s, (j+2h)*s), so every inner loop is unit-stride regardless of s.
// It is the scalar interleaved kernel.
func GenericIL[T Float](x []T, base, s, m int) {
	n := 1 << uint(m)
	v := x[base : base+n*s]
	for h := s; h < n*s; h <<= 1 {
		for blk := 0; blk < n*s; blk += h << 1 {
			lo := v[blk : blk+h]
			hi := v[blk+h : blk+2*h]
			hi = hi[:len(lo)]
			for k := range lo {
				a, b := lo[k], hi[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// GenericILFused is GenericIL with consecutive butterfly levels fused
// into radix-4 streaming passes: each pass reads four contiguous runs,
// applies two levels in registers and writes them back — one load and one
// store per element per two levels, against two of each for the
// single-level kernel.  An odd level count pays one single-level pass
// first.  Fusing regroups, but does not reorder, the per-element
// operation DAG, so the results are bitwise-equal to GenericIL.  It is
// the scalar kernel of interleaved stages compiled under Policy.ILFuse.
func GenericILFused[T Float](x []T, base, s, m int) {
	n := 1 << uint(m)
	v := x[base : base+n*s]
	h := s
	if m&1 == 1 {
		for blk := 0; blk < n*s; blk += h << 1 {
			lo := v[blk : blk+h]
			hi := v[blk+h : blk+2*h]
			hi = hi[:len(lo)]
			for k := range lo {
				a, b := lo[k], hi[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
		h <<= 1
	}
	for ; h < n*s; h <<= 2 {
		for blk := 0; blk < n*s; blk += h << 2 {
			q0 := v[blk : blk+h]
			q1 := v[blk+h : blk+2*h]
			q2 := v[blk+2*h : blk+3*h]
			q3 := v[blk+3*h : blk+4*h]
			q1 = q1[:len(q0)]
			q2 = q2[:len(q0)]
			q3 = q3[:len(q0)]
			for k := range q0 {
				a, b, c, d := q0[k], q1[k], q2[k], q3[k]
				e, f := a+b, a-b
				g, hh := c+d, c-d
				q0[k], q1[k] = e+g, f+hh
				q2[k], q3[k] = e-g, f-hh
			}
		}
	}
}

// GenericILFusedRange is GenericILFused restricted to the vector
// sub-range [kLo, kHi) of the s interleaved vectors — the fused
// counterpart of GenericILRange, and the scalar reference of the
// column-chunked vector strided kernels (SIMDILFusedRange,
// SIMDStridedRange).  It fuses three butterfly levels per pass (radix-8, with
// one radix-2 or radix-4 prologue when m mod 3 != 0), so the column
// slice is streamed ceil(m/3) times where GenericILRange streams it m
// times.  Fusing only regroups the per-element operation DAG — every
// butterfly still combines the same two level-(l-1) values in the same
// lower+upper/lower-upper operand order, and a value grouped into a
// register instead of stored is bitwise the value that would have been
// loaded back — so any grouping computes bitwise the very values
// GenericILFused would: partial and full rows mix freely across worker
// seams and across executor tiers.
func GenericILFusedRange[T Float](x []T, base, s, kLo, kHi, m int) {
	n := 1 << uint(m)
	hj := 1
	switch m % 3 {
	case 1:
		for blk := 0; blk < n; blk += 2 {
			lo := base + blk*s
			hi := lo + s
			for k := kLo; k < kHi; k++ {
				a, b := x[lo+k], x[hi+k]
				x[lo+k] = a + b
				x[hi+k] = a - b
			}
		}
		hj = 2
	case 2:
		for blk := 0; blk < n; blk += 4 {
			p0 := base + blk*s
			p1 := p0 + s
			p2 := p1 + s
			p3 := p2 + s
			for k := kLo; k < kHi; k++ {
				a, b, c, d := x[p0+k], x[p1+k], x[p2+k], x[p3+k]
				e, f := a+b, a-b
				g, hh := c+d, c-d
				x[p0+k], x[p1+k] = e+g, f+hh
				x[p2+k], x[p3+k] = e-g, f-hh
			}
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
				for k := kLo; k < kHi; k++ {
					a0, a1, a2, a3 := x[p0+k], x[p1+k], x[p2+k], x[p3+k]
					a4, a5, a6, a7 := x[p4+k], x[p5+k], x[p6+k], x[p7+k]
					b0, b1 := a0+a1, a0-a1
					b2, b3 := a2+a3, a2-a3
					b4, b5 := a4+a5, a4-a5
					b6, b7 := a6+a7, a6-a7
					c0, c2 := b0+b2, b0-b2
					c1, c3 := b1+b3, b1-b3
					c4, c6 := b4+b6, b4-b6
					c5, c7 := b5+b7, b5-b7
					x[p0+k], x[p4+k] = c0+c4, c0-c4
					x[p1+k], x[p5+k] = c1+c5, c1-c5
					x[p2+k], x[p6+k] = c2+c6, c2-c6
					x[p3+k], x[p7+k] = c3+c7, c3-c7
				}
			}
		}
	}
}

// GenericILRange is GenericIL restricted to the vector sub-range
// [kLo, kHi) of the s interleaved vectors — the splitting primitive the
// parallel executor uses when a worker's share of an interleaved stage
// covers only part of a j-row.  The inner loops stay unit-stride (runs of
// kHi-kLo adjacent elements).
func GenericILRange[T Float](x []T, base, s, kLo, kHi, m int) {
	n := 1 << uint(m)
	for h := 1; h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				lo := base + j*s
				hi := lo + h*s
				for k := kLo; k < kHi; k++ {
					a, b := x[lo+k], x[hi+k]
					x[lo+k] = a + b
					x[hi+k] = a - b
				}
			}
		}
	}
}
