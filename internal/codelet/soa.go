package codelet

// The SoA (structure-of-arrays) kernel tier serves the batch execution
// engine: one kernel call advances a lane of B independent vectors
// through a whole WHT(2^m) base case, with the batch axis as the
// unit-stride innermost dimension.  In SoA layout element j of batch
// vector b lives at x[base + b + j*stride] (lane <= stride), so every
// butterfly level is a sweep of unit-stride runs of length lane: the
// lane amortizes each strided position's cache-line and TLB touch
// across all B vectors — the same trade the interleaved kernels make
// for a stage's k-loop, generalized to a lane width decoupled from the
// stage stride.
//
// The interleaved kernel is the special case lane == stride: a GenericIL
// call on (base, s) equals a GenericSoA call on (base, s, s).  The engine
// keeps both because a batch stage I(R) (x) WHT(2^m) (x) I(S)
// over a lane of B vectors runs at stride S*B with lane B: when S*B is
// large but B is small, the SoA kernel's 2^m-line working set per call
// stays cache-resident while the IL kernel would stream the whole
// 2^m * S * B row per level.

// GenericSoA computes lane interleaved in-place WHT(2^m)s in SoA layout
// (vector b at x[base + b + j*stride]) for any m: one unit-stride lane
// sweep per butterfly pair per level.  It is the scalar SoA kernel: an
// unrolled form measured 0.94-1.51x its time, so none is generated.
func GenericSoA[T Float](x []T, base, stride, lane, m int) {
	n := 1 << uint(m)
	for h := 1; h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				p := base + j*stride
				q := p + h*stride
				lo := x[p : p+lane]
				hi := x[q : q+lane]
				hi = hi[:len(lo)]
				for k := range lo {
					a, b := lo[k], hi[k]
					lo[k] = a + b
					hi[k] = a - b
				}
			}
		}
	}
}
