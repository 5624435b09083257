// Package wht holds the two correctness oracles every engine of the
// library is tested against: Definition, the O(N^2) matrix definition,
// and Reference, the textbook O(N log N) butterfly loop.  Neither
// touches the plan machinery or the compiled executor, so agreement
// with them is independent evidence that a plan, a schedule or an
// executor tier computes the transform.  The tests in this directory
// are the cross-engine equivalence grids: every evaluation path of the
// public API (repro/wht) against these oracles and each other.
package wht

import "math/bits"

// Definition computes the WHT directly from the matrix definition,
// y[i] = sum_j (-1)^popcount(i&j) x[j], in O(N^2).  It is the correctness
// anchor every plan-based evaluation is tested against.
func Definition(x []float64) []float64 {
	n := len(x)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j := 0; j < n; j++ {
			if bits.OnesCount(uint(i&j))&1 == 0 {
				acc += x[j]
			} else {
				acc -= x[j]
			}
		}
		y[i] = acc
	}
	return y
}

// Reference computes the WHT in place with the textbook O(N log N) loop
// nest, independent of the plan machinery.  len(x) must be a power of two.
func Reference(x []float64) {
	n := len(x)
	for h := 1; h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				a, b := x[j], x[j+h]
				x[j] = a + b
				x[j+h] = a - b
			}
		}
	}
}
