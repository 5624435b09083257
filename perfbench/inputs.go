package main

import (
	"math"

	"repro/wht"
)

// Every input is a vector of small integers in [-8, 8] drawn from a
// counter-based hash of (seed, stream, index), so any element can be
// regenerated without storing the vector.  Integer inputs keep every
// transform exact: W·x has integer entries of magnitude at most 8·N, and
// W·W = N·I, so after k in-place transforms of x the vector is
// 2^(n·(k-1)/2)·W·x (k odd) or 2^(n·k/2)·x (k even), exactly, until the
// exponent approaches the float type's limit.

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// stream is one seeded vector; element i is a hash of (stream, i).
type stream uint64

func newStream(seed, id uint64) stream { return stream(splitmix(seed ^ id<<32)) }

// at returns element i of the vector, an integer in [-8, 8].
func (s stream) at(i int) float64 { return float64(int(splitmix(uint64(s)+uint64(i))%17) - 8) }

// fill writes elements off.. of s into dst.
func fill[T wht.Float](dst []T, s stream, off int) {
	for i := range dst {
		dst[i] = T(s.at(off + i))
	}
}

// seeded returns the first n elements of s.
func seeded(s stream, n int) []float64 {
	x := make([]float64, n)
	fill(x, s, 0)
	return x
}

// countWrong counts the elements of got that are not bitwise
// want·2^shift.  Scaling an integer-valued float by a power of two is
// exact, so the products are the exact expected values.
func countWrong[T wht.Float](got []T, want []float64, shift int) int {
	scale, bad := math.Ldexp(1, shift), 0
	for i := range got {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(T(want[i]*scale))) {
			bad++
		}
	}
	return bad
}
