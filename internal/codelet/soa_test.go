package codelet

import (
	"math/rand/v2"
	"testing"
)

// soaBuffer lays out lane random vectors of 2^m elements in SoA order at
// the given stride (lane <= stride): vector b's element j sits at
// base + b + j*stride.  It returns the buffer and the AoS copies of the
// vectors.
func soaBuffer(rng *rand.Rand, m, base, stride, lane int) ([]float64, [][]float64) {
	n := 1 << uint(m)
	x := make([]float64, base+n*stride)
	for i := range x {
		x[i] = rng.Float64()*2 - 1 // slots outside the lanes must stay untouched
	}
	vecs := make([][]float64, lane)
	for b := 0; b < lane; b++ {
		vecs[b] = make([]float64, n)
		for j := 0; j < n; j++ {
			vecs[b][j] = x[base+b+j*stride]
		}
	}
	return x, vecs
}

// TestSoAKernelsBitwiseEqualStrided drives the SoA loop kernel over a
// grid of (m, stride, lane, base) shapes and checks every lane vector
// bitwise against the strided reference kernel applied to an
// AoS copy — the same butterfly network, so equality is exact — and that
// elements outside the lanes are untouched.
func TestSoAKernelsBitwiseEqualStrided(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for m := 1; m <= GeneratedMaxLog+2; m++ {
		for _, sh := range []struct{ stride, lane, base int }{
			{1, 1, 0},
			{3, 3, 5},
			{8, 8, 0},
			{8, 3, 2},
			{17, 17, 1},
			{64, 8, 3},
		} {
			x, vecs := soaBuffer(rng, m, sh.base, sh.stride, sh.lane)
			orig := append([]float64(nil), x...)
			GenericSoA(x, sh.base, sh.stride, sh.lane, m)
			for b := 0; b < sh.lane; b++ {
				want := append([]float64(nil), vecs[b]...)
				Generic(want, 0, 1, m)
				for j := range want {
					if got := x[sh.base+b+j*sh.stride]; got != want[j] {
						t.Fatalf("m=%d stride=%d lane=%d base=%d: vector %d element %d = %g, want %g",
							m, sh.stride, sh.lane, sh.base, b, j, got, want[j])
					}
				}
			}
			n := 1 << uint(m)
			for i := range x {
				off := i - sh.base
				if off >= 0 && off < n*sh.stride && off%sh.stride < sh.lane {
					continue // inside a lane
				}
				if x[i] != orig[i] {
					t.Fatalf("m=%d stride=%d lane=%d base=%d: element %d outside the lanes changed", m, sh.stride, sh.lane, sh.base, i)
				}
			}
		}
	}
}

// TestSoAKernel32BitwiseEqualStrided is the float32 bitwise check.
func TestSoAKernel32BitwiseEqualStrided(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	for m := 1; m <= GeneratedMaxLog+2; m++ {
		for _, sh := range []struct{ stride, lane, base int }{
			{4, 4, 0},
			{16, 5, 7},
		} {
			n := 1 << uint(m)
			x := make([]float32, sh.base+n*sh.stride)
			for i := range x {
				x[i] = float32(rng.Float64()*2 - 1)
			}
			vecs := make([][]float32, sh.lane)
			for b := range vecs {
				vecs[b] = make([]float32, n)
				for j := 0; j < n; j++ {
					vecs[b][j] = x[sh.base+b+j*sh.stride]
				}
			}
			GenericSoA(x, sh.base, sh.stride, sh.lane, m)
			for b := 0; b < sh.lane; b++ {
				want := append([]float32(nil), vecs[b]...)
				Generic(want, 0, 1, m)
				for j := range want {
					if got := x[sh.base+b+j*sh.stride]; got != want[j] {
						t.Fatalf("m=%d stride=%d lane=%d: vector %d element %d = %g, want %g",
							m, sh.stride, sh.lane, b, j, got, want[j])
					}
				}
			}
		}
	}
}

// TestSoAMatchesIL pins the containment relation the engine relies on:
// an SoA call with lane == stride computes exactly what the interleaved
// kernel computes.
func TestSoAMatchesIL(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	for m := 1; m <= GeneratedMaxLog; m++ {
		const s = 12
		n := 1 << uint(m)
		x := randomVector(rng, n*s)
		y := append([]float64(nil), x...)
		GenericSoA(x, 0, s, s, m)
		GenericIL(y, 0, s, m)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("m=%d: SoA(lane=stride=%d) diverges from IL at %d", m, s, i)
			}
		}
	}
}
