package codelet

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

// definition computes y[i] = sum_j (-1)^popcount(i&j) x[j], the WHT in
// natural (Hadamard) order, directly from the matrix definition.
func definition(x []float64) []float64 {
	n := len(x)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j := 0; j < n; j++ {
			if bits.OnesCount(uint(i&j))%2 == 0 {
				acc += x[j]
			} else {
				acc -= x[j]
			}
		}
		y[i] = acc
	}
	return y
}

func randomVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestGenericMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for m := 0; m <= 10; m++ {
		x := randomVector(rng, 1<<m)
		want := definition(x)
		got := append([]float64(nil), x...)
		Generic(got, 0, 1, m)
		if !almostEqual(got, want, 1e-9*float64(int(1)<<m)) {
			t.Fatalf("Generic m=%d does not match the definition", m)
		}
	}
}

func TestKernelsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for m := 1; m <= GeneratedMaxLog; m++ {
		k := For(m)
		if k == nil {
			t.Fatalf("missing kernel for m=%d", m)
		}
		x := randomVector(rng, 1<<m)
		want := definition(x)
		got := append([]float64(nil), x...)
		k(got, 0, 1)
		if !almostEqual(got, want, 1e-9*float64(int(1)<<m)) {
			t.Fatalf("kernel m=%d does not match the definition", m)
		}
	}
}

func TestKernelsStrided(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for m := 1; m <= GeneratedMaxLog; m++ {
		for _, stride := range []int{1, 2, 3, 7, 16} {
			for _, base := range []int{0, 1, 5} {
				n := 1 << m
				buf := randomVector(rng, base+n*stride+3)
				orig := append([]float64(nil), buf...)

				// Reference: gather, transform, scatter.
				gathered := make([]float64, n)
				for j := 0; j < n; j++ {
					gathered[j] = buf[base+j*stride]
				}
				want := definition(gathered)

				For(m)(buf, base, stride)

				for j := 0; j < n; j++ {
					if math.Abs(buf[base+j*stride]-want[j]) > 1e-9*float64(n) {
						t.Fatalf("m=%d stride=%d base=%d: element %d wrong", m, stride, base, j)
					}
				}
				// Everything off the strided lattice must be untouched.
				onLattice := make(map[int]bool, n)
				for j := 0; j < n; j++ {
					onLattice[base+j*stride] = true
				}
				for i := range buf {
					if !onLattice[i] && buf[i] != orig[i] {
						t.Fatalf("m=%d stride=%d base=%d: off-lattice element %d modified", m, stride, base, i)
					}
				}
			}
		}
	}
}

func TestForOutOfRange(t *testing.T) {
	if For(0) != nil || For(GeneratedMaxLog+1) != nil || For(-3) != nil {
		t.Error("For must return nil outside [1, GeneratedMaxLog]")
	}
}

// WHT is an involution up to scale: WHT(WHT(x)) = 2^m * x.
func TestQuickInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	f := func(rawM uint8, seed uint64) bool {
		m := int(rawM)%GeneratedMaxLog + 1
		local := rand.New(rand.NewPCG(seed, 99))
		x := randomVector(local, 1<<m)
		y := append([]float64(nil), x...)
		k := For(m)
		k(y, 0, 1)
		k(y, 0, 1)
		scale := float64(int(1) << m)
		for i := range x {
			if math.Abs(y[i]-scale*x[i]) > 1e-9*scale {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Linearity: WHT(a*x + y) = a*WHT(x) + WHT(y).
func TestQuickLinearity(t *testing.T) {
	f := func(rawM uint8, seed uint64) bool {
		m := int(rawM)%GeneratedMaxLog + 1
		n := 1 << m
		local := rand.New(rand.NewPCG(seed, 1234))
		x := randomVector(local, n)
		y := randomVector(local, n)
		a := local.Float64()*4 - 2

		combo := make([]float64, n)
		for i := range combo {
			combo[i] = a*x[i] + y[i]
		}
		k := For(m)
		k(combo, 0, 1)
		k(x, 0, 1)
		k(y, 0, 1)
		for i := range combo {
			if math.Abs(combo[i]-(a*x[i]+y[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Parseval up to scale: sum WHT(x)^2 = 2^m * sum x^2.
func TestQuickEnergy(t *testing.T) {
	f := func(rawM uint8, seed uint64) bool {
		m := int(rawM)%GeneratedMaxLog + 1
		n := 1 << m
		local := rand.New(rand.NewPCG(seed, 777))
		x := randomVector(local, n)
		var inEnergy float64
		for _, v := range x {
			inEnergy += v * v
		}
		For(m)(x, 0, 1)
		var outEnergy float64
		for _, v := range x {
			outEnergy += v * v
		}
		return math.Abs(outEnergy-float64(n)*inEnergy) <= 1e-7*float64(n)*math.Max(inEnergy, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The impulse response of the WHT is the all-ones row: WHT(e_0) = 1^n.
func TestImpulseResponse(t *testing.T) {
	for m := 1; m <= GeneratedMaxLog; m++ {
		n := 1 << m
		x := make([]float64, n)
		x[0] = 1
		For(m)(x, 0, 1)
		for i, v := range x {
			if v != 1 {
				t.Fatalf("m=%d: WHT(e_0)[%d] = %v, want 1", m, i, v)
			}
		}
	}
}

// BenchmarkKernelVsLoop is the evidence for which forms cmd/whtgen
// unrolls: each generated kernel (strided m = 1..8 at stage stride 4,
// contiguous m = 1..7) beside the Generic* loop of the same shape, plus
// the loops the engine routes the other shapes to (contiguous m = 8,
// interleaved, fused interleaved and the interleaved range at s = 64),
// each op one stage over 2^14 elements of float64 and float32:
//
//	go test -run '^$' -bench KernelVsLoop ./internal/codelet
func BenchmarkKernelVsLoop(b *testing.B) {
	benchKernelVsLoop(b, "f64", For, ForContig)
	benchKernelVsLoop(b, "f32", For32, ForContig32)
}

func benchKernelVsLoop[T Float, K ~func([]T, int, int), C ~func([]T, int)](b *testing.B, elem string, strided func(int) K, contig func(int) C) {
	x := make([]T, 1<<14) // zeros: repeated transforms stay finite
	run := func(name string, blk int, call func(base int)) {
		b.Run(elem+"/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(x)) * int64(unsafe.Sizeof(x[0])))
			for i := 0; i < b.N; i++ {
				for base := 0; base < len(x); base += blk {
					call(base)
				}
			}
		})
	}
	const s, il = 4, 64
	row := func(k func(base int)) func(int) { // the s strided calls of a j-row
		return func(base int) {
			for j := 0; j < s; j++ {
				k(base + j)
			}
		}
	}
	for m := 1; m <= GeneratedMaxLog; m++ {
		ms := "/m=" + strconv.Itoa(m)
		if k := strided(m); k != nil {
			run("strided"+ms+"/gen", s<<m, row(func(base int) { k(x, base, s) }))
		}
		run("strided"+ms+"/loop", s<<m, row(func(base int) { Generic(x, base, s, m) }))
		if k := contig(m); k != nil {
			run("contig"+ms+"/gen", 1<<m, func(base int) { k(x, base) })
		}
		run("contig"+ms+"/loop", 1<<m, func(base int) { GenericContig(x, base, m) })
		run("il"+ms+"/loop", il<<m, func(base int) { GenericIL(x, base, il, m) })
		run("ilfused"+ms+"/loop", il<<m, func(base int) { GenericILFused(x, base, il, m) })
		run("ilrange"+ms+"/loop", il<<m, func(base int) { GenericILRange(x, base, il, 0, il, m) })
	}
}
