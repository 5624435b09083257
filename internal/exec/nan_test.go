package exec

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
	"repro/internal/wht"
)

// The NaN/Inf contract (doc.go): every tier computes bitwise the same
// results on every input, except for the payload bits of NaN outputs.
// Each output of the WHT is a signed sum of every input, so on small
// integers with injected infinities an output is NaN exactly when a NaN
// is injected or both +Inf and -Inf reach it with opposite signs, in any
// grouping of the sums; every other output is an exact integer or an
// infinity.  The grid runs each injection through a generated-kernel
// stage, every loop the scalar bank routes a shape to, the vector tier,
// the batch path and the segmented executor, in both element types,
// against wht.Reference.
func TestNaNInfContractAcrossTiers(t *testing.T) {
	nanInfTiers[float64](t)
	nanInfTiers[float32](t)
}

type nanTier[T Float] struct {
	name string
	n    int
	run  func(t *testing.T, xs [][]T)
}

func nanInfTiers[T Float](t *testing.T) {
	scalar := codelet.Policy{Backend: codelet.ScalarBackend}
	il := codelet.Policy{Backend: codelet.ScalarBackend, ILMinS: 2}
	ilFused := codelet.Policy{Backend: codelet.ScalarBackend, ILMinS: 2, ILFuse: true}
	simd := codelet.Policy{Backend: codelet.SIMDBackend}
	seq := func(p *plan.Node, pol codelet.Policy) func(*testing.T, [][]T) {
		s := CompileWith(p, pol)
		return func(t *testing.T, xs [][]T) {
			for _, x := range xs {
				if err := Run(s, x); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	par := func(p *plan.Node, pol codelet.Policy) func(*testing.T, [][]T) {
		s := CompileWith(p, pol)
		return func(t *testing.T, xs [][]T) {
			for _, x := range xs {
				// Three workers split the wide interleaved stage
				// mid-row, so partial rows run the range kernel.
				if err := RunCtx(context.Background(), s, x, 3); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	batch := func(p *plan.Node, pol codelet.Policy) func(*testing.T, [][]T) {
		s := CompileWith(p, pol)
		return func(t *testing.T, xs [][]T) {
			if err := RunBatch(context.Background(), s, xs, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	seg := func(p *plan.Node, pol codelet.Policy) func(*testing.T, [][]T) {
		g, err := plan.TwoPhase(p, 6)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSegmentedScheduleWith(g, pol)
		if err != nil {
			t.Fatal(err)
		}
		return func(t *testing.T, xs [][]T) {
			for _, x := range xs {
				opt := SegOptions{Workers: 2, ResidentElems: 1 << 8}
				if err := RunSegmented(context.Background(), s, NewSliceStore(x), opt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	p55 := plan.FromStages([]int{5, 5}) // contiguous 2^5, then 2^5 at S = 32
	p82 := plan.FromStages([]int{8, 2}) // contiguous 2^8 (the loop), then 2^2 at S = 256
	wide := plan.Balanced(17, plan.MaxLeafLog)
	tiers := []nanTier[T]{
		{"generated strided+contig", 10, seq(p55, scalar)},
		{"contig loop m=8", 10, seq(p82, scalar)},
		{"il loop", 10, seq(p55, il)},
		{"il-fused loop", 10, seq(p55, ilFused)},
		{"il-range loop", 17, par(wide, scalar)},
		{"il-fused+range loops", 17, par(wide, codelet.Policy{Backend: codelet.ScalarBackend, ILFuse: true})},
		{"simd", 10, seq(p55, simd)},
		{"simd il", 10, seq(p55, codelet.Policy{Backend: codelet.SIMDBackend, ILMinS: 2})},
		{"simd contig m=8", 10, seq(p82, simd)},
		{"simd parallel", 17, par(wide, simd)},
		{"batch scalar", 10, batch(p55, scalar)},
		{"batch simd", 10, batch(p55, simd)},
		{"segmented scalar", 10, seg(p55, scalar)},
		{"segmented simd", 10, seg(p55, simd)},
	}
	rng := rand.New(rand.NewPCG(31, 37))
	for _, tier := range tiers {
		size := 1 << tier.n
		var xs [][]T
		var want [][]float64
		for _, inject := range [][]float64{
			{}, // every output depends on every input: keep one finite vector
			{math.Inf(1)},
			{math.Inf(-1), math.Inf(1)},
			{math.Inf(1), math.Inf(1), math.Inf(-1)},
			{math.NaN()},
			{math.NaN(), math.Inf(-1)},
		} {
			ref := make([]float64, size)
			for i := range ref {
				ref[i] = float64(rng.IntN(9) - 4) // small integers, never -0
			}
			for _, v := range inject {
				ref[rng.IntN(size)] = v
			}
			x := make([]T, size)
			for i, v := range ref {
				x[i] = T(v)
			}
			wht.Reference(ref)
			xs, want = append(xs, x), append(want, ref)
		}
		tier.run(t, xs)
		for v, x := range xs {
			for i, got := range x {
				w, g := want[v][i], float64(got)
				if math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("%T %s: input %d output %d = %v, want %v", got, tier.name, v, i, g, w)
				}
			}
		}
	}
}
