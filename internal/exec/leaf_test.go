package exec

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// The leaf ceiling lives in two packages that cannot import each other:
// plan bounds every leaf by MaxLeafLog, and cmd/whtgen unrolls codelets
// up to GeneratedMaxLog.  The kernel banks are sized by the first and
// filled from the second, so a leaf size without an unrolled codelet
// would run the generic loop kernels.
func TestLeafBoundsAgree(t *testing.T) {
	if plan.MaxLeafLog != codelet.GeneratedMaxLog {
		t.Fatalf("plan.MaxLeafLog = %d, codelet.GeneratedMaxLog = %d: the leaf ceilings disagree",
			plan.MaxLeafLog, codelet.GeneratedMaxLog)
	}
}

// largeLeafPlans returns, for leaf size m, the calling contexts the
// engine serves a leaf in: alone, rightmost (stride-1, the contiguous
// form), leftmost (large S, the interleaved or strided form), and
// sandwiched.
func largeLeafPlans(m int) []*plan.Node {
	return []*plan.Node{
		plan.Leaf(m),
		plan.Split(plan.Leaf(2), plan.Leaf(m)),
		plan.Split(plan.Leaf(m), plan.Leaf(2)),
		plan.Split(plan.Leaf(1), plan.Leaf(m), plan.Leaf(1)),
	}
}

// TestLargeLeafPlansBitwiseEqualInterpret: for the largest leaves in
// every calling context, under every variant policy, compiled execution
// — sequential, parallel, batch — stays bitwise-equal to the
// tree-walking interpreter, in both element types.
func TestLargeLeafPlansBitwiseEqualInterpret(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	for m := plan.MaxLeafLog - 1; m <= plan.MaxLeafLog; m++ {
		for _, p := range largeLeafPlans(m) {
			n := p.Log2Size()
			x := randomVector(1<<n, rng)
			want := append([]float64(nil), x...)
			if err := Interpret(p, want); err != nil {
				t.Fatal(err)
			}
			x32 := make([]float32, 1<<n)
			for i := range x32 {
				x32[i] = float32(rng.Float64()*2 - 1)
			}
			want32 := append([]float32(nil), x32...)
			if err := Interpret(p, want32); err != nil {
				t.Fatal(err)
			}
			for name, pol := range variantPolicies {
				sched, err := NewScheduleWith(p, pol)
				if err != nil {
					t.Fatal(err)
				}
				got := append([]float64(nil), x...)
				MustRun(sched, got)
				assertSame(t, name+"/run", n, p, got, want)

				for _, workers := range []int{2, 5} {
					got = append([]float64(nil), x...)
					if err := runBarrier(nil, sched, got, workers); err != nil {
						t.Fatal(err)
					}
					assertSame(t, fmt.Sprintf("%s/parallel=%d", name, workers), n, p, got, want)
				}

				batch := [][]float64{append([]float64(nil), x...), append([]float64(nil), x...)}
				if err := RunBatch(sched, batch); err != nil {
					t.Fatal(err)
				}
				assertSame(t, name+"/batch", n, p, batch[0], want)
				assertSame(t, name+"/batch", n, p, batch[1], want)

				got32 := append([]float32(nil), x32...)
				MustRun(sched, got32)
				assertBitwise(t, fmt.Sprintf("%s n=%d plan %s float32", name, n, p), want32, got32)
				got32 = append([]float32(nil), x32...)
				if err := runBarrier(nil, sched, got32, 3); err != nil {
					t.Fatal(err)
				}
				assertBitwise(t, fmt.Sprintf("%s n=%d plan %s float32 parallel", name, n, p), want32, got32)
			}
		}
	}
}
