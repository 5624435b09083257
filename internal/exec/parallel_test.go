package exec

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// plansForSize returns the equivalence-grid plans for log-size n: the
// balanced default, and from n = 15 the radix-2^MaxLeafLog plan, which
// has the fewest stages an unrolled-tier plan can have (two at n = 15
// and 16, three up to 24) — a contiguous 2^8 stage feeding full-vector
// interleaved stages.
func plansForSize(n int) []*plan.Node {
	ps := []*plan.Node{plan.Balanced(n, plan.MaxLeafLog)}
	if n >= 15 {
		ps = append(ps, plan.RadixIterative(n, plan.MaxLeafLog))
	}
	return ps
}

// checkParallel runs one parallel entry point on copies of x64 and x32
// and demands bitwise equality with the sequential executor.
func checkParallel(t *testing.T, label string, sched *Schedule, x64 []float64, x32 []float32,
	run64 func([]float64) error, run32 func([]float32) error) {
	t.Helper()
	want64 := append([]float64(nil), x64...)
	MustRun(sched, want64)
	got64 := append([]float64(nil), x64...)
	if err := run64(got64); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, label+" float64", want64, got64)
	want32 := append([]float32(nil), x32...)
	MustRun(sched, want32)
	got32 := append([]float32(nil), x32...)
	if err := run32(got32); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, label+" float32", want32, got32)
}

// TestRunParallelBitwiseEquivalence pins the contract of the parallel
// tier: it is bitwise equal to the sequential executor — not merely
// close.  The barrier subtest runs the fan-out itself (runBarrier, which
// RunCtx only reaches from ParallelMinElems up) across sizes, plan
// shapes, variant policies, worker counts and both element types; run
// under -race it doubles as the memory-model check of the per-stage
// barrier.  The crossover subtest runs RunCtx on both sides of
// ParallelMinElems.
func TestRunParallelBitwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 15))
	input := func(n int) ([]float64, []float32) {
		x64 := randomVector(1<<n, rng)
		x32 := make([]float32, 1<<n)
		for i, v := range x64 {
			x32[i] = float32(v)
		}
		return x64, x32
	}
	t.Run("barrier", func(t *testing.T) {
		policies := []codelet.Policy{
			codelet.DefaultPolicy(),
			{StridedOnly: true},
			{ILMinS: 2},
			{ILFuse: true},
			{ILMinS: 2, ILFuse: true},
		}
		workerGrid := []int{1, 2, 3, 4, 8}
		maxN := 20
		if testing.Short() {
			maxN = 16
		}
		for n := 2; n <= maxN; n++ {
			pols, ws := policies, workerGrid
			if n >= 18 {
				// The big sizes are expensive; two policies and two worker
				// counts still cover the fused/unfused × contended/
				// uncontended corners.
				pols = []codelet.Policy{codelet.DefaultPolicy(), {ILFuse: true}}
				ws = []int{4, 8}
			}
			for _, p := range plansForSize(n) {
				for _, pol := range pols {
					sched, err := NewScheduleWith(p, pol)
					if err != nil {
						t.Fatal(err)
					}
					x64, x32 := input(n)
					for _, workers := range ws {
						checkParallel(t, fmt.Sprintf("n=%d plan %s pol %+v workers %d", n, p, pol, workers), sched, x64, x32,
							func(x []float64) error { return runBarrier(nil, sched, x, workers) },
							func(x []float32) error { return runBarrier(nil, sched, x, workers) })
					}
				}
			}
		}
	})
	t.Run("crossover", func(t *testing.T) {
		c := log2(ParallelMinElems)
		for _, n := range []int{c - 1, c} {
			sched := ForSize(n)
			x64, x32 := input(n)
			for _, workers := range []int{1, 2, 4} {
				checkParallel(t, fmt.Sprintf("n=%d workers %d", n, workers), sched, x64, x32,
					func(x []float64) error { return RunCtx(nil, sched, x, workers) },
					func(x []float32) error { return RunCtx(nil, sched, x, workers) })
			}
		}
	})
}
