package wht_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	oracle "repro/internal/wht"
	"repro/wht"
)

// Cross-engine equivalence: on randomized rsu-sampled plans for sizes
// 2^1..2^16, the compiled executor (Apply), the tree-walking interpreter
// it replaced (exec.Interpret), RunCtx on several workers and RunBatch
// must all agree with each other and with the matrix definition.
//
// Compiled-vs-walker is checked bitwise (flattening only reorders kernel
// calls across disjoint strided vectors); engine-vs-definition is checked
// to 1e-9 relative for float64.  The O(N^2) definition is evaluated
// directly up to 2^11 and through the independently verified O(N log N)
// Reference loop beyond that.

const maxEquivalenceLog = 16

func refTransform(x []float64) []float64 {
	if len(x) <= 1<<11 {
		return oracle.Definition(x)
	}
	y := append([]float64(nil), x...)
	oracle.Reference(y)
	return y
}

// runBatch compiles p and runs the batch through RunBatch on the given
// number of workers.
func runBatch[T wht.Float](p *plan.Node, xs [][]T, workers int) error {
	s, err := wht.Compile(p)
	if err != nil {
		return err
	}
	return wht.RunBatch(nil, s, xs, workers)
}

func TestCrossEngineEquivalenceFloat64(t *testing.T) {
	s := plan.NewSampler(20070122, plan.MaxLeafLog)
	rng := rand.New(rand.NewPCG(64, 64))
	for n := 1; n <= maxEquivalenceLog; n++ {
		trials := 6
		if n > 12 {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			p := s.Plan(n)
			x := make([]float64, 1<<n)
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			want := refTransform(x)
			norm := 0.0
			for _, v := range want {
				if a := math.Abs(v); a > norm {
					norm = a
				}
			}
			if norm == 0 {
				norm = 1
			}

			compiled := append([]float64(nil), x...)
			if err := wht.Apply(p, compiled); err != nil {
				t.Fatal(err)
			}
			walked := append([]float64(nil), x...)
			if err := exec.Interpret(p, walked); err != nil {
				t.Fatal(err)
			}
			par := append([]float64(nil), x...)
			if err := runWorkers(p, par, 4); err != nil {
				t.Fatal(err)
			}
			batch := [][]float64{append([]float64(nil), x...), append([]float64(nil), x...)}
			if err := runBatch(p, batch, 2); err != nil {
				t.Fatal(err)
			}

			for i := range want {
				if math.Abs(compiled[i]-want[i]) > 1e-9*norm {
					t.Fatalf("n=%d plan %s: compiled[%d]=%v definition=%v", n, p, i, compiled[i], want[i])
				}
				if walked[i] != compiled[i] {
					t.Fatalf("n=%d plan %s: walker[%d]=%v compiled=%v (must be bitwise equal)",
						n, p, i, walked[i], compiled[i])
				}
				if par[i] != compiled[i] {
					t.Fatalf("n=%d plan %s: parallel[%d]=%v compiled=%v", n, p, i, par[i], compiled[i])
				}
				if batch[0][i] != compiled[i] || batch[1][i] != compiled[i] {
					t.Fatalf("n=%d plan %s: batch[%d] diverges from compiled", n, p, i)
				}
			}
		}
	}
}

func TestCrossEngineEquivalenceFloat32(t *testing.T) {
	s := plan.NewSampler(19991231, plan.MaxLeafLog)
	rng := rand.New(rand.NewPCG(32, 32))
	for n := 1; n <= maxEquivalenceLog; n++ {
		trials := 4
		if n > 12 {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			p := s.Plan(n)
			x64 := make([]float64, 1<<n)
			x32 := make([]float32, 1<<n)
			for i := range x64 {
				v := rng.Float64()*2 - 1
				x64[i] = float64(float32(v))
				x32[i] = float32(v)
			}
			want := refTransform(x64)
			norm := 0.0
			for _, v := range want {
				if a := math.Abs(v); a > norm {
					norm = a
				}
			}
			if norm == 0 {
				norm = 1
			}

			compiled := append([]float32(nil), x32...)
			if err := wht.Apply(p, compiled); err != nil {
				t.Fatal(err)
			}
			walked := append([]float32(nil), x32...)
			if err := exec.Interpret(p, walked); err != nil {
				t.Fatal(err)
			}
			batch := [][]float32{append([]float32(nil), x32...)}
			if err := runBatch(p, batch, 1); err != nil {
				t.Fatal(err)
			}

			// float32 accumulates one rounding per butterfly level.
			tol := float64(n+1) * 1e-6 * norm
			for i := range want {
				if math.Abs(float64(compiled[i])-want[i]) > tol {
					t.Fatalf("n=%d plan %s: compiled32[%d]=%v definition=%v", n, p, i, compiled[i], want[i])
				}
				if walked[i] != compiled[i] {
					t.Fatalf("n=%d plan %s: walker32[%d]=%v compiled32=%v (must be bitwise equal)",
						n, p, i, walked[i], compiled[i])
				}
				if batch[0][i] != compiled[i] {
					t.Fatalf("n=%d plan %s: batch32[%d] diverges from compiled", n, p, i)
				}
			}
		}
	}
}
