package exec

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// soaTestPolicies is the variant-policy grid the SoA equivalence tests
// sweep: the library default, the legacy strided engine, aggressive
// interleaving, and the fused radix-4 interleaved form.
func soaTestPolicies() []codelet.Policy {
	return []codelet.Policy{
		codelet.DefaultPolicy(),
		{StridedOnly: true},
		{ILMinS: 2},
		{ILFuse: true},
	}
}

// soaTestPlan returns a plan for size n whose rightmost leaf is the
// largest unrolled codelet whenever n admits one: a contiguous 2^8
// stage under interleaved stages at large S.
func soaTestPlan(n int) *plan.Node {
	if n > plan.MaxLeafLog {
		return plan.Split(plan.Balanced(n-plan.MaxLeafLog, plan.MaxLeafLog), plan.Leaf(plan.MaxLeafLog))
	}
	return plan.Balanced(n, plan.MaxLeafLog)
}

func randomBatch[T Float](rng *rand.Rand, lane, size int) [][]T {
	xs := make([][]T, lane)
	for b := range xs {
		xs[b] = make([]T, size)
		for j := range xs[b] {
			xs[b][j] = T(rng.Float64()*2 - 1)
		}
	}
	return xs
}

func cloneBatch[T Float](xs [][]T) [][]T {
	out := make([][]T, len(xs))
	for i, x := range xs {
		out[i] = append([]T(nil), x...)
	}
	return out
}

// checkSoAEquivalence runs one (schedule, lane) combination through the
// sequential and parallel SoA paths and demands bitwise equality with
// per-vector Run.
func checkSoAEquivalence[T Float](t *testing.T, s *Schedule, rng *rand.Rand, lane int, label string) {
	t.Helper()
	xs := randomBatch[T](rng, lane, s.Size())
	want := cloneBatch(xs)
	for _, x := range want {
		MustRun(s, x)
	}

	got := cloneBatch(xs)
	if err := RunBatchSoA(s, got); err != nil {
		t.Fatalf("%s: RunBatchSoA: %v", label, err)
	}
	assertBatchEqual(t, label+"/seq", got, want)

	got = cloneBatch(xs)
	if err := RunBatchSoAParallel(s, got, 4); err != nil {
		t.Fatalf("%s: RunBatchSoAParallel: %v", label, err)
	}
	assertBatchEqual(t, label+"/par", got, want)
}

func assertBatchEqual[T Float](t *testing.T, label string, got, want [][]T) {
	t.Helper()
	for b := range want {
		for j := range want[b] {
			if got[b][j] != want[b][j] {
				t.Fatalf("%s: vector %d element %d = %v, want %v (bitwise)", label, b, j, got[b][j], want[b][j])
			}
		}
	}
}

// TestRunBatchSoAEquivalence is the cross-engine property test of the
// SoA batch tier: RunBatchSoA (sequential and parallel) must be
// bitwise-equal to per-vector Run across transform sizes 2..20, batch
// widths {1, 3, 8, 17}, float64 and float32, and the variant-policy
// grid.  Sizes through 12 sweep the full grid; the out-of-cache sizes
// thin the width and policy axes to keep the suite's runtime bounded
// while still covering both element types at every size.
func TestRunBatchSoAEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 141))
	widths := []int{1, 3, 8, 17}
	for n := 2; n <= 20; n++ {
		lanes := widths
		pols := soaTestPolicies()
		if n > 12 {
			lanes = []int{3, 8}
			pols = []codelet.Policy{codelet.DefaultPolicy(), {ILFuse: true}}
		}
		if n > 16 && testing.Short() {
			break
		}
		p := soaTestPlan(n)
		for _, pol := range pols {
			s := CompileWith(p, pol)
			for _, lane := range lanes {
				label := fmt.Sprintf("n=%d/pol=%+v/lane=%d", n, pol, lane)
				checkSoAEquivalence[float64](t, s, rng, lane, label+"/f64")
				if n <= 18 {
					checkSoAEquivalence[float32](t, s, rng, lane, label+"/f32")
				}
			}
		}
	}
}

// TestRunBatchAutoSelectsSoA pins the crossover: a schedule with a
// tuned SoA threshold routes RunBatch through the SoA tier (observable
// only through bitwise-equal results — so the test instead checks the
// selection predicate directly on both the tuned and heuristic paths).
func TestRunBatchAutoSelectsSoA(t *testing.T) {
	s := Compile(plan.Balanced(16, plan.MaxLeafLog))
	if s.SoAMinBatch() != 0 {
		t.Fatalf("fresh schedule has SoAMinBatch %d, want 0", s.SoAMinBatch())
	}
	if !s.soaShapeFavors() {
		t.Fatal("balanced n=16 schedule has a large-stride stage; shape heuristic must favor SoA")
	}
	if s.soaSelect(DefaultSoAMinBatch - 1) {
		t.Fatal("default heuristic selected SoA below DefaultSoAMinBatch")
	}
	if !s.soaSelect(DefaultSoAMinBatch) {
		t.Fatal("default heuristic rejected SoA at DefaultSoAMinBatch")
	}

	s.SetSoAMinBatch(3)
	if !s.soaSelect(3) || s.soaSelect(2) {
		t.Fatal("tuned threshold 3 not honored")
	}
	s.SetSoAMinBatch(-1)
	if s.soaSelect(1 << 20) {
		t.Fatal("negative threshold must disable SoA selection")
	}

	// Small schedules with no large-stride stage stay AoS by default.
	small := Compile(plan.Balanced(6, plan.MaxLeafLog))
	if small.soaSelect(64) {
		t.Fatal("shape heuristic selected SoA for a schedule with no large-stride stage")
	}

	// And RunBatch through the auto-selected SoA path stays bitwise-equal.
	rng := rand.New(rand.NewPCG(9, 27))
	s2 := Compile(plan.Balanced(14, plan.MaxLeafLog))
	s2.SetSoAMinBatch(2)
	xs := randomBatch[float64](rng, 4, s2.Size())
	want := cloneBatch(xs)
	for _, x := range want {
		MustRun(s2, x)
	}
	if err := RunBatch(s2, xs); err != nil {
		t.Fatal(err)
	}
	assertBatchEqual(t, "auto-select", xs, want)
}

// TestRunBatchSoAValidation mirrors the batch API contract: mismatched
// vectors reject the whole batch before anything is transformed.
func TestRunBatchSoAValidation(t *testing.T) {
	s := Compile(plan.Balanced(6, plan.MaxLeafLog))
	if err := RunBatchSoA[float64](nil, nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
	xs := [][]float64{make([]float64, 64), make([]float64, 32)}
	xs[0][0], xs[1][0] = 1, 1
	if err := RunBatchSoA(s, xs); err == nil {
		t.Fatal("mismatched batch accepted")
	}
	if xs[0][1] != 0 {
		t.Fatal("batch partially transformed despite validation error")
	}
	if err := RunBatchSoA(s, [][]float64{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := RunBatchSoAParallel(s, xs, 2); err == nil {
		t.Fatal("parallel: mismatched batch accepted")
	}
}

// TestRunBatchSoAWideBatchSubLanes covers the bounded-scratch path: a
// batch wider than SoAMaxLane is processed as consecutive sub-lanes and
// stays bitwise-equal, and a worker count larger than the batch cannot
// fragment the parallel tier into degenerate single-vector lanes.
func TestRunBatchSoAWideBatchSubLanes(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 5))
	s := Compile(plan.Balanced(8, plan.MaxLeafLog))
	lane := SoAMaxLane + 37 // forces two sub-lanes, the second partial
	xs := randomBatch[float64](rng, lane, s.Size())
	want := cloneBatch(xs)
	for _, x := range want {
		MustRun(s, x)
	}
	got := cloneBatch(xs)
	if err := RunBatchSoA(s, got); err != nil {
		t.Fatal(err)
	}
	assertBatchEqual(t, "wide/seq", got, want)

	got = cloneBatch(xs)
	if err := RunBatchSoAParallel(s, got, 1024); err != nil { // workers >> batch
		t.Fatal(err)
	}
	assertBatchEqual(t, "wide/par", got, want)
}
