package wht_test

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/plan"
	oracle "repro/internal/wht"
	"repro/wht"
)

func randomVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// mustApply is wht.Apply panicking on error, for property closures
// that have no *testing.T.
func mustApply(p *plan.Node, x []float64) {
	if err := wht.Apply(p, x); err != nil {
		panic(err)
	}
}

// runWorkers compiles p and runs it through RunCtx on the given number
// of workers.
func runWorkers(p *plan.Node, x []float64, workers int) error {
	s, err := wht.Compile(p)
	if err != nil {
		return err
	}
	return wht.RunCtx(nil, s, x, workers)
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestReferenceMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for m := 1; m <= 10; m++ {
		x := randomVector(rng, 1<<m)
		want := oracle.Definition(x)
		oracle.Reference(x)
		if d := maxAbsDiff(x, want); d > 1e-9*float64(int(1)<<m) {
			t.Fatalf("m=%d: max diff %g", m, d)
		}
	}
}

func TestApplyCanonicalPlansMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for m := 1; m <= 10; m++ {
		builders := map[string]*plan.Node{
			"iterative": plan.Iterative(m),
			"right":     plan.RightRecursive(m),
			"left":      plan.LeftRecursive(m),
			"balanced":  plan.Balanced(m, 4),
			"radix3":    plan.RadixIterative(m, 3),
		}
		x := randomVector(rng, 1<<m)
		want := oracle.Definition(x)
		for name, p := range builders {
			got := append([]float64(nil), x...)
			if err := wht.Apply(p, got); err != nil {
				t.Fatalf("%s m=%d: %v", name, m, err)
			}
			if d := maxAbsDiff(got, want); d > 1e-9*float64(int(1)<<m) {
				t.Fatalf("%s m=%d: max diff %g", name, m, d)
			}
		}
	}
}

func TestApplyRandomPlansMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	s := plan.NewSampler(11, plan.MaxLeafLog)
	for _, m := range []int{4, 8, 12, 14} {
		x := randomVector(rng, 1<<m)
		want := append([]float64(nil), x...)
		oracle.Reference(want)
		for i := 0; i < 10; i++ {
			p := s.Plan(m)
			got := append([]float64(nil), x...)
			if err := wht.Apply(p, got); err != nil {
				t.Fatalf("m=%d plan %v: %v", m, p, err)
			}
			if d := maxAbsDiff(got, want); d > 1e-8*float64(int(1)<<m) {
				t.Fatalf("m=%d plan %v: max diff %g", m, p, d)
			}
		}
	}
}

func TestApplyRejectsWrongLength(t *testing.T) {
	p := plan.Iterative(4)
	if err := wht.Apply(p, make([]float64, 8)); err == nil {
		t.Error("want length mismatch error")
	}
	if err := wht.Apply(nil, make([]float64, 8)); err == nil {
		t.Error("want nil plan error")
	}
}

func TestTransformDefaultPlan(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	x := randomVector(rng, 256)
	want := oracle.Definition(x)
	if err := wht.Transform(x); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(x, want); d > 1e-9*256 {
		t.Fatalf("max diff %g", d)
	}
	if err := wht.Transform(make([]float64, 3)); err == nil {
		t.Error("non power of two accepted")
	}
	if err := wht.Transform(make([]float64, 1)); err == nil {
		t.Error("length 1 accepted")
	}
}

func TestApplyParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	s := plan.NewSampler(21, plan.MaxLeafLog)
	for _, m := range []int{6, 10, 14} {
		for _, workers := range []int{1, 2, 3, 8} {
			x := randomVector(rng, 1<<m)
			want := append([]float64(nil), x...)
			p := s.Plan(m)
			mustApply(p, want)
			got := append([]float64(nil), x...)
			if err := runWorkers(p, got, workers); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(got, want); d > 1e-9*float64(int(1)<<m) {
				t.Fatalf("m=%d workers=%d plan %v: diff %g", m, workers, p, d)
			}
		}
	}
}

func TestApplyParallelLeafPlan(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	x := randomVector(rng, 64)
	want := oracle.Definition(x)
	if err := runWorkers(plan.Leaf(6), x, 4); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(x, want); d > 1e-9*64 {
		t.Fatalf("diff %g", d)
	}
}

// Row k of the sequency-ordered transform matrix must have exactly k sign
// changes — the defining property of Walsh ordering.  Rows are obtained by
// transforming basis vectors (the matrix is symmetric).
func TestSequencyOrderingSignChanges(t *testing.T) {
	for m := 1; m <= 6; m++ {
		n := 1 << m
		rows := make([][]float64, n)
		for j := 0; j < n; j++ {
			e := make([]float64, n)
			e[j] = 1
			oracle.Reference(e) // column j of the Hadamard matrix = row j (symmetric)
			rows[j] = e
		}
		perm := wht.SequencyPermutation(m)
		for k := 0; k < n; k++ {
			row := rows[perm[k]]
			changes := 0
			for i := 1; i < n; i++ {
				if (row[i] > 0) != (row[i-1] > 0) {
					changes++
				}
			}
			if changes != k {
				t.Fatalf("m=%d: sequency row %d has %d sign changes", m, k, changes)
			}
		}
	}
}

func TestSequencyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for m := 1; m <= 8; m++ {
		x := randomVector(rng, 1<<m)
		back := wht.FromSequency(wht.ToSequency(x))
		if d := maxAbsDiff(x, back); d != 0 {
			t.Fatalf("m=%d: round trip diff %g", m, d)
		}
	}
	// Degenerate length-1 vectors pass through unchanged.
	one := []float64{3.5}
	if got := wht.ToSequency(one); got[0] != 3.5 {
		t.Fatal("length-1 ToSequency")
	}
	if got := wht.FromSequency(one); got[0] != 3.5 {
		t.Fatal("length-1 FromSequency")
	}
}

func TestSequencyPermutationIsPermutation(t *testing.T) {
	for m := 1; m <= 10; m++ {
		perm := wht.SequencyPermutation(m)
		seen := make([]bool, len(perm))
		for _, v := range perm {
			if v < 0 || v >= len(perm) || seen[v] {
				t.Fatalf("m=%d: not a permutation", m)
			}
			seen[v] = true
		}
	}
}

func TestQuickAnyPlanComputesSameTransform(t *testing.T) {
	s := plan.NewSampler(31, plan.MaxLeafLog)
	rng := rand.New(rand.NewPCG(8, 8))
	f := func(rawM uint8, seed uint64) bool {
		m := int(rawM)%10 + 1
		local := rand.New(rand.NewPCG(seed, 5))
		x := randomVector(local, 1<<m)
		want := append([]float64(nil), x...)
		oracle.Reference(want)
		p := s.Plan(m)
		got := append([]float64(nil), x...)
		if err := wht.Apply(p, got); err != nil {
			return false
		}
		return maxAbsDiff(got, want) <= 1e-8*float64(int(1)<<m)
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParsevalThroughPlans(t *testing.T) {
	s := plan.NewSampler(41, plan.MaxLeafLog)
	f := func(rawM uint8, seed uint64) bool {
		m := int(rawM)%9 + 1
		n := 1 << m
		local := rand.New(rand.NewPCG(seed, 6))
		x := randomVector(local, n)
		var in float64
		for _, v := range x {
			in += v * v
		}
		mustApply(s.Plan(m), x)
		var out float64
		for _, v := range x {
			out += v * v
		}
		return math.Abs(out-float64(n)*in) <= 1e-7*float64(n)*math.Max(in, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
