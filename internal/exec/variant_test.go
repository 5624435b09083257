package exec

import (
	"math/rand/v2"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// variantPolicies is the policy grid the equivalence tests sweep: the
// default (contig + il), strided-only (the legacy engine), contig-only,
// and an aggressive interleave-everything policy that exercises the IL
// path on every S > 1 stage.
var variantPolicies = map[string]codelet.Policy{
	"default":      codelet.DefaultPolicy(),
	"strided-only": {StridedOnly: true},
	"contig-only":  {ILMinS: -1},
	"il-all":       {ILMinS: 2},
	"fused":        {ILFuse: true},
	"fused-il-all": {ILMinS: 2, ILFuse: true},
}

// TestVariantDispatchBitwiseEqualsInterpret is the acceptance property of
// the variant engine: under every selection policy, compiled execution —
// sequential, parallel at several worker counts, and batch — stays
// bitwise-equal to the strided tree-walking interpreter, because all
// variants realize the identical butterfly network.
func TestVariantDispatchBitwiseEqualsInterpret(t *testing.T) {
	s := plan.NewSampler(17, plan.MaxLeafLog)
	rng := rand.New(rand.NewPCG(21, 22))
	for _, n := range []int{1, 4, 9, 13, 15} {
		for trial := 0; trial < 6; trial++ {
			p := s.Plan(n)
			x := randomVector(1<<n, rng)
			want := append([]float64(nil), x...)
			if err := Interpret(p, want); err != nil {
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
					assertSame(t, name+"/parallel", n, p, got, want)
				}

				batch := [][]float64{append([]float64(nil), x...), append([]float64(nil), x...)}
				if err := RunBatch(sched, batch); err != nil {
					t.Fatal(err)
				}
				assertSame(t, name+"/batch", n, p, batch[0], want)
				assertSame(t, name+"/batch", n, p, batch[1], want)
			}
		}
	}
}

// Float32 takes the same dispatch paths; sweep it too (the satellite
// property test covers the kernels, this covers the engine wiring).
func TestVariantDispatchFloat32(t *testing.T) {
	s := plan.NewSampler(19, plan.MaxLeafLog)
	rng := rand.New(rand.NewPCG(23, 24))
	for _, n := range []int{3, 10, 14} {
		p := s.Plan(n)
		x := make([]float32, 1<<n)
		for i := range x {
			x[i] = float32(rng.Float64()*2 - 1)
		}
		want := append([]float32(nil), x...)
		if err := Interpret(p, want); err != nil {
			t.Fatal(err)
		}
		for name, pol := range variantPolicies {
			sched, err := NewScheduleWith(p, pol)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]float32(nil), x...)
			MustRun(sched, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d plan %s: float32 index %d = %v, want %v", name, n, p, i, got[i], want[i])
				}
			}
		}
	}
}

// RunStrided at stride 1 must use the variant path and at stride > 1 the
// strided fallback; both must agree with the gathered reference.
func TestVariantRunStrided(t *testing.T) {
	const n = 9
	p := plan.Balanced(n, 4)
	rng := rand.New(rand.NewPCG(25, 26))
	for name, pol := range variantPolicies {
		sched, err := NewScheduleWith(p, pol)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range []struct{ base, stride int }{{0, 1}, {3, 1}, {2, 3}, {1, 8}} {
			buf := randomVector(cs.base+(1<<n-1)*cs.stride+2, rng)
			gathered := make([]float64, 1<<n)
			for i := range gathered {
				gathered[i] = buf[cs.base+i*cs.stride]
			}
			if err := Interpret(p, gathered); err != nil {
				t.Fatal(err)
			}
			if err := RunStrided(sched, buf, cs.base, cs.stride); err != nil {
				t.Fatal(err)
			}
			for i := range gathered {
				if got := buf[cs.base+i*cs.stride]; got != gathered[i] {
					t.Fatalf("%s base=%d stride=%d: index %d strided %v want %v",
						name, cs.base, cs.stride, i, got, gathered[i])
				}
			}
		}
	}
}

// Compile must pick the policy's variant per stage shape.
func TestCompileSelectsVariants(t *testing.T) {
	sched := Compile(plan.MustParse("split[small[4],split[small[2],small[8]]]"))
	wants := []codelet.Variant{
		codelet.Contiguous,  // [I64 x W2^8 x I1]
		codelet.Interleaved, // [I16 x W2^2 x I256]
		codelet.Interleaved, // [I1 x W2^4 x I1024]
	}
	stages := sched.Stages()
	if len(stages) != len(wants) {
		t.Fatalf("%d stages, want %d (%s)", len(stages), len(wants), sched)
	}
	for i, st := range stages {
		if st.V != wants[i] {
			t.Errorf("stage %d (%+v): variant %v, want %v", i, st, st.V, wants[i])
		}
	}
	if got := sched.Policy(); got != codelet.DefaultPolicy() {
		t.Errorf("Policy() = %+v, want default", got)
	}
}

// Tuned-plan registration must round-trip the policy through ForSize.
func TestUseTunedPlanPolicy(t *testing.T) {
	defer ResetTunedPlans()
	ResetTunedPlans()
	const n = 10
	p := plan.RightRecursive(n)
	pol := codelet.Policy{StridedOnly: true}
	if err := UseTunedPlanPolicy(p, pol); err != nil {
		t.Fatal(err)
	}
	if got, ok := TunedPolicy(n); !ok || got != pol {
		t.Fatalf("TunedPolicy(%d) = %+v, %v; want %+v, true", n, got, ok, pol)
	}
	sched := ForSize(n)
	if sched.Policy() != pol {
		t.Fatalf("ForSize compiled under %+v, want %+v", sched.Policy(), pol)
	}
	for _, st := range sched.Stages() {
		if st.V != codelet.Strided {
			t.Fatalf("stage %+v not strided under StridedOnly policy", st)
		}
	}
}

func assertSame(t *testing.T, path string, n int, p *plan.Node, got, want []float64) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d plan %s: index %d = %v, want %v (bitwise)", path, n, p, i, got[i], want[i])
		}
	}
}
