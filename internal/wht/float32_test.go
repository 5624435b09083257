package wht_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/plan"
	"repro/wht"
)

func TestApply32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	s := plan.NewSampler(55, plan.MaxLeafLog)
	for _, m := range []int{1, 4, 8, 12} {
		n := 1 << m
		x64 := randomVector(rng, n)
		x32 := make([]float32, n)
		for i, v := range x64 {
			x32[i] = float32(v)
		}
		p := s.Plan(m)
		mustApply(p, x64)
		if err := wht.Apply(p, x32); err != nil {
			t.Fatal(err)
		}
		for i := range x64 {
			if math.Abs(float64(x32[i])-x64[i]) > 1e-3*float64(n) {
				t.Fatalf("m=%d plan %v: element %d: %g vs %g", m, p, i, x32[i], x64[i])
			}
		}
	}
}

func TestApply32LargeLeafUsesKernel(t *testing.T) {
	// Size-256 leaf exercises the largest generated float32 codelet.
	n := 256
	x := make([]float32, n)
	x[0] = 1
	if err := wht.Apply(plan.Leaf(8), x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v != 1 {
			t.Fatalf("impulse response at %d = %g", i, v)
		}
	}
}

func TestTransform32(t *testing.T) {
	x := make([]float32, 128)
	x[5] = 2
	if err := wht.Transform32(x); err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 2 && v != -2 {
			t.Fatalf("coefficient %g", v)
		}
	}
	if err := wht.Transform32(make([]float32, 3)); err == nil {
		t.Fatal("non power of two accepted")
	}
	if err := wht.Apply(nil, x); err == nil {
		t.Fatal("nil plan accepted")
	}
	if err := wht.Apply(plan.Leaf(2), x); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestApply32Involution(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 21))
	const m = 10
	n := 1 << m
	x := make([]float32, n)
	orig := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.Float64()*2 - 1)
		orig[i] = x[i]
	}
	p := plan.Balanced(m, 6)
	if err := wht.Apply(p, x); err != nil {
		t.Fatal(err)
	}
	if err := wht.Apply(p, x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if diff := float64(x[i]/float32(n) - orig[i]); math.Abs(diff) > 1e-3 {
			t.Fatalf("involution at %d: diff %g", i, diff)
		}
	}
}
