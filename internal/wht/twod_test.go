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

func TestApplyStridedMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 9))
	s := plan.NewSampler(3, plan.MaxLeafLog)
	for _, tc := range []struct{ m, base, stride int }{
		{4, 0, 1}, {4, 3, 2}, {6, 1, 3}, {8, 7, 5},
	} {
		p := s.Plan(tc.m)
		n := 1 << tc.m
		buf := randomVector(rng, tc.base+(n-1)*tc.stride+2)
		gathered := make([]float64, n)
		for j := 0; j < n; j++ {
			gathered[j] = buf[tc.base+j*tc.stride]
		}
		want := oracle.Definition(gathered)
		if err := exec.RunStrided(exec.Compile(p), buf, tc.base, tc.stride); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if math.Abs(buf[tc.base+j*tc.stride]-want[j]) > 1e-9*float64(n) {
				t.Fatalf("m=%d base=%d stride=%d: element %d", tc.m, tc.base, tc.stride, j)
			}
		}
	}
}

func TestApplyStridedBounds(t *testing.T) {
	s := exec.Compile(plan.Leaf(4))
	x := make([]float64, 16)
	if err := exec.RunStrided(s, x, 0, 2); err == nil {
		t.Error("out-of-bounds stride accepted")
	}
	if err := exec.RunStrided(s, x, -1, 1); err == nil {
		t.Error("negative base accepted")
	}
	if err := exec.RunStrided(s, x, 0, 0); err == nil {
		t.Error("zero stride accepted")
	}
	if err := exec.RunStrided(nil, x, 0, 1); err == nil {
		t.Error("nil schedule accepted")
	}
	if err := exec.RunStrided(s, x, 0, 1); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
}

func TestInverseRecoversInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 9))
	s := plan.NewSampler(5, plan.MaxLeafLog)
	for _, m := range []int{1, 4, 9} {
		x := randomVector(rng, 1<<m)
		orig := append([]float64(nil), x...)
		p := s.Plan(m)
		mustApply(p, x)
		if err := wht.Inverse(s.Plan(m), x); err != nil { // a different plan inverts equally well
			t.Fatal(err)
		}
		if d := maxAbsDiff(x, orig); d > 1e-10*float64(int(1)<<m) {
			t.Fatalf("m=%d: inverse diff %g", m, d)
		}
	}
}

// The 2-D transform must match the definition applied to rows then
// columns via explicit gathers.
func TestApply2DMatchesSeparableDefinition(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, tc := range []struct{ lr, lc int }{{2, 3}, {3, 3}, {4, 2}, {1, 5}} {
		rows, cols := 1<<tc.lr, 1<<tc.lc
		x := randomVector(rng, rows*cols)

		want := append([]float64(nil), x...)
		for i := 0; i < rows; i++ {
			row := oracle.Definition(want[i*cols : (i+1)*cols])
			copy(want[i*cols:(i+1)*cols], row)
		}
		for j := 0; j < cols; j++ {
			col := make([]float64, rows)
			for i := 0; i < rows; i++ {
				col[i] = want[i*cols+j]
			}
			col = oracle.Definition(col)
			for i := 0; i < rows; i++ {
				want[i*cols+j] = col[i]
			}
		}

		got := append([]float64(nil), x...)
		if err := wht.Transform2D(got, rows, cols); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-8*float64(rows*cols) {
			t.Fatalf("%dx%d: diff %g", rows, cols, d)
		}
	}
}

// Separability: WHT2D of an outer product is the outer product of the 1-D
// transforms.
func TestApply2DSeparability(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 9))
	const lr, lc = 3, 4
	rows, cols := 1<<lr, 1<<lc
	u := randomVector(rng, rows)
	v := randomVector(rng, cols)
	x := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x[i*cols+j] = u[i] * v[j]
		}
	}
	if err := wht.Apply2D(plan.Balanced(lc, 4), plan.Balanced(lr, 4), x); err != nil {
		t.Fatal(err)
	}
	tu, tv := oracle.Definition(u), oracle.Definition(v)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			want := tu[i] * tv[j]
			if math.Abs(x[i*cols+j]-want) > 1e-8*float64(rows*cols) {
				t.Fatalf("separability fails at (%d,%d): %g vs %g", i, j, x[i*cols+j], want)
			}
		}
	}
}

func TestApply2DErrors(t *testing.T) {
	if err := wht.Apply2D(nil, plan.Leaf(2), make([]float64, 8)); err == nil {
		t.Error("nil plan accepted")
	}
	if err := wht.Apply2D(plan.Leaf(2), plan.Leaf(2), make([]float64, 8)); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := wht.Transform2D(make([]float64, 12), 3, 4); err == nil {
		t.Error("non-power-of-two rows accepted")
	}
}
