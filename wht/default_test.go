package wht_test

import (
	"math"
	"testing"

	"repro/internal/codelet"
	"repro/internal/exec"
	ref "repro/internal/wht"
	"repro/wht"
)

// TestDefaultScheduleBitwise runs the untuned default schedule of every
// size 1..22 through each executor path, float64 and float32, on small
// integer inputs, where every plan computes the exact transform: the
// results must equal internal/wht.Reference bit for bit.
func TestDefaultScheduleBitwise(t *testing.T) {
	wht.ResetTuning()
	defer wht.ResetTuning()
	for n := 1; n <= 22; n++ {
		size := 1 << n
		in := make([]float64, size)
		for i := range in {
			in[i] = float64((i*7+n)%5 - 2)
		}
		want := append([]float64(nil), in...)
		ref.Reference(want)

		s := exec.ForSize(n)
		if def := exec.Compile(exec.DefaultPlan(n, codelet.AutoBackend)); def.String() != s.String() {
			t.Fatalf("n=%d: ForSize serves %s, DefaultPlan compiles to %s", n, s, def)
		}
		check := func(path string, got []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d %s: element %d = %v, want %v", n, path, i, got[i], want[i])
				}
			}
		}
		check32 := func(path string, got []float32) {
			t.Helper()
			for i := range want {
				if float64(got[i]) != want[i] {
					t.Fatalf("n=%d %s float32: element %d = %v, want %v", n, path, i, got[i], want[i])
				}
			}
		}
		run := func(path string, f func(x []float64) error, f32 func(x []float32) error) {
			t.Helper()
			x := append([]float64(nil), in...)
			if err := f(x); err != nil {
				t.Fatalf("n=%d %s: %v", n, path, err)
			}
			check(path, x)
			x32 := make([]float32, size)
			for i, v := range in {
				x32[i] = float32(v)
			}
			if err := f32(x32); err != nil {
				t.Fatalf("n=%d %s float32: %v", n, path, err)
			}
			check32(path, x32)
		}
		run("Run", func(x []float64) error { return exec.Run(s, x) },
			func(x []float32) error { return exec.Run(s, x) })
		run("RunCtx/2", func(x []float64) error { return exec.RunCtx(nil, s, x, 2) },
			func(x []float32) error { return exec.RunCtx(nil, s, x, 2) })
		run("RunStrided", func(x []float64) error { return runStrided2(s, x) },
			func(x []float32) error { return runStrided2(s, x) })
		run("RunBatch", func(x []float64) error {
			y := append([]float64(nil), x...)
			if err := exec.RunBatch(nil, s, [][]float64{x, y}, 0); err != nil {
				return err
			}
			check("RunBatch second vector", y)
			return nil
		}, func(x []float32) error {
			y := append([]float32(nil), x...)
			if err := exec.RunBatch(nil, s, [][]float32{x, y}, 0); err != nil {
				return err
			}
			check32("RunBatch second vector", y)
			return nil
		})
		if n < 2 {
			continue
		}
		// The 2-D transform of a row-major 2^lr x 2^lc matrix is the 1-D
		// transform of length 2^n: H(2^n) = H(2^lr) (x) H(2^lc).
		lr := n / 2
		rows, cols := 1<<lr, 1<<(n-lr)
		x := append([]float64(nil), in...)
		if err := wht.Apply2D(exec.DefaultPlan(n-lr, codelet.AutoBackend), exec.DefaultPlan(lr, codelet.AutoBackend), x); err != nil {
			t.Fatal(err)
		}
		check("Apply2D", x)
		x = append(x[:0], in...)
		if err := wht.Transform2D(x, rows, cols); err != nil {
			t.Fatal(err)
		}
		check("Transform2D", x)
	}
}

// runStrided2 runs s on x through RunStrided at outer stride 2 (x
// interleaved with a second vector), so every stage takes the strided
// kernel fallback, and copies the result back into x.
func runStrided2[T wht.Float](s *exec.Schedule, x []T) error {
	buf := make([]T, 2*len(x))
	for i, v := range x {
		buf[2*i+1] = v
	}
	if err := exec.RunStrided(s, buf, 1, 2); err != nil {
		return err
	}
	for i := range x {
		x[i] = buf[2*i+1]
	}
	return nil
}
