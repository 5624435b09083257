package exec

import (
	"math"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// TestRunAllocFree pins allocation-free dispatch: a sequential Run of a
// default schedule builds its kernel table on the stack and takes the
// kernel sets from the process-wide banks, so it allocates nothing on
// either backend — also above one cache block (n > cacheBlockLog), where
// the blocked prefix and the paneled wide rows run.
func TestRunAllocFree(t *testing.T) {
	defer codelet.SetBackend(codelet.ActiveBackend())
	for _, b := range []codelet.Backend{codelet.AutoBackend, codelet.ScalarBackend} {
		codelet.SetBackend(b)
		for n := 6; n <= 20; n++ {
			runs := 10
			if n > 16 {
				runs = 2 // milliseconds per run; a per-run allocation shows at any count
			}
			// The default schedule, and the radix-2^MaxLeafLog one that
			// runs the largest leaf at every stage.
			for _, s := range []*Schedule{ForSize(n), Compile(plan.RadixIterative(n, plan.MaxLeafLog))} {
				x := make([]float64, 1<<n)
				x32 := make([]float32, 1<<n)
				if a := testing.AllocsPerRun(runs, func() { MustRun(s, x) }); a != 0 {
					t.Errorf("%v n=%d %s float64: %v allocs per Run, want 0", b, n, s, a)
				}
				if a := testing.AllocsPerRun(runs, func() { MustRun(s, x32) }); a != 0 {
					t.Errorf("%v n=%d %s float32: %v allocs per Run, want 0", b, n, s, a)
				}
			}
		}
	}
}

// TestKernelTableIsStatic pins the kernel table's single source: every
// leaf size a plan may carry, on every backend pin, resolves to the one
// process-wide kernel set of its bank — no per-run resolution, so two
// runs of any schedule dispatch the same kernels.
func TestKernelTableIsStatic(t *testing.T) {
	kt := newKernelTable[float64](nil)
	var scalar kernelTable[float32]
	for m := 1; m <= plan.MaxLeafLog; m++ {
		if got, want := scalar.get(m, codelet.ScalarBackend), &unrolled32[0][m]; got != want {
			t.Errorf("float32 m=%d scalar: set %p, want bank entry %p", m, got, want)
		}
		for _, b := range []codelet.Backend{codelet.AutoBackend, codelet.ScalarBackend, codelet.SIMDBackend} {
			first := kt.get(m, b)
			if first != &unrolled64[0][m] && first != &unrolled64[1][m] {
				t.Errorf("m=%d %v: set %p is not a bank entry", m, b, first)
			}
			if again := newKernelTable[float64](nil); again.get(m, b) != first {
				t.Errorf("m=%d %v: a second table resolves a different set", m, b)
			}
			if first.strided == nil || first.contig == nil || first.il == nil || first.ilFused == nil || first.ilRange == nil {
				t.Errorf("m=%d %v: kernel set has a nil slot", m, b)
			}
		}
	}
}

// assertBitwise fails unless got and want agree bit for bit (the values
// are finite, so converting float32 to float64 keeps every bit).
func assertBitwise[T Float](t *testing.T, label string, want, got []T) {
	t.Helper()
	for i := range want {
		if math.Float64bits(float64(want[i])) != math.Float64bits(float64(got[i])) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}
