package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// The panic-isolation suite: a panic in any kernel chunk — injected
// through the fault harness at the exact points real kernel faults
// would surface — must come back as a *PanicError (matching
// ErrKernelPanic through errors.Is) instead of unwinding a pool
// goroutine, and the pool must be fully drained and reusable for the
// next call on every tier.

func TestPanicSequential(t *testing.T) {
	defer faultinject.Reset()
	const n = 16
	s := ctxSched(t, n)
	faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(2, "injected kernel fault"))
	x := ctxInput(n, 1)
	err := RunCtx(context.Background(), s, x, 1)
	assertPanicError(t, err, "sequential")
	faultinject.Reset()
	rerunClean(t, s, n, func(y []float64) error { return RunCtx(context.Background(), s, y, 1) })

	// Above one cache block the blocked prefix runs block by block,
	// every stage of a block as one contained chunk: the k-th chunk is
	// stage (k-1) mod p of block (k-1)/p, and the panic must name it.
	const nb = cacheBlockLog + 1
	sb := ctxSched(t, nb)
	p := blockedPrefix(sb)
	if p < 2 {
		t.Fatalf("%s: blocked prefix %d, want at least two stages", sb, p)
	}
	faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(p+2, "injected kernel fault"))
	err = RunCtx(context.Background(), sb, ctxInput(nb, 3), 1)
	assertPanicError(t, err, "sequential prefix")
	var pe *PanicError
	if errors.As(err, &pe); pe.Stage != 1 {
		t.Fatalf("chunk %d (block 1, stage 1) panicked as stage %d", p+2, pe.Stage)
	}
	faultinject.Reset()
	rerunClean(t, sb, nb, func(y []float64) error { return RunCtx(context.Background(), sb, y, 1) })
}

// The barrier cases call runBarrier directly: at n = 16 RunCtx runs
// inline (below ParallelMinElems), and the fan-out path is what
// must drain its pool after a worker panics.
func TestPanicBarrier(t *testing.T) {
	defer faultinject.Reset()
	const n = 16
	s := ctxSched(t, n)
	faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(3, "injected kernel fault"))
	x := ctxInput(n, 2)
	err := runBarrier(context.Background(), s, x, 4)
	assertPanicError(t, err, "barrier")
	faultinject.Reset()
	rerunClean(t, s, n, func(y []float64) error {
		return runBarrier(context.Background(), s, y, 4)
	})

	// Above one cache block the fan-out starts with the blocked prefix,
	// whose workers take blocks without barriers: a fault there must
	// drain them all and name a prefix stage.
	const nb = cacheBlockLog + 2
	sb := ctxSched(t, nb)
	p := blockedPrefix(sb)
	if p < 2 {
		t.Fatalf("%s: blocked prefix %d, want at least two stages", sb, p)
	}
	faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(p+1, "injected kernel fault"))
	err = runBarrier(context.Background(), sb, ctxInput(nb, 4), 4)
	assertPanicError(t, err, "barrier prefix")
	var pe *PanicError
	if errors.As(err, &pe); pe.Stage < 0 || pe.Stage >= p {
		t.Fatalf("fault in the prefix named stage %d, want one of the %d prefix stages", pe.Stage, p)
	}
	faultinject.Reset()
	rerunClean(t, sb, nb, func(y []float64) error {
		return runBarrier(context.Background(), sb, y, 4)
	})
}

// The nil-ctx paths must contain panics too: the fan-out with a nil ctx
// and RunCtx's inline path below the crossover.
func TestPanicBarrierNonCtx(t *testing.T) {
	defer faultinject.Reset()
	const n = 16
	s := ctxSched(t, n)
	faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(1, "injected kernel fault"))
	x := ctxInput(n, 8)
	err := runBarrier(nil, s, x, 4)
	assertPanicError(t, err, "barrier non-ctx")
	faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(1, "injected kernel fault"))
	err = RunCtx(nil, s, x, 4)
	assertPanicError(t, err, "RunCtx inline nil ctx")
}

func TestPanicBatchVector(t *testing.T) {
	defer faultinject.Reset()
	const n = 14
	s := layoutSched(t, n, false)
	faultinject.Set(faultinject.ExecBatchVector, faultinject.PanicAfter(5, "injected kernel fault"))
	xs := ctxBatch(n)
	err := RunBatch(context.Background(), s, xs, 4)
	assertPanicError(t, err, "batch")
	faultinject.Reset()
	xs2 := ctxBatch(n)
	want := ctxRef(t, s, xs2[5])
	if err := RunBatch(context.Background(), s, xs2, 4); err != nil {
		t.Fatalf("batch rerun after panic: %v", err)
	}
	for i, v := range want {
		if xs2[5][i] != v {
			t.Fatalf("batch rerun: vector 5 wrong at %d", i)
		}
	}
}

func TestPanicSoALane(t *testing.T) {
	defer faultinject.Reset()
	const n = 14
	s := layoutSched(t, n, true)
	faultinject.Set(faultinject.ExecSoALane, faultinject.PanicAfter(1, "injected kernel fault"))
	xs := ctxBatch(n)
	err := RunBatch(context.Background(), s, xs, 1)
	assertPanicError(t, err, "soa")
	faultinject.Reset()
	xs2 := ctxBatch(n)
	want := ctxRef(t, s, xs2[0])
	if err := RunBatch(context.Background(), s, xs2, 4); err != nil {
		t.Fatalf("soa rerun after panic: %v", err)
	}
	for i, v := range want {
		if xs2[0][i] != v {
			t.Fatalf("soa rerun: vector 0 wrong at %d", i)
		}
	}
}

// A nil ctx turns off polling, never containment: a kernel panic in a
// one-worker RunBatch on the caller's goroutine comes back as a
// *PanicError under either layout, and the schedule stays usable.
func TestPanicBatchNilCtx(t *testing.T) {
	defer faultinject.Reset()
	const n = 12
	for _, c := range []struct {
		name  string
		soa   bool
		point string
	}{
		{"per-vector", false, faultinject.ExecBatchVector},
		{"soa", true, faultinject.ExecSoALane},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer faultinject.Reset()
			s := layoutSched(t, n, c.soa)
			faultinject.Set(c.point, faultinject.PanicAfter(1, "injected kernel fault"))
			err := RunBatch(nil, s, ctxBatch(n), 1)
			assertPanicError(t, err, c.name)
			faultinject.Reset()
			rerunClean(t, s, n, func(y []float64) error {
				return RunBatch(nil, s, [][]float64{y}, 1)
			})
		})
	}
}

// A panic on one tier must not leak an abort signal or poisoned scratch
// into the next call: alternate faulting and clean calls.
func TestPanicPoolReusableInterleaved(t *testing.T) {
	defer faultinject.Reset()
	const n = 16
	s := ctxSched(t, n)
	x := ctxInput(n, 11)
	want := ctxRef(t, s, x)
	for round := 0; round < 3; round++ {
		faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(2, round))
		y := ctxInput(n, 50)
		if err := runBarrier(context.Background(), s, y, 4); !errors.Is(err, ErrKernelPanic) {
			t.Fatalf("round %d: faulting call: err = %v", round, err)
		}
		faultinject.Reset()
		z := append([]float64(nil), x...)
		if err := runBarrier(context.Background(), s, z, 4); err != nil {
			t.Fatalf("round %d: clean call: %v", round, err)
		}
		for i, v := range want {
			if z[i] != v {
				t.Fatalf("round %d: clean call wrong at %d", round, i)
			}
		}
	}
}

func TestPanicErrorShape(t *testing.T) {
	pe := newPanicError(3, "boom")
	if !errors.Is(pe, ErrKernelPanic) {
		t.Fatal("PanicError does not match ErrKernelPanic")
	}
	if pe.Stage != 3 || pe.Value != "boom" {
		t.Fatalf("attribution lost: %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if msg := pe.Error(); !strings.Contains(msg, "stage 3") || !strings.Contains(msg, "boom") {
		t.Fatalf("error message lacks attribution: %q", msg)
	}
	// Nested recovery must pass the original through un-rewrapped.
	if again := newPanicError(9, pe); again != pe {
		t.Fatal("nested recovery re-wrapped the PanicError")
	}
}

func assertPanicError(t *testing.T, err error, tier string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: injected panic returned nil error", tier)
	}
	if !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("%s: err = %v, does not match ErrKernelPanic", tier, err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: err = %T, want *PanicError", tier, err)
	}
	if pe.Value != "injected kernel fault" && pe.Value == nil {
		t.Fatalf("%s: panic value lost: %+v", tier, pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatalf("%s: no stack captured", tier)
	}
}

// rerunClean verifies the tier computes the exact reference transform
// immediately after a faulted call.
func rerunClean(t *testing.T, s *Schedule, n int, run func([]float64) error) {
	t.Helper()
	x := ctxInput(n, 77)
	want := ctxRef(t, s, x)
	y := append([]float64(nil), x...)
	if err := run(y); err != nil {
		t.Fatalf("rerun after panic: %v", err)
	}
	for i, v := range want {
		if y[i] != v {
			t.Fatalf("rerun after panic: wrong at %d: %g != %g", i, y[i], v)
		}
	}
}
