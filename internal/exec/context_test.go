package exec

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/plan"
)

// The cancellation property suite: on every execution tier a cancelled
// context must (a) surface as exactly ctx.Err(), unwrapped, (b) return
// promptly — bounded by one work chunk, asserted here with a generous
// wall-clock bound since the test only needs to prove the run did not
// finish the transform or hang, and (c) leave schedules, pools, and
// caches reusable: the same schedule must produce bitwise-correct
// results on the very next call.

// ctxSched compiles the balanced schedule for 2^n.
func ctxSched(t testing.TB, n int) *Schedule {
	t.Helper()
	return Compile(plan.Balanced(n, plan.MaxLeafLog))
}

// ctxInput returns a deterministic pseudo-random vector of 2^n elements.
func ctxInput(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 42))
	x := make([]float64, 1<<uint(n))
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// ctxRef computes the reference transform through the trusted sequential
// engine.
func ctxRef(t testing.TB, s *Schedule, x []float64) []float64 {
	t.Helper()
	ref := append([]float64(nil), x...)
	if err := Run(s, ref); err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	return ref
}

// eachTier runs f once per execution tier with a closure that executes
// the tier on a fresh copy of the input batch under the given context.
// Every tier closure transforms xs in place and returns the tier's
// error; single-vector tiers use xs[0].
func eachTier(t *testing.T, n int, f func(t *testing.T, tier string, run func(ctx context.Context, xs [][]float64) error)) {
	s := ctxSched(t, n)
	tiers := []struct {
		name string
		run  func(ctx context.Context, xs [][]float64) error
	}{
		{"sequential", func(ctx context.Context, xs [][]float64) error {
			return RunCtx(ctx, s, xs[0], 1)
		}},
		{"barrier", func(ctx context.Context, xs [][]float64) error {
			// The fan-out itself: RunCtx runs inline below
			// ParallelMinElems, which the sequential tier covers.
			return runBarrier(ctx, s, xs[0], 4)
		}},
		{"batch", func(ctx context.Context, xs [][]float64) error {
			return RunBatch(ctx, s, xs, 1)
		}},
		{"batch-parallel", func(ctx context.Context, xs [][]float64) error {
			return RunBatch(ctx, s, xs, 4)
		}},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) { f(t, tier.name, tier.run) })
	}
}

// ctxBatch builds a batch of 24 distinct vectors (enough to engage the
// per-vector fan-out).
func ctxBatch(n int) [][]float64 {
	xs := make([][]float64, 24)
	for i := range xs {
		xs[i] = ctxInput(n, uint64(i)+1)
	}
	return xs
}

func TestCtxNilMatchesRun(t *testing.T) {
	const n = 14
	s := ctxSched(t, n)
	want := ctxRef(t, s, ctxInput(n, 7))
	eachTier(t, n, func(t *testing.T, tier string, run func(ctx context.Context, xs [][]float64) error) {
		xs := ctxBatch(n)
		xs[0] = ctxInput(n, 7)
		if err := run(nil, xs); err != nil {
			t.Fatalf("%s with nil ctx: %v", tier, err)
		}
		for i, v := range want {
			if xs[0][i] != v {
				t.Fatalf("%s: result[%d] = %g, want %g", tier, i, xs[0][i], v)
			}
		}
	})
}

func TestCtxPreCancelled(t *testing.T) {
	const n = 14
	eachTier(t, n, func(t *testing.T, tier string, run func(ctx context.Context, xs [][]float64) error) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		xs := ctxBatch(n)
		orig := append([]float64(nil), xs[0]...)
		err := run(ctx, xs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s pre-cancelled: err = %v, want context.Canceled", tier, err)
		}
		// Pre-execution cancellation must not have touched the data.
		for i, v := range orig {
			if xs[0][i] != v {
				t.Fatalf("%s: pre-cancelled run modified input at %d", tier, i)
			}
		}
	})
}

func TestCtxMidRunCancel(t *testing.T) {
	const n = 16 // multi-stage at this size: every tier has chunks to cancel between
	eachTier(t, n, func(t *testing.T, tier string, run func(ctx context.Context, xs [][]float64) error) {
		defer faultinject.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel from inside the run, at the first fault point the tier
		// passes — deterministic mid-transform cancellation.
		for _, point := range []string{faultinject.ExecChunk, faultinject.ExecBatchVector} {
			faultinject.Set(point, func() { cancel() })
		}
		xs := ctxBatch(n)
		start := time.Now()
		err := run(ctx, xs)
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s mid-run cancel: err = %v, want context.Canceled", tier, err)
		}
		if err != context.Canceled {
			t.Fatalf("%s: ctx error was wrapped: %v", tier, err)
		}
		// One chunk is microseconds of work; seconds would mean the tier
		// ran to completion or wedged.
		if elapsed > 5*time.Second {
			t.Fatalf("%s: cancellation took %v", tier, elapsed)
		}
		faultinject.Reset()

		// The pool/caches must be reusable: rerun on fresh data.
		s := ctxSched(t, n)
		x := ctxInput(n, 99)
		want := ctxRef(t, s, x)
		xs2 := ctxBatch(n)
		xs2[0] = append([]float64(nil), x...)
		if err := run(context.Background(), xs2); err != nil {
			t.Fatalf("%s rerun after cancel: %v", tier, err)
		}
		for i, v := range want {
			if xs2[0][i] != v {
				t.Fatalf("%s rerun: result[%d] = %g, want %g", tier, i, xs2[0][i], v)
			}
		}
	})
	t.Run("prefix", cancelInPrefix)
}

// cancelInPrefix is the mid-run cancel inside the blocked prefix: above
// one cache block the sequential and barrier tiers poll ctx per block,
// so a cancel at the first chunk runs at most the rest of the block
// each worker is in — p chunks per worker for a prefix of p stages —
// and the schedule stays reusable.
func cancelInPrefix(t *testing.T) {
	const n = cacheBlockLog + 3 // 8 blocks: more than the barrier's workers
	s := ctxSched(t, n)
	p := blockedPrefix(s)
	if p < 2 {
		t.Fatalf("%s: blocked prefix %d, want at least two stages", s, p)
	}
	for _, tier := range []struct {
		name    string
		workers int
		run     func(ctx context.Context, x []float64) error
	}{
		{"sequential", 1, func(ctx context.Context, x []float64) error { return RunCtx(ctx, s, x, 1) }},
		{"barrier", 4, func(ctx context.Context, x []float64) error { return runBarrier(ctx, s, x, 4) }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			defer faultinject.Reset()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var chunks atomic.Int64
			faultinject.Set(faultinject.ExecChunk, func() {
				chunks.Add(1)
				cancel()
			})
			if err := tier.run(ctx, ctxInput(n, 5)); err != context.Canceled {
				t.Fatalf("cancel in the prefix: err = %v, want context.Canceled", err)
			}
			if got, bound := chunks.Load(), int64(p*tier.workers); got > bound {
				t.Fatalf("%d chunks ran after a cancel at the first; one block per worker is %d", got, bound)
			}
			faultinject.Reset()
			rerunClean(t, s, n, func(y []float64) error { return tier.run(context.Background(), y) })
		})
	}
}

func TestCtxDeadline(t *testing.T) {
	const n = 14
	s := ctxSched(t, n)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	x := ctxInput(n, 3)
	if err := RunCtx(ctx, s, x, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestCtxValidation(t *testing.T) {
	s := ctxSched(t, 10)
	if err := RunCtx(nil, s, make([]float64, 7), 1); err == nil {
		t.Fatal("short vector accepted")
	}
	if err := RunCtx(nil, nil, make([]float64, 1024), 1); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if err := RunBatch[float64](nil, nil, nil, 1); err == nil {
		t.Fatal("nil schedule accepted for a batch")
	}
	// Ragged batches are rejected and empty ones are a no-op at any
	// worker count.
	for _, w := range []int{1, 4} {
		if err := RunBatch(nil, s, [][]float64{make([]float64, 1024), make([]float64, 3)}, w); err == nil {
			t.Fatalf("workers=%d: ragged batch accepted", w)
		}
		if err := RunBatch[float64](nil, s, nil, w); err != nil {
			t.Fatalf("workers=%d: empty batch: %v", w, err)
		}
	}
}
