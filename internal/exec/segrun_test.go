package exec

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/plan"
)

// memStore is a test BufStore that is not a SliceStore, so even flat
// schedules run through resident buffers.
type memStore[T Float] struct {
	primary, aux []T
}

func newMemStore[T Float](x []T) *memStore[T] {
	st := &memStore[T]{primary: make([]T, len(x)), aux: make([]T, len(x))}
	copy(st.primary, x)
	return st
}

func (st *memStore[T]) Len() int { return len(st.primary) }

func (st *memStore[T]) Read(dst []T, off int) error {
	copy(dst, st.primary[off:off+len(dst)])
	return nil
}

func (st *memStore[T]) Write(src []T, off int) error {
	copy(st.primary[off:off+len(src)], src)
	return nil
}

func (st *memStore[T]) WriteAux(src []T, off int) error {
	copy(st.aux[off:off+len(src)], src)
	return nil
}

func (st *memStore[T]) Flip() error {
	st.primary, st.aux = st.aux, st.primary
	return nil
}

func (st *memStore[T]) Close() error { return nil }

func segInput(n int) []float64 {
	rng := rand.New(rand.NewSource(int64(n) + 7))
	x := make([]float64, 1<<uint(n))
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

func TestRunSegmentedMatchesFlat(t *testing.T) {
	for _, tc := range []struct{ n, budget int }{
		{10, 6}, {12, 8}, {13, 7}, {14, 6},
	} {
		p := plan.Balanced(tc.n, min(plan.MaxLeafLog, tc.budget))
		g, err := plan.TwoPhase(p, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSegmentedSchedule(g)
		if err != nil {
			t.Fatal(err)
		}
		if !s.IsSegmented() {
			t.Fatalf("n=%d budget=%d: expected a segmented schedule", tc.n, tc.budget)
		}
		flat, err := NewSchedule(p)
		if err != nil {
			t.Fatal(err)
		}
		in := segInput(tc.n)

		want := append([]float64(nil), in...)
		if err := Run(flat, want); err != nil {
			t.Fatal(err)
		}

		// A store with no plane access, single worker.
		st := newMemStore(in)
		if err := RunSegmented(context.Background(), s, st, SegOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(in))
		if err := st.Read(got, 0); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d budget=%d single worker: mismatch at %d: %v vs %v", tc.n, tc.budget, i, got[i], want[i])
			}
		}

		// Parallel with a tight resident cap.
		st = newMemStore(in)
		opt := SegOptions{Workers: 4, ResidentElems: 1 << uint(tc.budget)}
		if err := RunSegmented(context.Background(), s, st, opt); err != nil {
			t.Fatal(err)
		}
		if err := st.Read(got, 0); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d budget=%d capped parallel: mismatch at %d", tc.n, tc.budget, i)
			}
		}

		// Over the caller's slice.
		buf := append([]float64(nil), in...)
		ss := NewSliceStore(buf)
		if err := RunSegmented(context.Background(), s, ss, SegOptions{Workers: 3}); err != nil {
			t.Fatal(err)
		}
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d budget=%d slice store: mismatch at %d", tc.n, tc.budget, i)
			}
		}
	}
}

func TestRunSegmentedFlatFallback(t *testing.T) {
	s := Compile(plan.Balanced(10, 5))
	in := segInput(10)
	want := append([]float64(nil), in...)
	if err := Run(s, want); err != nil {
		t.Fatal(err)
	}

	buf := append([]float64(nil), in...)
	if err := RunSegmented(context.Background(), s, NewSliceStore(buf), SegOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("slice-store flat fallback: mismatch at %d", i)
		}
	}

	st := newMemStore(in)
	if err := RunSegmented(context.Background(), s, st, SegOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(in))
	st.Read(got, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buffered flat fallback: mismatch at %d", i)
		}
	}

	// A flat schedule cannot honor a budget smaller than the vector.
	err := RunSegmented(context.Background(), s, newMemStore(in), SegOptions{ResidentElems: 1 << 8})
	if err == nil {
		t.Fatal("flat schedule over budget must error on an external store")
	}
}

func TestRunSegmentedCancel(t *testing.T) {
	p := plan.Balanced(14, 6)
	g, err := plan.TwoPhase(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSegmentedSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := segInput(14)
	if err := RunSegmented(ctx, s, NewSliceStore(x), SegOptions{}); err == nil {
		t.Fatal("cancelled context must abort the segmented run")
	}
}

func TestSingleSegmentCompilesFlatStages(t *testing.T) {
	p := plan.Balanced(12, 6)
	g, err := plan.TwoPhase(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewSegmentedSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if seg.IsSegmented() {
		t.Fatal("a fully-local form must compile to a flat schedule")
	}
	flat, err := NewSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := seg.Stages(), flat.Stages()
	if len(a) != len(b) {
		t.Fatalf("stage count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stage %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The flat path over a SliceStore transforms the caller's slice in
// place: it must not allocate the auxiliary plane, which no flat run
// ever uses.
func TestRunSegmentedFlatSliceStoreAllocatesNoPlane(t *testing.T) {
	const n = 20
	s := Compile(plan.Balanced(n, plan.MaxLeafLog))
	x := segInput(n)
	vecBytes := uint64(8 << n)
	for _, workers := range []int{1, 2} {
		st := NewSliceStore(x)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := RunSegmented(context.Background(), s, st, SegOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > vecBytes/64 {
			t.Fatalf("workers=%d: flat run allocated %d bytes for a %d-byte vector", workers, got, vecBytes)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Concurrent calls share the pooled window buffers: each call must
// take its own, so every result stays bitwise-equal to flat.
func TestRunSegmentedConcurrentCalls(t *testing.T) {
	s := gatherSched(t)
	in := segInput(12)
	const runs = 2
	want := append([]float64(nil), in...)
	for i := 0; i < runs; i++ {
		if err := Run(s, want); err != nil {
			t.Fatal(err)
		}
	}
	stores := make([]*memStore[float64], 4)
	errs := make(chan error, len(stores))
	for c := range stores {
		stores[c] = newMemStore(in)
		go func(st *memStore[float64]) {
			var err error
			for i := 0; i < runs && err == nil; i++ {
				err = RunSegmented(context.Background(), s, st, SegOptions{Workers: 2, ResidentElems: 2 << 9})
			}
			errs <- err
		}(stores[c])
	}
	for range stores {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range stores {
		assertBitwise(t, "concurrent caller", want, st.primary)
	}
}

// gatherSched compiles a two-level form of 2^12 whose hi phase acts on
// the index bits [6, 12).
func gatherSched(t *testing.T) *Schedule {
	t.Helper()
	s, err := NewSegmentedSchedule(plan.MustParseSeg("phase[split[small[3],small[3]],split[small[3],small[3]]]"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cancelStore cancels its context on the after-th Read: a cancellation
// that lands while a worker is gathering a window's rows.
type cancelStore struct {
	*memStore[float64]
	reads  atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (st *cancelStore) Read(dst []float64, off int) error {
	if st.reads.Add(1) == st.after {
		st.cancel()
	}
	return st.memStore.Read(dst, off)
}

func TestRunSegmentedCancelMidGather(t *testing.T) {
	s := gatherSched(t)
	in := segInput(12)
	want := append([]float64(nil), in...)
	if err := Run(s, want); err != nil {
		t.Fatal(err)
	}
	// A per-worker share of 2^9 gathers hi windows of 64 rows of 8
	// elements; the lo phase takes one read for each of its 64 windows,
	// so read 100 lands inside a hi-phase gather.
	opt := SegOptions{Workers: 1, ResidentElems: 1 << 9}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &cancelStore{memStore: newMemStore(in), after: 100, cancel: cancel}
	err := RunSegmented(ctx, s, st, opt)
	if err != context.Canceled {
		t.Fatalf("mid-gather cancel returned %v, want context.Canceled", err)
	}
	if got, full := st.reads.Load(), int64(64+8*64); got >= full {
		t.Fatalf("cancelled run still made all %d reads", got)
	}

	// The store stays usable: reload the input and rerun.
	if err := st.Write(in, 0); err != nil {
		t.Fatal(err)
	}
	if err := RunSegmented(context.Background(), s, st, opt); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "rerun after cancel", want, st.primary)
}

func TestPanicSegmentedGather(t *testing.T) {
	defer faultinject.Reset()
	s := gatherSched(t)
	in := segInput(12)
	want := append([]float64(nil), in...)
	if err := Run(s, want); err != nil {
		t.Fatal(err)
	}
	// The lo phase runs 64 windows of two one-chunk stages (128
	// chunks); the hi phase runs 8 windows of 64 rows of 8, so chunk 135
	// falls inside a gather window.
	opt := SegOptions{Workers: 4, ResidentElems: 4 << 9}
	st := newMemStore(in)
	faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(135, "injected kernel fault"))
	err := RunSegmented(context.Background(), s, st, opt)
	assertPanicError(t, err, "segmented gather")
	faultinject.Reset()

	if err := st.Write(in, 0); err != nil {
		t.Fatal(err)
	}
	if err := RunSegmented(context.Background(), s, st, opt); err != nil {
		t.Fatalf("rerun after panic: %v", err)
	}
	assertBitwise(t, "rerun after panic", want, st.primary)
}

// The out-of-core benchmark's form — a 2^24 transform under a 2^20
// budget with two workers — compiles to one contiguous phase and one
// gathered phase, with no transpose, and the gathered phase reads 4096
// rows of 256 elements per window.
func TestPerfbenchFormCompilesToTwoGathers(t *testing.T) {
	const n, resident, workers = 24, 20, 2
	g, err := plan.TwoPhase(plan.Balanced(n, min(plan.MaxLeafLog, resident)), resident)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.String(), "phase[split[small[6],small[6]],split[small[6],small[6]]]"; got != want {
		t.Fatalf("form %s, want %s", got, want)
	}
	s, err := NewSegmentedSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
	for i, sg := range segs {
		if sg.Kind == TransposeSegment {
			t.Fatalf("segment %d is a transpose", i)
		}
	}
	if segs[0].L != 0 || segs[0].W != 12 || segs[1].L != 12 || segs[1].W != 12 {
		t.Fatalf("segments act on bits [%d,+%d) and [%d,+%d), want [0,+12) and [12,+12)",
			segs[0].L, segs[0].W, segs[1].L, segs[1].W)
	}
	hi := newGather(s, &segs[1], workers, workers<<resident)
	if rows, run := 1<<hi.w, 1<<hi.k; rows != 4096 || run != 256 || hi.workers != workers {
		t.Fatalf("hi phase gathers %d rows of %d with %d workers, want 4096 of 256 with %d", rows, run, hi.workers, workers)
	}
	// Uncapped, rows run the 2^segMinRunLog floor: the compiled budget
	// holds just one 2^12 phase.
	if un := newGather(s, &segs[1], workers, 0); un.k != segMinRunLog {
		t.Fatalf("uncapped hi phase gathers rows of 2^%d, want 2^%d", un.k, segMinRunLog)
	}
}
