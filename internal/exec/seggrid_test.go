package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// TestSegmentedEquivalenceGrid is the regrouping-lemma property grid:
// for sizes below, at, and past the resident budget, every codelet
// policy, backend pin, element width, and worker count must produce a
// segmented result bitwise-equal to the flat schedule compiled under
// the same policy — over a slice-backed store and over a store with no
// plane access.  Sizes at or under the budget compile to flat schedules
// and exercise the in-place paths; sizes past it exercise the gather
// windows.  The gather subtests then pin the row run K of every window
// shape: caps that force K = 0, 0 < K < L and K = L, a three-level form
// whose hi phase still exceeds the budget, and a cap smaller than one
// phase, which shrinks the pool to one worker.
func TestSegmentedEquivalenceGrid(t *testing.T) {
	const budget = 8
	sizes := []int{6, 8, 9, 11, 13}
	policies := []struct {
		name string
		pol  codelet.Policy
	}{
		{"default", codelet.DefaultPolicy()},
		{"strided-only", codelet.Policy{StridedOnly: true}},
		{"il-eager", codelet.Policy{ILMinS: 2}},
	}
	backends := []codelet.Backend{codelet.ScalarBackend, codelet.SIMDBackend}

	for _, n := range sizes {
		p := plan.Balanced(n, min(plan.MaxLeafLog, budget))
		g, err := plan.TwoPhase(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range policies {
			for _, be := range backends {
				pol := pc.pol
				pol.Backend = be
				seg, err := NewSegmentedScheduleWith(g, pol)
				if err != nil {
					t.Fatal(err)
				}
				if want := n > budget; seg.IsSegmented() != want {
					t.Fatalf("n=%d budget=%d: IsSegmented=%v, want %v", n, budget, seg.IsSegmented(), want)
				}
				flat, err := NewScheduleWith(p, pol)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					opt := SegOptions{Workers: workers}
					if seg.IsSegmented() {
						opt.ResidentElems = workers << uint(budget)
					}
					name := fmt.Sprintf("n=%d/%s/%s/w=%d", n, pc.name, be, workers)
					t.Run(name+"/f64", func(t *testing.T) {
						gridCase[float64](t, seg, flat, opt)
					})
					t.Run(name+"/f32", func(t *testing.T) {
						gridCase[float32](t, seg, flat, opt)
					})
				}
			}
		}
	}

	// Gather shapes.  Each form's hi phases sit at L > 0; the caps are
	// per-worker shares (ResidentElems = workers * share).
	forms := []struct {
		name  string
		form  string
		share []int // log2 per-worker shares; -1 means uncapped
	}{
		// lo at [0, 6), hi at [6, 12): shares 2^6, 2^9, 2^12 give
		// K = 0, 3, 6 in the hi phase.
		{"two-level", "phase[split[small[3],small[3]],split[small[3],small[3]]]", []int{6, 9, 12, -1}},
		// lo at [0, 6); the hi phase of 7 bits recurses into [6, 10)
		// and [10, 13).
		{"three-level", "phase[phase[small[3],split[small[2],small[2]]],split[small[3],small[3]]]", []int{6, 7, 9, 13, -1}},
	}
	var sawZero, sawPartial, sawFull bool
	for _, fc := range forms {
		g := plan.MustParseSeg(fc.form)
		for _, be := range backends {
			pol := codelet.Policy{Backend: be}
			seg, err := NewSegmentedScheduleWith(g, pol)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := NewScheduleWith(g.Flatten(), pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, share := range fc.share {
				for _, workers := range []int{1, 4} {
					opt := SegOptions{Workers: workers}
					label := "uncapped"
					if share >= 0 {
						opt.ResidentElems = workers << uint(share)
						label = fmt.Sprintf("share=2^%d", share)
					}
					for i := range seg.Segments() {
						sg := &seg.Segments()[i]
						gt := newGather(seg, sg, workers, opt.ResidentElems)
						switch {
						case sg.L > 0 && gt.k == 0:
							sawZero = true
						case gt.k > 0 && gt.k < sg.L:
							sawPartial = true
						case sg.L > 0 && gt.k == sg.L:
							sawFull = true
						}
					}
					name := fmt.Sprintf("gather/%s/%s/%s/w=%d", fc.name, be, label, workers)
					t.Run(name+"/f64", func(t *testing.T) {
						gridCase[float64](t, seg, flat, opt)
					})
					t.Run(name+"/f32", func(t *testing.T) {
						gridCase[float32](t, seg, flat, opt)
					})
				}
			}
		}
	}
	if !sawZero || !sawPartial || !sawFull {
		t.Fatalf("gather grid missed a row-run shape: K=0 %v, 0<K<L %v, K=L %v", sawZero, sawPartial, sawFull)
	}

	// A share smaller than one phase: every window is one 2^W phase
	// with K = 0, and the pool shrinks to a single worker.
	g := plan.MustParseSeg(forms[0].form)
	seg := CompileSegmented(g)
	flat := Compile(g.Flatten())
	for _, workers := range []int{1, 4} {
		opt := SegOptions{Workers: workers, ResidentElems: 1 << 5}
		for i := range seg.Segments() {
			if gt := newGather(seg, &seg.Segments()[i], workers, opt.ResidentElems); gt.k != 0 || gt.workers != 1 {
				t.Fatalf("share below one phase: segment %d gathers K=%d with %d workers, want K=0 with 1", i, gt.k, gt.workers)
			}
		}
		name := fmt.Sprintf("gather/below-phase/w=%d", workers)
		t.Run(name+"/f64", func(t *testing.T) {
			gridCase[float64](t, seg, flat, opt)
		})
		t.Run(name+"/f32", func(t *testing.T) {
			gridCase[float32](t, seg, flat, opt)
		})
	}
}

// gridCase runs one grid cell: the flat reference (parallel when the
// cell asks for several workers), then the segmented executor over a
// SliceStore and over a store with no plane access, demanding bitwise
// equality throughout.
func gridCase[T Float](t *testing.T, seg, flat *Schedule, opt SegOptions) {
	t.Helper()
	n := seg.Log2Size()
	rng := rand.New(rand.NewSource(int64(n)*1009 + int64(opt.Workers)))
	in := make([]T, 1<<uint(n))
	for i := range in {
		in[i] = T(rng.Float64()*2 - 1)
	}

	want := append([]T(nil), in...)
	var err error
	if opt.Workers > 1 {
		err = RunParallel(flat, want, opt.Workers)
	} else {
		err = Run(flat, want)
	}
	if err != nil {
		t.Fatal(err)
	}

	buf := append([]T(nil), in...)
	if err := RunSegmented(context.Background(), seg, NewSliceStore(buf), opt); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "slice store", want, buf)

	st := newMemStore(in)
	if err := RunSegmented(context.Background(), seg, st, opt); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "copy store", want, st.primary)
}
