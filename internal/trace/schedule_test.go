package trace

import (
	"testing"

	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/plan"
)

// For a one-level split (every child a leaf) the compiled engine under
// the strided-only policy issues exactly the kernel calls of the tree
// walk, in the same order — so the simulated memory counters of
// RunSchedule must equal those of the tree-walking Run bit for bit.
// (Deeper trees genuinely reorder: the flat engine completes each stage
// globally before the next, where the walker interleaves sub-trees per
// context — a real cache-behavior difference of the compiled engine that
// RunSchedule models and Run cannot.  Instruction counts differ by
// design: the flat engine has no recursion overhead.)
func TestRunScheduleStridedMemEqualsTreeWalk(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := New(m)
	for _, p := range []*plan.Node{
		plan.Iterative(12),
		plan.RadixIterative(16, 4),
		plan.RadixIterative(14, 7),
		plan.MustParse("split[small[3],small[5],small[8]]"),
	} {
		want := tr.Run(p).Mem
		sched, err := exec.NewScheduleWith(p, codelet.Policy{StridedOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		got := tr.RunSchedule(sched).Mem
		if got != want {
			t.Fatalf("plan %s: schedule mem %+v, tree walk %+v", p, got, want)
		}
	}
}

// The variant landscape the schedule tracer exposes must match the
// paper's stage-shape story: at an out-of-cache size, interleaving the
// large-S stage trades more streamed references for fewer L1 misses than
// the strided walk pays.
func TestRunScheduleInterleavedTradesOpsForMisses(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := New(m)
	p := plan.MustParse("split[small[8],split[small[8],small[4]]]") // n=20, S up to 4096
	strided := tr.RunSchedule(exec.CompileWith(p, codelet.Policy{StridedOnly: true}))
	il := tr.RunSchedule(exec.CompileWith(p, codelet.Policy{ILMinS: 2}))
	if il.Ops.Load <= strided.Ops.Load {
		t.Errorf("interleaved loads %d not above strided %d (m streaming passes)", il.Ops.Load, strided.Ops.Load)
	}
	if il.Mem.L1Misses >= strided.Mem.L1Misses {
		t.Errorf("interleaved L1 misses %d not below strided %d", il.Mem.L1Misses, strided.Mem.L1Misses)
	}
	if il.Ops.SpillLd != 0 {
		t.Errorf("interleaved stages charged spills: %d", il.Ops.SpillLd)
	}
}

// StageOps must be the exact instruction total RunSchedule accounts, so
// the closed-form stage coster and the trace-driven one agree on "I".
func TestRunScheduleInstructionsMatchStageOps(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := New(m)
	s := plan.NewSampler(37, plan.MaxLeafLog)
	for _, pol := range []codelet.Policy{codelet.DefaultPolicy(), {StridedOnly: true}, {ILMinS: 2}} {
		for trial := 0; trial < 5; trial++ {
			p := s.Plan(12)
			sched := exec.CompileWith(p, pol)
			got := tr.RunSchedule(sched).Instructions()
			var want int64
			for _, st := range sched.Stages() {
				want += m.Cost.StageOpsFused(st.M, st.R, st.S, st.V, st.Fused).Total()
			}
			if got != want {
				t.Fatalf("policy %+v plan %s: traced %d instructions, StageOps says %d", pol, p, got, want)
			}
		}
	}
}

// SIMD-pinned schedules price their vectorizable stages at vector
// throughput (SIMDStageOpsShaped per stage, exactly), keep ineligible
// shapes and the whole reference stream unchanged, and Auto-backend
// schedules price scalar regardless of the host — virtual-machine
// results must not depend on where they run.
func TestRunScheduleSIMDPricing(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := New(m)
	lanes := machine.SIMDLanes(m.ElemSize)
	if lanes <= 1 {
		t.Fatalf("virtual machine element size %d has no vector pricing", m.ElemSize)
	}
	p := plan.MustParse("split[small[4],small[8]]")
	for _, base := range []codelet.Policy{codelet.DefaultPolicy(), {ILMinS: 2}, {ILMinS: 2, ILFuse: true}} {
		scalarPol, simdPol, autoPol := base, base, base
		scalarPol.Backend = codelet.ScalarBackend
		simdPol.Backend = codelet.SIMDBackend
		autoPol.Backend = codelet.AutoBackend

		scalar := tr.RunSchedule(exec.CompileWith(p, scalarPol))
		simd := tr.RunSchedule(exec.CompileWith(p, simdPol))
		auto := tr.RunSchedule(exec.CompileWith(p, autoPol))

		if auto.Ops != scalar.Ops {
			t.Fatalf("policy %+v: auto backend priced %+v, scalar %+v — auto must price scalar", base, auto.Ops, scalar.Ops)
		}
		var want machine.OpCounts
		sched := exec.CompileWith(p, simdPol)
		hasVec := false
		for _, st := range sched.Stages() {
			ops := m.Cost.StageOpsFused(st.M, st.R, st.S, st.V, st.Fused)
			priced := m.Cost.SIMDStageOpsShaped(ops, lanes, st.V, st.M, st.S)
			if priced != ops {
				hasVec = true
			}
			want.Add(priced)
		}
		if simd.Ops != want {
			t.Fatalf("policy %+v: SIMD trace %+v, model says %+v", base, simd.Ops, want)
		}
		if hasVec && simd.Instructions() >= scalar.Instructions() {
			t.Fatalf("policy %+v: SIMD pricing %d not below scalar %d", base, simd.Instructions(), scalar.Instructions())
		}
		if simd.Mem != scalar.Mem {
			t.Fatalf("policy %+v: SIMD pricing changed the reference stream: %+v != %+v", base, simd.Mem, scalar.Mem)
		}
	}

	// Mixed per-stage pins price each stage on its own backend: the
	// trace of a pinned schedule must equal the per-stage shaped model
	// sum, and flipping one stage to SIMD moves only that stage's price.
	{
		pol := codelet.DefaultPolicy()
		sched := exec.CompileWith(p, pol)
		bs := make([]codelet.Backend, sched.NumStages())
		for i := range bs {
			bs[i] = codelet.ScalarBackend
		}
		bs[0] = codelet.SIMDBackend
		if err := sched.SetStageBackends(bs); err != nil {
			t.Fatal(err)
		}
		got := tr.RunSchedule(sched)
		var want machine.OpCounts
		for i, st := range sched.Stages() {
			ops := m.Cost.StageOpsFused(st.M, st.R, st.S, st.V, st.Fused)
			if bs[i] == codelet.SIMDBackend {
				ops = m.Cost.SIMDStageOpsShaped(ops, lanes, st.V, st.M, st.S)
			}
			want.Add(ops)
		}
		if got.Ops != want {
			t.Fatalf("mixed pins: trace %+v, model says %+v", got.Ops, want)
		}
		scalarAll := tr.RunSchedule(exec.CompileWith(p, codelet.Policy{Backend: codelet.ScalarBackend}))
		if got.Mem != scalarAll.Mem {
			t.Fatal("mixed pins changed the reference stream")
		}
	}
}

// Fused interleaved stages halve the streamed references of their
// single-level counterparts for identical butterfly work.
func TestRunScheduleFusedILHalvesLoads(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := New(m)
	p := plan.MustParse("split[small[6],small[6],small[6]]")
	single := tr.RunSchedule(exec.CompileWith(p, codelet.DefaultPolicy()))
	fused := tr.RunSchedule(exec.CompileWith(p, codelet.Policy{ILFuse: true}))
	if fused.Ops.Arith != single.Ops.Arith {
		t.Errorf("fused arith %d != single %d (same butterflies)", fused.Ops.Arith, single.Ops.Arith)
	}
	if fused.Ops.Load >= single.Ops.Load {
		t.Errorf("fused loads %d not below single-level %d", fused.Ops.Load, single.Ops.Load)
	}
}
