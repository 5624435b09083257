package trace

import (
	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/internal/machine"
)

// RunSchedule simulates one evaluation of a compiled schedule on a cold
// hierarchy and returns the counters — the virtual-counter view of the
// stage engine's variant dispatch, where Run simulates the recursive
// interpreter.  Instruction classes come from the machine's StageOps
// model; the memory reference stream mirrors what each kernel variant
// actually issues:
//
//   - strided stages: one read pass and one write pass over the strided
//     vector per kernel call, exactly like the tree walk;
//   - contiguous stages: the same two passes, unit stride;
//   - interleaved stages: m read+write streaming passes over the
//     contiguous 2^m * S block of each j-row — more traffic, but every
//     pass is sequential, which is precisely the trade the variant makes.
//
// Model-guided search driven by these counters therefore sees the same
// stage-shape landscape the measured coster does.
//
// The stream is still the breadth-first stage order: each stage sweeps
// the whole vector before the next begins.  The executors are cache
// blocked above 2^16 elements — the stages whose rows fit a block run
// block by block, and vector-bank interleaved rows wider than a block
// stream in column panels — so at those sizes the simulated misses
// overstate what the host incurs; that gap belongs in the
// model-vs-host residuals, not in this walk.
//
// Stages pinned to the SIMD backend price at vector throughput through
// SIMDStageOpsShaped — per stage, so a mixed-pin schedule
// (exec.Schedule.SetStageBackends) prices each stage on its own
// backend, and shape-aware, so a SIMD pin on a shape without a vector
// form (narrow strided rows, tiny contiguous kernels) prices scalar
// exactly as it executes.  The reference stream is unchanged either way —
// the vector kernels touch the same addresses in the same order — so only
// the instruction classes shrink.  Pricing keys on the requested backend,
// not the host's runtime resolution, so virtual-machine results stay
// host-independent: an Auto stage prices scalar — the conservative
// baseline the tuner's measured backend sweep corrects.
func (t *Tracer) RunSchedule(s *exec.Schedule) Counters {
	t.hier.Reset()
	t.counters = Counters{}
	t.priceLanes = machine.SIMDLanes(t.mach.ElemSize)
	for _, st := range s.Stages() {
		t.stage(st)
	}
	t.priceLanes = 1
	t.counters.Mem = t.hier.Counters()
	return t.counters
}

// stageLanes returns the lane count one stage prices with: the
// machine's vector width for an explicit SIMD pin, scalar otherwise
// (see RunSchedule on why Auto prices scalar).
func (t *Tracer) stageLanes(st exec.Stage) int {
	if st.Backend == codelet.SIMDBackend {
		return t.priceLanes
	}
	return 1
}

// stage accounts one compiled stage: instruction classes from the cost
// model, loop instances for the mispredict term, dependency-stall leaf
// calls for the straight-line variants, and the variant's reference
// stream through the simulated hierarchy.
func (t *Tracer) stage(st exec.Stage) {
	cost := &t.mach.Cost
	ops := cost.StageOpsFused(st.M, st.R, st.S, st.V, st.Fused)
	t.counters.Ops.Add(cost.SIMDStageOpsShaped(ops, t.stageLanes(st), st.V, st.M, st.S))
	t.counters.LoopInstances += machineStageLoops(st)

	size := 1 << uint(st.M)
	switch st.V {
	case codelet.Contiguous:
		// The straight-line codelet's dependency-stall profile matches the
		// strided form, so it contributes to the LeafCalls stall term.
		t.counters.LeafCalls[st.M] += int64(st.R)
		for j := 0; j < st.R; j++ {
			t.leafPass(j*st.Blk, 1, size)
			t.leafPass(j*st.Blk, 1, size)
		}
	case codelet.Interleaved:
		// The streaming kernel has no straight-line dependency chains;
		// its cost is in the passes over each j-row block: one per level,
		// or one per fused level pair under Policy.ILFuse.
		passes := st.M
		if st.Fused {
			passes = (st.M + 1) / 2
		}
		block := size * st.S
		for j := 0; j < st.R; j++ {
			rowBase := j * st.Blk
			for lvl := 0; lvl < passes; lvl++ {
				t.leafPass(rowBase, 1, block)
				t.leafPass(rowBase, 1, block)
			}
		}
	default:
		t.counters.LeafCalls[st.M] += int64(st.R) * int64(st.S)
		for j := 0; j < st.R; j++ {
			rowBase := j * st.Blk
			for k := 0; k < st.S; k++ {
				t.leafPass(rowBase+k, st.S, size)
				t.leafPass(rowBase+k, st.S, size)
			}
		}
	}
}

func machineStageLoops(st exec.Stage) int64 {
	return machine.StageLoopInstancesFused(st.M, st.R, st.S, st.V, st.Fused)
}
