// Package machine describes the virtual processor the experiments run on.
// It is the stand-in for the paper's Opteron 224 testbed: instruction-class
// costs for the instruction-count model of [5], the cache and TLB geometry
// fed to the simulator (internal/cache), and the penalty/stall terms of the
// virtual-cycle formula (internal/core).
package machine

import (
	"repro/internal/cache"
	"repro/internal/codelet"
)

// OpCounts breaks an instruction count down by class.  The classes mirror
// what the high-level model of [5] distinguishes: butterfly arithmetic,
// element loads/stores, address updates, loop bookkeeping and call overhead.
// Spill traffic of large unrolled codelets is accounted separately so the
// cycle model can weigh it, but it is part of the total instruction count
// just as it would be in a PAPI_TOT_INS measurement.
type OpCounts struct {
	Arith   int64 // floating-point add/sub
	Load    int64 // element loads
	Store   int64 // element stores
	Addr    int64 // address/index updates
	Loop    int64 // loop increment/compare/branch groups
	Call    int64 // call/return and per-node setup
	SpillLd int64 // reloads caused by register spills in large codelets
	SpillSt int64 // spill stores
}

// Total returns the overall instruction count (the model's "I").
func (o OpCounts) Total() int64 {
	return o.Arith + o.Load + o.Store + o.Addr + o.Loop + o.Call + o.SpillLd + o.SpillSt
}

// Add accumulates other into o.
func (o *OpCounts) Add(other OpCounts) {
	o.Arith += other.Arith
	o.Load += other.Load
	o.Store += other.Store
	o.Addr += other.Addr
	o.Loop += other.Loop
	o.Call += other.Call
	o.SpillLd += other.SpillLd
	o.SpillSt += other.SpillSt
}

// Scale returns o with every class multiplied by k (k executions of the
// same code).
func (o OpCounts) Scale(k int64) OpCounts {
	return OpCounts{
		Arith: o.Arith * k, Load: o.Load * k, Store: o.Store * k,
		Addr: o.Addr * k, Loop: o.Loop * k, Call: o.Call * k,
		SpillLd: o.SpillLd * k, SpillSt: o.SpillSt * k,
	}
}

// CostModel holds the per-construct instruction charges of the model.
// They were chosen to mimic the x86-64 code gcc emits for the WHT package's
// triple loop and unrolled codelets; the experiments depend on their
// relative, not absolute, magnitudes.
type CostModel struct {
	LeafSetup     int64 // per codelet call: call/return, argument setup
	NodeSetup     int64 // per split-node invocation: recursive call frame
	ChildSetup    int64 // per child loop: R/S updates, loop initialization
	MidIter       int64 // per middle-loop (j) iteration: inc/cmp/branch + row base
	InnerIter     int64 // per inner-loop (k) iteration: inc/cmp/branch + base bump
	CallOverhead  int64 // per recursive child call inside the inner loop
	Registers     int   // architectural FP registers available to a codelet
	SpillPerExtra int64 // spill (store+reload) pairs charged per temporary beyond Registers
}

// LeafOps returns the instruction-class counts of one call of the codelet
// of log-size m.  For the unrolled tier: 2^m loads and stores, m*2^m
// butterfly operations, incremental address updates, plus spill traffic
// once the 2^m simultaneous temporaries exceed the register file.
func (c CostModel) LeafOps(m int) OpCounts {
	size := int64(1) << uint(m)
	ops := OpCounts{
		Arith: int64(m) * size,
		Load:  size,
		Store: size,
		Addr:  size, // one offset update per element (o_j = o_{j-1} + stride)
		Call:  c.LeafSetup,
	}
	if extra := size - int64(c.Registers); extra > 0 {
		ops.SpillLd = extra * c.SpillPerExtra
		ops.SpillSt = extra * c.SpillPerExtra
	}
	return ops
}

// LeafOpsVariant returns the instruction-class counts of one kernel call
// of log-size m executed as the given stage-shape variant at stage stride
// s.  It is the per-call building block of StageOps, the cost model of the
// compiled engine's variant dispatch:
//
//   - Strided: the unrolled codelet — LeafOps unchanged.
//   - Contiguous: the same butterfly network, but the incremental
//     per-element offset updates collapse to one constant-index subslice
//     (two address ops), which is exactly what the generated stride-1
//     codelet does.  Contiguous m = 8 has no generated codelet and runs
//     the GenericContig loop; it is still priced as the unrolled form.
//   - Interleaved: one call covers the s vectors of a j-row in m streaming
//     passes — m*2^m*s loads, stores and butterfly ops, one loop op per
//     butterfly, and no spill traffic (only a handful of temporaries are
//     ever live), with the call overhead amortized over all s vectors.
func (c CostModel) LeafOpsVariant(m int, v codelet.Variant, s int) OpCounts {
	size := int64(1) << uint(m)
	switch v {
	case codelet.Contiguous:
		ops := OpCounts{
			Arith: int64(m) * size,
			Load:  size,
			Store: size,
			Addr:  2, // one constant-length subslice instead of per-element offsets
			Call:  c.LeafSetup,
		}
		if extra := size - int64(c.Registers); extra > 0 {
			ops.SpillLd = extra * c.SpillPerExtra
			ops.SpillSt = extra * c.SpillPerExtra
		}
		return ops
	case codelet.Interleaved:
		s64 := int64(s)
		return OpCounts{
			Arith: int64(m) * size * s64,
			Load:  int64(m) * size * s64,
			Store: int64(m) * size * s64,
			Addr:  4 * (size - 1), // two subslices per butterfly block, size-1 blocks total
			Loop:  int64(m)*size*s64/2 + (size - 1),
			Call:  c.LeafSetup,
		}
	default:
		return c.LeafOps(m)
	}
}

// fusedILOps returns the op counts of one interleaved call executed by
// the radix-4 fused streaming kernel (codelet.GenericILFused): the same
// m*2^m*s butterflies, but ceil(m/2) passes instead of m — one load and
// one store per element per pass, a four-way subslice per block, and one
// loop iteration per four elements of a fused pass.
func (c CostModel) fusedILOps(m, s int) OpCounts {
	size := int64(1) << uint(m)
	s64 := int64(s)
	passes := int64(m+1) / 2
	return OpCounts{
		Arith: int64(m) * size * s64,
		Load:  passes * size * s64,
		Store: passes * size * s64,
		Addr:  8 * (size - 1), // four subslices per fused block, ~2(size-1) blocks
		Loop:  passes*size*s64/4 + (size - 1),
		Call:  c.LeafSetup,
	}
}

// StageOps returns the instruction-class counts of one compiled stage
// I(R) (x) WHT(2^m) (x) I(S) executed by the flat engine with kernel
// variant v: the kernel ops of every call plus the stage's own loop
// bookkeeping.  The strided and contiguous variants issue one kernel call
// per (j, k) resp. j index; the interleaved variant issues one composite
// call per j-row.  Fused interleaved stages (Policy.ILFuse) are priced by
// StageOpsFused.  Stages are priced one at a time in breadth-first
// order, each as a whole-vector sweep.  Above 2^16 elements the
// executors are cache blocked: the blocked prefix issues the same calls
// in another order, and a vector-bank interleaved row wider than a
// block runs as the strided row walker's column panels instead of
// whole-row passes.  Neither is modeled here; both show up only in
// what the host measures.
func (c CostModel) StageOps(m, r, s int, v codelet.Variant) OpCounts {
	return c.StageOpsFused(m, r, s, v, false)
}

// StageOpsFused is StageOps for a stage whose interleaved kernel runs the
// radix-4 fused streaming form (exec.Stage.Fused): half the element loads
// and stores of the single-level kernel for the same butterfly work.
// fused is ignored for non-interleaved variants.
func (c CostModel) StageOpsFused(m, r, s int, v codelet.Variant, fused bool) OpCounts {
	calls := int64(r)
	if v == codelet.Strided {
		calls *= int64(s)
	}
	var ops OpCounts
	if fused && v == codelet.Interleaved {
		ops = c.fusedILOps(m, s).Scale(calls)
	} else {
		ops = c.LeafOpsVariant(m, v, s).Scale(calls)
	}
	// The flat executor's per-stage bookkeeping: one setup, a row walk of
	// r iterations, and one dispatch iteration per kernel call.
	ops.Loop += c.ChildSetup + c.MidIter*int64(r) + c.InnerIter*calls
	return ops
}

// SIMDLanes returns the elements per vector instruction the model
// prices the vector backend at for the given element size: 32-byte YMM
// registers carry 4 float64s or 8 float32s.  Element sizes that do not
// divide the register width price as scalar (1).  The model is
// calibrated to the AVX2 geometry on every host — NEON's quadword
// registers carry half as many elements, but virtual-machine results
// must not depend on where they are computed, and the measured tuner
// corrects the constant; only the relative stage-shape landscape needs
// to be right.
func SIMDLanes(elemSize int) int {
	if elemSize > 0 && 32%elemSize == 0 {
		return 32 / elemSize
	}
	return 1
}

// SIMDStageOps rescales a scalar streaming-stage instruction count to
// the vector backend at `lanes` elements per instruction.  The
// streaming kernels' inner sweeps retire one arithmetic, load, store
// and loop-bookkeeping instruction per vector instead of per element,
// so those classes shrink by the lane factor (ceiling division — the
// scalar tail still issues); address setup, call overhead and spill
// traffic are per-call, not per-element, and are kept unchanged.  The
// result is the model-side price of flipping a stage's Backend from
// scalar to SIMD: the butterfly work is identical, only the
// instruction-stream density changes — which is why SIMD results stay
// bitwise-equal while throughput moves.
func (c CostModel) SIMDStageOps(ops OpCounts, lanes int) OpCounts {
	if lanes <= 1 {
		return ops
	}
	l := int64(lanes)
	ops.Arith = (ops.Arith + l - 1) / l
	ops.Load = (ops.Load + l - 1) / l
	ops.Store = (ops.Store + l - 1) / l
	ops.Loop = (ops.Loop + l - 1) / l
	return ops
}

// SIMDVectorizes reports whether the vector backend has a vectorized
// form for a stage of the given shape — the model-side mirror of the
// executor's kernel-bank eligibility.  Interleaved stages always
// vectorize (the streaming kernels), strided stages vectorize when the
// inner factor spans at least one vector (s >= lanes — the rows then
// stream gather-free), and contiguous stages vectorize once the
// transform fills the four registers of the in-register head
// (2^m >= 4*lanes; smaller ones keep the unrolled scalar codelet).
func SIMDVectorizes(m, s int, v codelet.Variant, lanes int) bool {
	if lanes <= 1 {
		return false
	}
	switch v {
	case codelet.Interleaved:
		return true
	case codelet.Contiguous:
		return 1<<uint(m) >= 4*lanes
	default:
		return s >= lanes
	}
}

// SIMDStageOpsShaped prices one stage's backend flip by shape: stages
// the vector backend has a kernel form for (SIMDVectorizes) reprice
// through SIMDStageOps, the rest keep their scalar counts — so a
// SIMD-pinned narrow strided stage prices identically
// to scalar, exactly as it executes.
func (c CostModel) SIMDStageOpsShaped(ops OpCounts, lanes int, v codelet.Variant, m, s int) OpCounts {
	if !SIMDVectorizes(m, s, v, lanes) {
		return ops
	}
	return c.SIMDStageOps(ops, lanes)
}

// DecisiveBackendPreference returns the modeled backend preference for
// one stage shape, and whether the model considers the choice decisive
// enough to skip measuring it.  Shapes without a vector form are
// decisively scalar — there is nothing to measure.  Shapes with one
// always prefer SIMD in the model (the vector counts are strictly
// smaller); the preference is decisive when the modeled instruction
// saving clears a 20% margin, which the streaming and wide-strided
// forms do comfortably while marginal shapes (tiny kernels where the
// scalar tail dominates) are left for the tuner's greedy measured
// flips.
func (c CostModel) DecisiveBackendPreference(m, r, s int, v codelet.Variant, fused bool, lanes int) (simd, decisive bool) {
	if !SIMDVectorizes(m, s, v, lanes) {
		return false, true
	}
	ops := c.StageOpsFused(m, r, s, v, fused)
	scalar := ops.Total()
	vec := c.SIMDStageOps(ops, lanes).Total()
	return true, vec*5 <= scalar*4
}

// StageLoopInstances returns the completed-loop count of one compiled
// stage (the branch-mispredict term of the cycle model): the flat row
// walk for the strided form, a single dispatch loop for the contiguous
// form, and the per-level block/stream loops of the interleaved kernel.
// Fused interleaved stages are handled by StageLoopInstancesFused.
func StageLoopInstances(m, r, s int, v codelet.Variant) int64 {
	return StageLoopInstancesFused(m, r, s, v, false)
}

// StageLoopInstancesFused is StageLoopInstances with the fused
// interleaved form (ceil(m/2) passes) accounted.
func StageLoopInstancesFused(m, r, s int, v codelet.Variant, fused bool) int64 {
	size := int64(1) << uint(m)
	switch v {
	case codelet.Contiguous:
		return 1
	case codelet.Interleaved:
		if fused {
			// Per call: ceil(m/2) pass loops plus one inner stream loop
			// per fused block (~(size-1) blocks across the passes).
			return 1 + int64(r)*(int64(m+1)/2+size-1)
		}
		// Per call: m level loops plus one inner stream loop per butterfly
		// block (size-1 blocks across the levels).
		return 1 + int64(r)*(int64(m)+size-1)
	default:
		return 1 + int64(r)
	}
}

// CycleModel holds the weights of the virtual-cycle formula.  Cycles are a
// deterministic function of the instruction classes, the codelet mix (ILP
// stalls, branch mispredictions) and the simulated cache/TLB misses, plus a
// small hash-keyed jitter modelling effects outside any model (allocation,
// alignment) — precisely the unexplained variance the paper observes.
type CycleModel struct {
	ArithCPI    float64
	LoadCPI     float64
	StoreCPI    float64
	AddrCPI     float64
	LoopCPI     float64
	CallCPI     float64
	SpillCPI    float64
	StallBase   int     // codelets of log-size below this suffer dependency stalls
	StallCPE    float64 // stall cycles per element per log-size deficit
	Mispredict  float64 // cycles per loop instance (one bottom mispredict each)
	L1Penalty   float64
	L2Penalty   float64
	TLB1Penalty float64
	TLB2Penalty float64
	JitterFrac  float64 // peak-to-peak fraction of base cycles perturbed per plan
}

// Machine bundles everything the virtual performance counters need.
type Machine struct {
	Name     string
	ElemSize int // bytes per vector element as seen by the memory system
	PageSize int

	L1, L2     cache.Config
	TLB1, TLB2 cache.Config

	// NextLinePrefetch enables the sequential hardware prefetcher in the
	// simulated hierarchy (off in the calibrated Opteron preset; an
	// ablation axis for the experiments).
	NextLinePrefetch bool

	Cost  CostModel
	Cycle CycleModel

	ClockHz float64 // nominal clock, used only to convert measured wall time
}

// NewHierarchy builds a fresh simulator hierarchy with the machine's
// geometry.  Each concurrent worker owns one.
func (m *Machine) NewHierarchy() *cache.Hierarchy {
	h := &cache.Hierarchy{L1: cache.New(m.L1), NextLinePrefetch: m.NextLinePrefetch}
	if m.L2.Sets != 0 {
		h.L2 = cache.New(m.L2)
	}
	if m.TLB1.Sets != 0 {
		h.TLB1 = cache.New(m.TLB1)
	}
	if m.TLB2.Sets != 0 {
		h.TLB2 = cache.New(m.TLB2)
	}
	return h
}

// LineShift returns log2 of the L1 line size in bytes.
func (m *Machine) LineShift() uint { return log2(m.L1.LineBytes) }

// PageShift returns log2 of the page size in bytes.
func (m *Machine) PageShift() uint { return log2(m.PageSize) }

func log2(v int) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// VirtualOpteron224 returns the machine model of the paper's testbed: a
// single-core 1.8 GHz Opteron with a 64 KB 2-way L1 data cache, a 1 MB
// 16-way L2, 64-byte lines, a 32-entry fully associative L1 DTLB and a
// 512-entry 4-way L2 TLB with 4 KB pages.  The element size is 4 bytes so
// that the paper's stated cache boundaries hold: 2^14 elements fill L1 and
// 2^18 elements fill L2 exactly.
func VirtualOpteron224() *Machine {
	return &Machine{
		Name:     "VirtualOpteron224",
		ElemSize: 4,
		PageSize: 4096,
		L1:       cache.Config{Name: "L1d", Sets: 512, Ways: 2, LineBytes: 64},  // 64 KB
		L2:       cache.Config{Name: "L2", Sets: 1024, Ways: 16, LineBytes: 64}, // 1 MB
		TLB1:     cache.Config{Name: "DTLB1", Sets: 1, Ways: 32, LineBytes: 4096},
		TLB2:     cache.Config{Name: "DTLB2", Sets: 128, Ways: 4, LineBytes: 4096},
		Cost: CostModel{
			LeafSetup:     8,
			NodeSetup:     12,
			ChildSetup:    8,
			MidIter:       6,
			InnerIter:     4,
			CallOverhead:  10,
			Registers:     16,
			SpillPerExtra: 1,
		},
		Cycle: CycleModel{
			ArithCPI:    0.40,
			LoadCPI:     0.55,
			StoreCPI:    0.60,
			AddrCPI:     0.35,
			LoopCPI:     0.45,
			CallCPI:     1.40,
			SpillCPI:    0.90,
			StallBase:   4,
			StallCPE:    0.45,
			Mispredict:  6,
			L1Penalty:   24,
			L2Penalty:   220,
			TLB1Penalty: 6,
			TLB2Penalty: 45,
			// Peak-to-peak fraction of unexplained per-plan variation
			// (register allocation, scheduling, alignment).  The paper's
			// Figure 6 scatter shows roughly +/-20% cycle spread at fixed
			// instruction count; this value reproduces its correlation
			// levels (rho ~ 0.96 in cache, ~0.77 out of cache).
			JitterFrac: 0.32,
		},
		ClockHz: 1.8e9,
	}
}
