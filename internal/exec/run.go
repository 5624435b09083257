package exec

import (
	"fmt"

	"repro/internal/codelet"
)

// Run executes the schedule in place on x.  It is the single evaluation
// code path of the library: the float64 and float32 engines, the strided
// and 2-D paths, the batch API and (through runStageRange) the parallel
// evaluator all reduce to it.  Run is safe for concurrent use on distinct
// vectors.
func Run[T Float](s *Schedule, x []T) error {
	if s == nil {
		return fmt.Errorf("exec: nil schedule")
	}
	if len(x) != s.size {
		return fmt.Errorf("exec: vector length %d does not match schedule size %d", len(x), s.size)
	}
	kt := newKernelTable[T](s)
	runStages(s, &kt, x, 0, 1)
	return nil
}

// MustRun is Run panicking on error, for callers that construct both
// schedule and buffer themselves.
func MustRun[T Float](s *Schedule, x []T) {
	if err := Run(s, x); err != nil {
		panic(err)
	}
}

// RunStrided executes the schedule on the strided vector
// x[base], x[base+stride], ..., x[base+(2^n-1)*stride] in place.  It is
// the building block for multi-dimensional transforms.  At stride 1 the
// stages run with their compiled variant kernels; at larger strides the
// shaped kernels' adjacency assumption does not hold, so every stage falls
// back to the strided kernel.
func RunStrided[T Float](s *Schedule, x []T, base, stride int) error {
	if s == nil {
		return fmt.Errorf("exec: nil schedule")
	}
	if stride < 1 || base < 0 {
		return fmt.Errorf("exec: invalid base %d / stride %d", base, stride)
	}
	last := base + (s.size-1)*stride
	if last >= len(x) {
		return fmt.Errorf("exec: strided vector [%d:%d:%d] exceeds buffer of length %d",
			base, stride, last, len(x))
	}
	kt := newKernelTable[T](s)
	runStages(s, &kt, x, base, stride)
	return nil
}

// cacheBlockLog is the log2 of the cache block, in elements, that the
// flat executors localize their work to.  Above one block, the leading
// stages whose rows fit a block run block by block (blockedPrefix), and
// vector-bank interleaved rows wider than a block stream in column
// panels (runStageRange).  2^16 elements is 512 KiB of float64.  On
// the 2-vCPU AVX2 host it was measured on, a sweep of 14..19 over
// ForSize(20) and ForSize(22), sequential and at 2 workers, put 14 and
// 15 within 7% of 16 (but 15 23% slower at n = 22 with 2 workers) and
// 17..19 3-23% slower.
const cacheBlockLog = 16

// blockedPrefix returns how many leading stages of s run block by
// block: the stages whose rows (Blk) fit one cache block, or 0 when the
// whole schedule fits one.  Flattened stages have nondecreasing Blk, so
// those stages form a prefix, and a cache block holds whole rows of
// each of them — the prefix may run block after block, each block
// through every prefix stage, with every stage still reading only what
// the stages before it wrote.  A block holds two leaves of
// plan.MaxLeafLog, so above one block the prefix has at least two
// stages.
func blockedPrefix(s *Schedule) int {
	if s.size <= 1<<cacheBlockLog {
		return 0
	}
	p := 0
	for p < len(s.stages) && s.stages[p].Blk <= 1<<cacheBlockLog {
		p++
	}
	return p
}

// blockCalls returns the flattened call range of stage st that lies in
// cache block b: 2^(cacheBlockLog-M) calls, the whole rows inside it.
func blockCalls(st *Stage, b int) (lo, hi int) {
	c := 1 << uint(cacheBlockLog-st.M)
	return b * c, (b + 1) * c
}

// runBlockCtx runs the blocked prefix, stages [0, p), on cache block b
// of x, each stage's calls as one contained chunk (so a kernel panic
// names its stage).
func runBlockCtx[T Float](s *Schedule, kt *kernelTable[T], x []T, p, b int) error {
	for i := range s.stages[:p] {
		st := &s.stages[i]
		lo, hi := blockCalls(st, b)
		if err := runStageChunkRecover(st, i, kt.get(st.M, st.Backend), x, 0, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// runStages replays the whole schedule at (base, stride) with a
// caller-provided kernel table, so multi-vector drivers (Apply2D, batch)
// resolve kernels once.  stride == 1 takes the variant-dispatch path,
// with the blocked prefix run block by block; other strides run every
// stage through the strided kernel.
func runStages[T Float](s *Schedule, kt *kernelTable[T], x []T, base, stride int) {
	if stride == 1 {
		p := blockedPrefix(s)
		for b := 0; p > 0 && b < s.size>>cacheBlockLog; b++ {
			for i := range s.stages[:p] {
				st := &s.stages[i]
				lo, hi := blockCalls(st, b)
				runStageRange(st, kt.get(st.M, st.Backend), x, base, lo, hi)
			}
		}
		for i := p; i < len(s.stages); i++ {
			st := &s.stages[i]
			runStageRange(st, kt.get(st.M, st.Backend), x, base, 0, st.R*st.S)
		}
		return
	}
	for i := range s.stages {
		st := &s.stages[i]
		runStageRangeStrided(st, kt.get(st.M, st.Backend).strided, x, base, stride, 0, st.R*st.S)
	}
}

// runStageRange executes the flattened call slice [lo, hi) of one stage on
// the unit-stride buffer x[base:], dispatching on the stage's compiled
// kernel variant.  Sequential execution passes the full range; the
// parallel evaluator hands disjoint ranges to its workers, and the
// splitting stays variant-correct: indices address (j, k) kernel calls for
// the strided variant, j rows for the contiguous variant (S == 1, so the
// spaces coincide), and (j, k) vector columns for the interleaved variant,
// where partial rows run through the range form of the kernel.
func runStageRange[T Float](st *Stage, ks *kernelSet[T], x []T, base, lo, hi int) {
	switch st.V {
	case codelet.Contiguous:
		// S == 1: flattened index = j, bases advance by Blk = 2^M.
		for j := lo; j < hi; j++ {
			ks.contig(x, base+j*st.Blk)
		}
	case codelet.Interleaved:
		if ks.stridedVec != nil && st.Blk > 1<<cacheBlockLog {
			// A row wider than a cache block: the vector strided walker
			// streams it in column panels of about 32 KB, finishing
			// every level of a panel before the next, where the
			// whole-row pass program would sweep the row once per
			// level pair.
			runStageRangeStridedVec(st, ks, x, base, lo, hi)
			return
		}
		full := ks.il
		if st.Fused {
			// The fused kernel computes bit-identical results, so full and
			// partial rows may mix freely (parallel seams stay exact).
			full = ks.ilFused
		}
		for idx := lo; idx < hi; {
			j := idx >> uint(st.SLog)
			k := idx & (st.S - 1)
			end := idx + st.S - k
			if end > hi {
				end = hi
			}
			rowBase := base + j*st.Blk
			if k == 0 && end-idx == st.S {
				full(x, rowBase, st.S)
			} else {
				ks.ilRange(x, rowBase, st.S, k, k+(end-idx))
			}
			idx = end
		}
	default:
		if ks.stridedVec != nil && st.S >= ks.stridedVecMinS {
			runStageRangeStridedVec(st, ks, x, base, lo, hi)
			return
		}
		runStageRangeStrided(st, ks.strided, x, base, 1, lo, hi)
	}
}

// runStageRangeStridedVec executes the flattened call slice [lo, hi) of
// a strided stage through the vector backend's row kernels: a full
// j-row (all S columns) is the interleaved memory layout, so it streams
// gather-free through chunked fused passes; partial rows at range seams
// run the column sub-range form.  Flattened indices address (j, k)
// kernel calls exactly as the scalar walk, so the parallel executor's
// chunk boundaries land on the same columns — and both forms are
// bitwise-equal to the per-call scalar strided kernel, so full and
// partial rows mix freely.
func runStageRangeStridedVec[T Float](st *Stage, ks *kernelSet[T], x []T, base, lo, hi int) {
	for idx := lo; idx < hi; {
		j := idx >> uint(st.SLog)
		k := idx & (st.S - 1)
		end := idx + st.S - k
		if end > hi {
			end = hi
		}
		rowBase := base + j*st.Blk
		if k == 0 && end-idx == st.S {
			ks.stridedVec(x, rowBase, st.S)
		} else {
			ks.stridedVecRange(x, rowBase, st.S, k, k+(end-idx))
		}
		idx = end
	}
}

// runStageRangeStrided executes the flattened call slice [lo, hi) of one
// stage with the strided kernel: call idx = j*S + k runs the kernel at
// base + (j*Blk + k)*stride with kernel stride S*stride.  It is the
// universal fallback — correct in every calling context, including
// non-unit outer strides.  The loop walks row by row so the common
// full-range case pays no division.
func runStageRangeStrided[T Float](st *Stage, kern func([]T, int, int), x []T, base, stride, lo, hi int) {
	ks := st.S * stride
	for idx := lo; idx < hi; {
		j := idx >> uint(st.SLog)
		k := idx & (st.S - 1)
		rowBase := base + j*st.Blk*stride
		end := idx + st.S - k
		if end > hi {
			end = hi
		}
		for ; idx < end; idx++ {
			kern(x, rowBase+k*stride, ks)
			k++
		}
	}
}
