// Package exec is the compiled execution engine of the WHT library: it
// flattens the recursive interpretation of a plan tree (internal/plan) into
// a linear Schedule of stage operations computed once, and executes
// schedules with a single generic executor shared by the float64 and
// float32 engines, the strided/2-D paths, the parallel evaluator and the
// batch API.
//
// The flattening rests on the observation of Serre & Püschel
// ("Characterizing and Enumerating Walsh-Hadamard Transform Algorithms")
// that every WHT split-tree algorithm is a sequence of butterfly/kernel
// stages: unrolling the triple loop of the paper's Section 2 through the
// recursion shows that each leaf codelet, in its full calling context,
// executes as one stage of the canonical form
//
//	I(R) (x) WHT(2^m) (x) I(S)            with R * 2^m * S = 2^n,
//
// i.e. the kernel of log-size m runs at bases j*2^m*S + k (j < R, k < S)
// with stride S.  Compile computes the (m, R, S) sequence once; Run then
// replays it with no recursion, no per-node dispatch and no tree at all —
// the compile-once/run-many architecture of SPIRAL-generated code and
// FFHT-style libraries.
//
// Compile additionally specializes each stage to a kernel variant chosen
// from its shape (codelet.Policy): stride-1 stages run the contiguous
// kernel, large-S stages run the interleaved kernel that absorbs the
// inner k-loop into unit-stride streaming passes, and the rest run the
// strided codelet — the stage-shape axis the paper identifies as the
// dominant performance dimension.  Plan leaves are bounded by
// plan.MaxLeafLog, so every stage is one butterfly array of at most
// 2^plan.MaxLeafLog points; on the scalar tier it runs an unrolled
// codelet where one beats the loop (strided, and contiguous up to
// codelet.GeneratedContigMaxLog) and a codelet.Generic* loop otherwise.
//
// Schedules are immutable after Compile and safe for concurrent use; one
// schedule serves both element types.
package exec

import (
	"fmt"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// Float constrains the element types the engine executes on: the
// codelet package's two concrete types (no ~), because unrolled codelet
// tables and vector kernels exist exactly for float64 and float32 and the
// kernel lookup dispatches on the dynamic type.
type Float = codelet.Float

// Stage is one compiled stage op: apply the kernel of log-size M at bases
// j*(S<<M) + k for j < R, k < S, each call reading the strided vector of
// stride S.  All R*S calls of a stage touch pairwise disjoint elements, so
// a stage may be executed in any order or concurrently; stages must run in
// schedule order because stage i+1 reads what stage i wrote.
//
// V is the kernel variant the stage executes with when the outer buffer is
// unit-stride (the common case); executors running inside a non-unit outer
// stride (RunStrided, Apply2D columns) fall back to the strided kernel,
// whose correctness does not depend on vector adjacency.
type Stage struct {
	M    int // kernel log-size: the stage applies WHT(2^M) kernels
	R    int // outer repetitions (the I(R) factor)
	S    int // inner repetitions and kernel stride (the I(S) factor)
	SLog int // log2(S), for splitting the flattened (j, k) space
	Blk  int // S << M: base step between consecutive j rows
	V    codelet.Variant
	// Fused marks an interleaved stage compiled under Policy.ILFuse: full
	// rows run the radix-4 fused streaming kernel (two butterfly levels
	// per pass, bitwise-equal to the single-level kernel).
	Fused bool
	// Backend pins the kernel backend this stage executes with.  Compile
	// initializes it from the policy's Backend; SetStageBackends overrides
	// it per stage — the tuner's backend sweep uses that to mix a SIMD
	// streaming stage with a scalar strided one in a single schedule.
	// Every backend computes bitwise-identical results, so the field is
	// purely a performance choice; it resolves against the process
	// override and host availability at run time (codelet.EffectiveSIMD).
	Backend codelet.Backend
}

// Calls returns the number of kernel invocations in the stage (R*S).
func (st Stage) Calls() int { return st.R * st.S }

// Schedule is the compiled form of a plan: the linear stage sequence whose
// in-order execution equals the recursive interpretation of the tree.
type Schedule struct {
	n      int // log2 of the transform size
	size   int // 2^n
	stages []Stage
	policy codelet.Policy

	// Segmented (out-of-core) execution form, set only by
	// NewSegmentedScheduleWith when the two-phase plan form actually
	// splits: the ordered segment list, the compile-time resident
	// budget exponent, and the source form.  All nil/zero for flat
	// schedules, which therefore keep their exact pre-segmentation
	// behavior on every code path (see segment.go).
	segments    []Segment
	residentLog int
	segPlan     *plan.SegNode
}

// Log2Size returns n such that the schedule computes WHT(2^n).
func (s *Schedule) Log2Size() int { return s.n }

// Size returns the transform length 2^n.
func (s *Schedule) Size() int { return s.size }

// Stages returns the compiled stage sequence.  The slice is owned by the
// schedule and must not be modified.
func (s *Schedule) Stages() []Stage { return s.stages }

// NumStages returns the number of stages (= leaves of the source plan).
func (s *Schedule) NumStages() int { return len(s.stages) }

// Policy returns the variant-selection policy the schedule was compiled
// under.
func (s *Schedule) Policy() codelet.Policy { return s.policy }

// SIMDEnabled reports whether any stage of this schedule resolves to the
// vector backend right now, resolving each stage's Backend against the
// process override and host availability at call time (see
// codelet.EffectiveSIMD).  Schedules compiled under a uniform policy have
// every stage on the policy's backend, so this degenerates to the old
// per-schedule answer; mixed-pin schedules (SetStageBackends) report
// true when at least one stage runs vectorized.  Either way the computed
// results are bitwise identical; only throughput changes.
func (s *Schedule) SIMDEnabled() bool {
	for i := range s.stages {
		if codelet.EffectiveSIMD(s.stages[i].Backend) {
			return true
		}
	}
	return false
}

// StageBackends returns a copy of the per-stage backend vector, one
// entry per stage in schedule order.
func (s *Schedule) StageBackends() []codelet.Backend {
	out := make([]codelet.Backend, len(s.stages))
	for i := range s.stages {
		out[i] = s.stages[i].Backend
	}
	return out
}

// SetStageBackends pins each stage's kernel backend, overriding the
// uniform assignment Compile made from the policy.  The vector must have
// exactly one entry per stage (NumStages).  Schedules are otherwise
// immutable and shared without synchronization, so this must be called
// before the schedule is published to other goroutines.  The tuner's
// per-stage backend sweep records its winning vector through this;
// every mix computes bitwise-identical results.
func (s *Schedule) SetStageBackends(bs []codelet.Backend) error {
	if len(bs) != len(s.stages) {
		return fmt.Errorf("exec: %d stage backends for %d stages", len(bs), len(s.stages))
	}
	for i, b := range bs {
		switch b {
		case codelet.AutoBackend, codelet.ScalarBackend, codelet.SIMDBackend:
		default:
			return fmt.Errorf("exec: stage %d: unknown backend %v", i, b)
		}
		s.stages[i].Backend = b
	}
	return nil
}

// String renders the schedule as its stage sequence with the selected
// kernel variant per stage (fused interleaved stages as "il+f"), e.g.
// "[I1 x W2^2 x I4 strided] [I4 x W2^2 x I1 contig]".  Stages whose
// backend was pinned away from the compile policy's (SetStageBackends)
// carry an "@backend" suffix, so mixed-pin schedules print their pins.
func (s *Schedule) String() string {
	out := ""
	for i, st := range s.stages {
		if i > 0 {
			out += " "
		}
		v := st.V.String()
		if st.Fused {
			v += "+f"
		}
		if st.Backend != s.policy.Backend {
			v += "@" + st.Backend.String()
		}
		out += fmt.Sprintf("[I%d x W2^%d x I%d %s]", st.R, st.M, st.S, v)
	}
	return out
}

// Compile flattens the plan into a schedule under the default variant
// policy.  It panics on a nil or structurally invalid plan (plans built
// with plan.Leaf/Split/Parse are always valid); use NewSchedule to get an
// error instead.
func Compile(p *plan.Node) *Schedule {
	s, err := NewSchedule(p)
	if err != nil {
		panic(err)
	}
	return s
}

// CompileWith is Compile under an explicit variant-selection policy.
func CompileWith(p *plan.Node, pol codelet.Policy) *Schedule {
	s, err := NewScheduleWith(p, pol)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSchedule flattens the plan into a schedule under the default variant
// policy, or reports why it cannot.
func NewSchedule(p *plan.Node) (*Schedule, error) {
	return NewScheduleWith(p, codelet.DefaultPolicy())
}

// NewScheduleWith flattens the plan into a schedule, selecting each
// stage's kernel variant with pol.
func NewScheduleWith(p *plan.Node, pol codelet.Policy) (*Schedule, error) {
	if p == nil {
		return nil, fmt.Errorf("exec: nil plan")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	s := &Schedule{
		n:      p.Log2Size(),
		size:   p.Size(),
		stages: make([]Stage, 0, p.CountLeaves()),
		policy: pol,
	}
	flatten(p, 1, 1, pol, &s.stages)
	return s, nil
}

// flatten emits the stages of p invoked in context (r, s): the node runs
// r*s times at bases j*2^n*s + k (j < r, k < s) with stride s.  The triple
// loop processes children last to first; a child at local position
// (rLoc, sLoc) composes with the context as R = r*rLoc, S = sLoc*s — the
// index algebra collapses exactly because sibling sizes multiply to the
// parent size, so the canonical two-loop base pattern is closed under the
// recursion.
func flatten(p *plan.Node, r, s int, pol codelet.Policy, out *[]Stage) {
	if p.IsLeaf() {
		*out = append(*out, newStage(p.Log2Size(), r, s, pol))
		return
	}
	kids := p.Children()
	rLoc := p.Size()
	sLoc := 1
	for i := len(kids) - 1; i >= 0; i-- {
		c := kids[i]
		rLoc /= c.Size()
		flatten(c, r*rLoc, sLoc*s, pol, out)
		sLoc *= c.Size()
	}
}

// newStage builds the stage I(r) (x) WHT(2^m) (x) I(s) with its kernel
// variant selected by pol for that shape, on the policy's backend.
func newStage(m, r, s int, pol codelet.Policy) Stage {
	v := pol.Select(m, s)
	return Stage{
		M:       m,
		R:       r,
		S:       s,
		SLog:    log2(s),
		Blk:     s << uint(m),
		V:       v,
		Fused:   pol.ILFuse && v == codelet.Interleaved && m >= 2,
		Backend: pol.Backend,
	}
}

func log2(v int) int {
	lg := 0
	for ; v > 1; v >>= 1 {
		lg++
	}
	return lg
}

// kernelSet bundles the typed kernels of one log-size, one per variant,
// plus the range form of the interleaved kernel the parallel executor
// needs when a worker's share covers only part of a j-row.
//
// The stridedVec slots are the vector backend's gather-free strided
// tier: a full j-row of a strided stage — all S kernel calls — is the
// interleaved memory layout, so the row runs as chunked unit-stride
// fused streaming passes when S reaches the vector width
// (stridedVecMinS).  They are populated only in the SIMD bank; rows
// narrower than the width and non-unit outer strides keep the per-call
// scalar strided kernel.
type kernelSet[T Float] struct {
	strided func(x []T, base, stride int)
	contig  func(x []T, base int)
	il      func(x []T, base, s int)
	ilFused func(x []T, base, s int)
	ilRange func(x []T, base, s, kLo, kHi int)

	stridedVec      func(x []T, base, s int)
	stridedVecRange func(x []T, base, s, kLo, kHi int)
	stridedVecMinS  int
}

// kernelsFor resolves the kernel set for log-size m.  The scalar bank
// binds the Generic* loops, then overlays the unrolled strided and
// contiguous codelets where cmd/whtgen generated them (every strided
// size, contiguous up to codelet.GeneratedContigMaxLog); the loops are
// called directly from the closures, so one body serves both element
// types.  The two concrete instantiations share the Float type set, so
// the assertions through any are exact.
//
// simd selects the vector backend for the streaming slots (il, ilFused,
// ilRange) — exactly the kernels whose unit-stride
// inner sweeps the vector unit consumes, and bitwise-equal to their
// scalar forms by the codelet package's contract.  It additionally
// populates the stridedVec slots (wide strided rows stream gather-free,
// see kernelSet) and replaces the contig slot with the vectorized
// contiguous kernel once the transform spans the four vectors of its
// in-register head.
func kernelsFor[T Float](m int, simd bool) kernelSet[T] {
	ks := kernelSet[T]{
		strided: func(x []T, base, stride int) { codelet.Generic(x, base, stride, m) },
		contig:  func(x []T, base int) { codelet.GenericContig(x, base, m) },
		il:      func(x []T, base, s int) { codelet.GenericIL(x, base, s, m) },
		ilFused: func(x []T, base, s int) { codelet.GenericILFused(x, base, s, m) },
		ilRange: func(x []T, base, s, kLo, kHi int) { codelet.GenericILRange(x, base, s, kLo, kHi, m) },
	}
	switch ks := any(&ks).(type) {
	case *kernelSet[float64]:
		if k := codelet.For(m); k != nil {
			ks.strided = k
		}
		if k := codelet.ForContig(m); k != nil {
			ks.contig = k
		}
		if !simd {
			break
		}
		// The vector pass program fuses level pairs itself, so the
		// plain and fused interleaved slots run one kernel.
		ks.il = func(x []float64, base, s int) { codelet.SIMDIL(x, base, s, m) }
		ks.ilFused = ks.il
		ks.ilRange = func(x []float64, base, s, kLo, kHi int) {
			codelet.SIMDILRange(x, base, s, kLo, kHi, m)
		}
		ks.stridedVec = func(x []float64, base, s int) { codelet.SIMDStrided(x, base, s, m) }
		ks.stridedVecRange = func(x []float64, base, s, kLo, kHi int) {
			codelet.SIMDStridedRange(x, base, s, kLo, kHi, m)
		}
		ks.stridedVecMinS = codelet.SIMDWidth64
		if 1<<uint(m) >= 4*codelet.SIMDWidth64 {
			// Four vectors fill the in-register head; smaller
			// kernels keep the unrolled scalar contiguous codelet
			// (machine.SIMDVectorizes mirrors this gate).
			ks.contig = func(x []float64, base int) { codelet.SIMDContig(x, base, m) }
		}
	case *kernelSet[float32]:
		if k := codelet.For32(m); k != nil {
			ks.strided = k
		}
		if k := codelet.ForContig32(m); k != nil {
			ks.contig = k
		}
		if !simd {
			break
		}
		ks.il = func(x []float32, base, s int) { codelet.SIMDIL32(x, base, s, m) }
		ks.ilFused = ks.il
		ks.ilRange = func(x []float32, base, s, kLo, kHi int) {
			codelet.SIMDILRange32(x, base, s, kLo, kHi, m)
		}
		ks.stridedVec = func(x []float32, base, s int) { codelet.SIMDStrided32(x, base, s, m) }
		ks.stridedVecRange = func(x []float32, base, s, kLo, kHi int) {
			codelet.SIMDStridedRange32(x, base, s, kLo, kHi, m)
		}
		ks.stridedVecMinS = codelet.SIMDWidth32
		if 1<<uint(m) >= 4*codelet.SIMDWidth32 {
			ks.contig = func(x []float32, base int) { codelet.SIMDContig32(x, base, m) }
		}
	}
	return ks
}

// kernelTable resolves the kernel set of each (leaf size, backend)
// pair a schedule needs: bank 0 holds the scalar sets, bank 1 the
// vector sets, and get resolves each stage's pinned Backend to a bank
// at lookup time — so a mixed-pin schedule runs both tiers from one
// table.
//
// A kernel set depends only on the element type, bank and size, so
// every set is built once per process in the package-level
// unrolledBanks and get returns pointers into them: constructing a table
// and dispatching through it allocates nothing.  Executors construct
// tables with newKernelTable so AutoBackend stages follow SetBackend /
// WHT_SIMD changes between runs; the zero value resolves every backend
// to the scalar bank — what Interpret's strided-only walker uses.
type kernelTable[T Float] struct {
	// auto is the bank AutoBackend stages resolve to, computed once per
	// table from the process override and host availability.
	auto bool
}

// unrolledBanks holds the scalar (bank 0) and vector (bank 1) kernel sets
// of every leaf size a plan may carry, indexed by log-size.
type unrolledBanks[T Float] [2][plan.MaxLeafLog + 1]kernelSet[T]

var (
	unrolled64 = buildUnrolledBanks[float64]()
	unrolled32 = buildUnrolledBanks[float32]()
)

func buildUnrolledBanks[T Float]() *unrolledBanks[T] {
	b := new(unrolledBanks[T])
	for m := range b[0] {
		b[0][m] = kernelsFor[T](m, false)
		b[1][m] = kernelsFor[T](m, true)
	}
	return b
}

// unrolledBanksFor returns the process-wide kernel banks of T.
func unrolledBanksFor[T Float]() *unrolledBanks[T] {
	if b, ok := any(unrolled64).(*unrolledBanks[T]); ok {
		return b
	}
	return any(unrolled32).(*unrolledBanks[T])
}

// newKernelTable returns the kernel table for a schedule, resolving the
// AutoBackend tier against the process override and host availability at
// run time — so one compiled schedule follows SetBackend / WHT_SIMD
// changes between runs.  (The schedule argument documents intent — every
// executor builds exactly one table per schedule run — and keeps the
// construction site uniform; the resolution itself is process-global.)
func newKernelTable[T Float](s *Schedule) kernelTable[T] {
	return kernelTable[T]{auto: codelet.EffectiveSIMD(codelet.AutoBackend)}
}

func (kt *kernelTable[T]) get(m int, b codelet.Backend) *kernelSet[T] {
	// Validated plans bound leaf sizes to [1, plan.MaxLeafLog], so m
	// always indexes the banks.
	simd := false
	switch b {
	case codelet.AutoBackend:
		simd = kt.auto
	case codelet.SIMDBackend:
		// An explicit SIMD pin degrades to scalar on hosts without the
		// vector tier — bitwise-identical either way.
		simd = codelet.SIMDAvailable()
	}
	bank := 0
	if simd {
		bank = 1
	}
	return &unrolledBanksFor[T]()[bank][m]
}
