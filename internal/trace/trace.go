// Package trace generates the exact memory-reference stream of the WHT
// evaluator for a given plan — without touching any data — and drives it
// through the simulated cache/TLB hierarchy while accounting executed
// instructions by class.  It is the reproduction's stand-in for PAPI:
// everything the paper measures (instructions, L1 misses) is read off one
// deterministic walk of the plan.
//
// The reference stream of a leaf call on (base, stride, 2^m) is a read of
// every element followed by a write of every element, in index order, which
// is precisely what the unrolled codelets do.  Because element size, stride
// and line size are powers of two, each pass maps to an arithmetic
// progression of line addresses; consecutive references to the same line
// are collapsed, which is exact for miss counting under any associativity
// and LRU replacement (an access immediately following another to the same
// line can never miss).
package trace

import (
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/plan"
)

// Counters is everything one simulated run produces.
type Counters struct {
	Ops           machine.OpCounts
	LoopInstances int64 // completed loop executions (for the mispredict term)
	LeafCalls     [plan.MaxLeafLog + 1]int64
	Mem           cache.HierarchyCounters
}

// Instructions returns the total executed instruction count, the virtual
// PAPI_TOT_INS.
func (c Counters) Instructions() int64 { return c.Ops.Total() }

// Tracer walks plans on a fixed machine.  A Tracer owns its hierarchy and
// is not safe for concurrent use; create one per worker.
type Tracer struct {
	mach      *machine.Machine
	hier      *cache.Hierarchy
	elemSize  int64
	lineShift uint
	pageShift uint
	leafOps   [plan.MaxLeafLog + 1]machine.OpCounts

	counters Counters
	// priceLanes is the machine's vector width in elements during a
	// RunSchedule* invocation (1 between runs); stages pinned to the
	// SIMD backend price with it, everything else prices scalar — see
	// Tracer.stageLanes.
	priceLanes int
}

// New returns a Tracer for the given machine with a fresh hierarchy.
func New(m *machine.Machine) *Tracer {
	t := &Tracer{
		mach:      m,
		hier:      m.NewHierarchy(),
		elemSize:  int64(m.ElemSize),
		lineShift: m.LineShift(),
		pageShift: m.PageShift(),
	}
	for lg := 1; lg <= plan.MaxLeafLog; lg++ {
		t.leafOps[lg] = m.Cost.LeafOps(lg)
	}
	return t
}

// Machine returns the machine the tracer simulates.
func (t *Tracer) Machine() *machine.Machine { return t.mach }

// Run simulates one evaluation of the plan on a cold hierarchy and returns
// the counters.
func (t *Tracer) Run(p *plan.Node) Counters {
	return t.RunAt(p, 1)
}

// RunAt simulates the plan evaluated at the given element stride on a cold
// hierarchy — the calling context a sub-plan sees inside a larger
// transform.  Context-aware search (search.DPContext) uses this to score
// sub-plans in the stride context they will actually run in, addressing
// the heuristic gap the paper points out for plain dynamic programming.
func (t *Tracer) RunAt(p *plan.Node, stride int) Counters {
	if stride < 1 {
		stride = 1
	}
	t.hier.Reset()
	t.counters = Counters{}
	t.walk(p, 0, stride)
	// Leaf op classes are accumulated in bulk from the call counts.
	for lg := 1; lg <= plan.MaxLeafLog; lg++ {
		if n := t.counters.LeafCalls[lg]; n > 0 {
			t.counters.Ops.Add(t.leafOps[lg].Scale(n))
		}
	}
	t.counters.Mem = t.hier.Counters()
	return t.counters
}

func (t *Tracer) walk(p *plan.Node, base, stride int) {
	if p.IsLeaf() {
		m := p.Log2Size()
		t.counters.LeafCalls[m]++
		t.leafPass(base, stride, p.Size()) // reads
		t.leafPass(base, stride, p.Size()) // writes
		return
	}
	cost := &t.mach.Cost
	t.counters.Ops.Call += cost.NodeSetup
	kids := p.Children()
	r := p.Size()
	s := 1
	for i := len(kids) - 1; i >= 0; i-- {
		c := kids[i]
		ni := c.Size()
		r /= ni
		calls := int64(r) * int64(s)
		t.counters.Ops.Loop += cost.ChildSetup + cost.MidIter*int64(r) + cost.InnerIter*calls
		t.counters.Ops.Call += cost.CallOverhead * calls
		t.counters.LoopInstances += 1 + int64(r) // the j loop plus one k loop per j
		for j := 0; j < r; j++ {
			rowBase := base + j*ni*s*stride
			for k := 0; k < s; k++ {
				t.walk(c, rowBase+k*stride, s*stride)
			}
		}
		s *= ni
	}
}

// leafPass feeds one pass (read or write) over the strided vector into the
// hierarchy, collapsed to line granularity.
func (t *Tracer) leafPass(base, stride, size int) {
	byteBase := int64(base) * t.elemSize
	byteStride := int64(stride) * t.elemSize
	lineBytes := int64(1) << t.lineShift
	pageToLine := t.pageShift - t.lineShift
	if byteStride <= lineBytes {
		// Elements share lines: the pass touches the contiguous line range
		// [first, last] exactly once each after collapsing.
		first := uint64(byteBase) >> t.lineShift
		last := uint64(byteBase+int64(size-1)*byteStride) >> t.lineShift
		for line := first; line <= last; line++ {
			t.hier.AccessData(line, line>>pageToLine)
		}
		return
	}
	// Stride spans whole lines: every element is its own line event.
	step := uint64(byteStride) >> t.lineShift
	line := uint64(byteBase) >> t.lineShift
	for j := 0; j < size; j++ {
		t.hier.AccessData(line, line>>pageToLine)
		line += step
	}
}
