// Package core implements the paper's primary contribution: performance
// models computed from the high-level description of a WHT algorithm, and
// the virtual measurement that ties them to (simulated) runtime.
//
//   - Model: the instruction-count model of Hitczenko–Johnson–Huang [5],
//     a closed-form recurrence over the plan tree.  It agrees *exactly*
//     with the instructions accounted by the trace-driven simulator
//     (asserted by tests), mirroring the paper's statement that the model
//     counts what PAPI measures.
//   - DirectMappedMisses: the cache-miss model of Furis–Hitczenko–Johnson
//     [8] — misses of the reference stream in a direct-mapped cache with
//     one-element lines.
//   - Cycles: the virtual-cycle formula of the simulated Opteron, combining
//     instruction classes, ILP stalls, branch mispredictions, cache/TLB
//     penalties and a deterministic per-plan jitter.
//   - Combined: the paper's alpha*I + beta*M model.
package core

import (
	"math"

	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/trace"
)

// ModelCounts is the output of the closed-form instruction model: the same
// quantities the tracer accounts, derived without iterating any loop.
type ModelCounts struct {
	Ops           machine.OpCounts
	LoopInstances int64
	LeafCalls     [plan.MaxLeafLog + 1]int64
}

// Instructions returns the modelled total instruction count ("I").
func (m ModelCounts) Instructions() int64 { return m.Ops.Total() }

// Model evaluates the instruction-count recurrence on the plan:
//
//	A(leaf m)            = leaf-op vector
//	A(split n; n1..nt)   = node setup + sum_i [ child setup
//	                       + R_i * mid-iter + 2^(n-ni) * inner-iter
//	                       + 2^(n-ni) * (call + A(subtree_i)) ]
//
// where R_i = 2^(n - n1 - ... - ni) is the middle-loop trip count of child
// i and 2^(n-ni) its total number of calls.
func Model(p *plan.Node, cost machine.CostModel) ModelCounts {
	var rec func(q *plan.Node) ModelCounts
	rec = func(q *plan.Node) ModelCounts {
		var out ModelCounts
		if q.IsLeaf() {
			out.Ops = cost.LeafOps(q.Log2Size())
			out.LeafCalls[q.Log2Size()] = 1
			return out
		}
		out.Ops.Call = cost.NodeSetup
		n := q.Log2Size()
		// Children execute from last to first; child i runs at stride
		// 2^suffix where suffix is the total log-size of the children after
		// it, with middle-loop trip count R_i = 2^(n - suffix - ni).
		kids := q.Children()
		suffix := 0
		for i := len(kids) - 1; i >= 0; i-- {
			c := kids[i]
			ni := c.Log2Size()
			r := int64(1) << uint(n-suffix-ni)
			calls := int64(1) << uint(n-ni) // r * s with s = 2^suffix
			out.Ops.Loop += cost.ChildSetup + cost.MidIter*r + cost.InnerIter*calls
			out.Ops.Call += cost.CallOverhead * calls
			out.LoopInstances += 1 + r

			sub := rec(c)
			out.Ops.Add(sub.Ops.Scale(calls))
			out.LoopInstances += sub.LoopInstances * calls
			for lg := 1; lg <= plan.MaxLeafLog; lg++ {
				out.LeafCalls[lg] += sub.LeafCalls[lg] * calls
			}
			suffix += ni
		}
		return out
	}
	return rec(p)
}

// Instructions is shorthand for Model(p, cost).Instructions().
func Instructions(p *plan.Node, cost machine.CostModel) int64 {
	return Model(p, cost).Instructions()
}

// Cycles evaluates the virtual-cycle formula on measured counters.  The
// planHash keys the deterministic jitter term; pass plan.Hash().
func Cycles(c trace.Counters, m *machine.Machine, planHash uint64) float64 {
	cy := &m.Cycle
	base := float64(c.Ops.Arith)*cy.ArithCPI +
		float64(c.Ops.Load)*cy.LoadCPI +
		float64(c.Ops.Store)*cy.StoreCPI +
		float64(c.Ops.Addr)*cy.AddrCPI +
		float64(c.Ops.Loop)*cy.LoopCPI +
		float64(c.Ops.Call)*cy.CallCPI +
		float64(c.Ops.SpillLd+c.Ops.SpillSt)*cy.SpillCPI

	var stall float64
	for lg := 1; lg <= plan.MaxLeafLog && lg < cy.StallBase; lg++ {
		if n := c.LeafCalls[lg]; n > 0 {
			stall += float64(n) * float64(cy.StallBase-lg) * float64(int64(1)<<uint(lg)) * cy.StallCPE
		}
	}
	branch := float64(c.LoopInstances) * cy.Mispredict
	mem := float64(c.Mem.L1Misses)*cy.L1Penalty +
		float64(c.Mem.L2Misses)*cy.L2Penalty +
		float64(c.Mem.TLB1Misses)*cy.TLB1Penalty +
		float64(c.Mem.TLB2Misses)*cy.TLB2Penalty
	jitter := (hash01(planHash) - 0.5) * cy.JitterFrac * base
	return base + stall + branch + mem + jitter
}

// hash01 maps a hash to [0, 1) via the splitmix64 finalizer, decorrelating
// it from any structure in the plan hash.
func hash01(h uint64) float64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Measurement is one virtual PAPI reading of one plan: the reproduction's
// analogue of the paper's (cycles, instructions, misses) triple.
type Measurement struct {
	Plan         *plan.Node
	Counters     trace.Counters
	Instructions int64
	L1Misses     int64
	L2Misses     int64
	TLBMisses    int64
	Cycles       float64
}

// Measure runs the plan through the tracer and evaluates the cycle model.
func Measure(t *trace.Tracer, p *plan.Node) Measurement {
	c := t.Run(p)
	return Measurement{
		Plan:         p,
		Counters:     c,
		Instructions: c.Instructions(),
		L1Misses:     int64(c.Mem.L1Misses),
		L2Misses:     int64(c.Mem.L2Misses),
		TLBMisses:    int64(c.Mem.TLB1Misses),
		Cycles:       Cycles(c, t.Machine(), p.Hash()),
	}
}

// Combined evaluates the paper's linear model alpha*I + beta*M.
func Combined(alpha, beta float64, instructions, misses int64) float64 {
	return alpha*float64(instructions) + beta*float64(misses)
}

// DirectMappedMisses computes the miss count of the plan's reference stream
// in a direct-mapped cache with 2^lgLines one-element lines: the analytic
// cache model of [8].  It is a function of the high-level algorithm only
// (no data is touched).
func DirectMappedMisses(p *plan.Node, lgLines int) int64 {
	if lgLines < 0 || lgLines > 30 {
		return 0
	}
	lines := 1 << uint(lgLines)
	tags := make([]int32, lines)
	for i := range tags {
		tags[i] = -1
	}
	mask := int32(lines - 1)
	var misses int64
	pass := func(base, stride, size int32) {
		addr := base
		for j := int32(0); j < size; j++ {
			set := addr & mask
			if tags[set] != addr {
				tags[set] = addr
				misses++
			}
			addr += stride
		}
	}
	var walk func(q *plan.Node, base, stride int32)
	walk = func(q *plan.Node, base, stride int32) {
		if q.IsLeaf() {
			size := int32(1) << uint(q.Log2Size())
			pass(base, stride, size)
			pass(base, stride, size)
			return
		}
		kids := q.Children()
		r := int32(q.Size())
		s := int32(1)
		for i := len(kids) - 1; i >= 0; i-- {
			c := kids[i]
			ni := int32(c.Size())
			r /= ni
			for j := int32(0); j < r; j++ {
				rowBase := base + j*ni*s*stride
				for k := int32(0); k < s; k++ {
					walk(c, rowBase+k*stride, s*stride)
				}
			}
			s *= ni
		}
	}
	walk(p, 0, 1)
	return misses
}

// CyclesFromSeconds converts measured wall time to nominal machine cycles,
// for comparing real Go runtimes against the virtual counters.
func CyclesFromSeconds(seconds float64, m *machine.Machine) float64 {
	return math.Max(0, seconds) * m.ClockHz
}
