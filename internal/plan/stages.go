package plan

import (
	"cmp"
	"slices"
)

// Every split tree executes as a sequence of butterfly stages (Serre &
// Püschel): its leaves, last to first, each run once over the whole
// vector.  Trees with the same leaf order run the same stage sequence,
// so the space the engine actually executes is the ordered compositions
// of n into stage sizes m_i <= MaxLeafLog.  Stage i sits at bit offset
// k_i = m_0 + ... + m_{i-1}: it applies WHT(2^m_i) at stride 2^k_i.

// StageSeq is one executed stage sequence and its priced cost.  Stages
// lists the stage sizes in execution order: Stages[0] runs first, at
// stride 1.
type StageSeq struct {
	Stages []int
	Cost   float64
}

// BestStages returns the top cheapest stage sequences for WHT(2^n), at
// most top of them, in ascending cost, where cost(m, k) prices a stage
// of size m at bit offset k and a sequence costs the sum of its stages.
// The DP over the prefix position is exact: each offset keeps its top
// cheapest prefixes, and every one of the top sequences extends a
// prefix kept at its last stage's offset.  It calls cost once per
// (m, k) pair with k + m <= n, at most MaxLeafLog * n times.  Equal
// costs order by fewer stages, then by the order the DP meets them
// (smaller last stage first), so the result is deterministic.
func BestStages(n, top int, cost func(m, k int) float64) []StageSeq {
	mustSize(n)
	top = max(top, 1)
	// best[end] holds the top prefixes covering bits [0, end), each as
	// its last stage and its rank in best[end-m]: the sequences are
	// spelled out only for the final answer.
	type prefix struct {
		cost          float64
		m, prev, size int
	}
	best := make([][]prefix, n+1)
	best[0] = []prefix{{}}
	var cands []prefix
	for end := 1; end <= n; end++ {
		cands = cands[:0]
		for m := 1; m <= min(MaxLeafLog, end); m++ {
			c := cost(m, end-m)
			for i, p := range best[end-m] {
				cands = append(cands, prefix{p.cost + c, m, i, p.size + 1})
			}
		}
		slices.SortStableFunc(cands, func(a, b prefix) int {
			if a.cost != b.cost {
				return cmp.Compare(a.cost, b.cost)
			}
			return a.size - b.size
		})
		best[end] = slices.Clone(cands[:min(top, len(cands))])
	}
	out := make([]StageSeq, len(best[n]))
	for i, p := range best[n] {
		st := make([]int, p.size)
		for end, q := n, p; end > 0; end, q = end-q.m, best[end-q.m][q.prev] {
			st[q.size-1] = q.m
		}
		out[i] = StageSeq{Stages: st, Cost: p.cost}
	}
	return out
}

// FromStages returns a plan that executes the given stage sequence: one
// split whose leaves are the stages in reverse (the last leaf runs
// first), or a single leaf.  It panics on a stage outside [1,
// MaxLeafLog] or a total above MaxPlanLog.
func FromStages(stages []int) *Node {
	if len(stages) == 1 {
		return Leaf(stages[0])
	}
	kids := make([]*Node, len(stages))
	for i, m := range stages {
		kids[len(stages)-1-i] = Leaf(m)
	}
	return Split(kids...)
}
