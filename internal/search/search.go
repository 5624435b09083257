// Package search finds fast WHT plans, mirroring the WHT package's search
// machinery the paper relies on: dynamic programming over sizes (the
// "best" algorithm of Figures 1–3), exhaustive search for small sizes,
// random search over the rsu distribution, and the paper's conclusion —
// model-pruned search that discards plans with large model values before
// spending any measurement effort on them.
package search

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/trace"
)

// Cost evaluates a plan; lower is better.  Implementations need not be
// safe for concurrent use.  Cost satisfies the Coster interface (see
// coster.go), so functors and closures plug into every search; concurrent
// search (Options.Workers > 1) should use a forkable backend such as
// NewCycleCoster or NewMeasuredCoster instead.
type Cost func(p *plan.Node) float64

// VirtualCycles returns a cost functor measuring deterministic virtual
// cycles on the given machine.  The returned functor owns a tracer and is
// not safe for concurrent use.
func VirtualCycles(m *machine.Machine) Cost {
	tr := trace.New(m)
	return func(p *plan.Node) float64 {
		return core.Measure(tr, p).Cycles
	}
}

// ModelInstructions returns a cost functor evaluating the closed-form
// instruction-count model (no simulation at all).
func ModelInstructions(cost machine.CostModel) Cost {
	return func(p *plan.Node) float64 {
		return float64(core.Instructions(p, cost))
	}
}

// CombinedModel returns the paper's alpha*I + beta*M cost, with M the
// direct-mapped miss model of [8] at 2^lgLines one-element lines.
func CombinedModel(cost machine.CostModel, alpha, beta float64, lgLines int) Cost {
	return func(p *plan.Node) float64 {
		i := core.Instructions(p, cost)
		m := core.DirectMappedMisses(p, lgLines)
		return core.Combined(alpha, beta, i, m)
	}
}

// Options bounds the searches.
type Options struct {
	// LeafMax is the largest codelet log-size considered (default and
	// ceiling plan.MaxLeafLog).
	LeafMax  int
	MaxArity int // largest split arity the DP considers (default 2)
	// Workers sets how many goroutines Random/Pruned evaluate candidates
	// on (<= 1 means sequential).  Candidate generation stays sequential
	// and best-selection breaks ties by candidate index, so a parallel
	// search returns the same plan as the sequential one under a fixed
	// seed — provided the coster's forks score deterministically (the
	// model and virtual-cycle backends do).  Plain Cost functors fork to
	// themselves and may own unsynchronized state, so they always
	// evaluate sequentially regardless of Workers; use NewCycleCoster /
	// NewMeasuredCoster to parallelize.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.LeafMax <= 0 || o.LeafMax > plan.MaxLeafLog {
		o.LeafMax = plan.MaxLeafLog
	}
	if o.MaxArity < 2 {
		o.MaxArity = 2
	}
	return o
}

// Result pairs a plan with its evaluated cost.
type Result struct {
	Plan *plan.Node
	Cost float64
}

// DP performs the WHT package's dynamic-programming search: for each size
// m = 1..n it selects the cheapest plan among the unrolled codelet and
// splits (up to MaxArity parts) whose children are the previously selected
// best plans.  Like the original, it is a heuristic — subplans are
// evaluated in a top-level context even though the optimal subplan depends
// on its calling context (stride), a caveat the paper notes explicitly.
func DP(n int, cost Coster, opt Options) Result {
	opt = opt.withDefaults()
	best := make([]*plan.Node, n+1)
	bestCost := make([]float64, n+1)
	for m := 1; m <= n; m++ {
		bestCost[m] = math.Inf(1)
		if m <= opt.LeafMax {
			leaf := plan.Leaf(m)
			best[m], bestCost[m] = leaf, cost.Cost(leaf)
		}
		// Enumerate compositions of m into 2..MaxArity parts.
		var parts []int
		var build func(remaining, maxParts int)
		build = func(remaining, maxParts int) {
			if remaining == 0 {
				if len(parts) < 2 {
					return
				}
				kids := make([]*plan.Node, len(parts))
				for i, sz := range parts {
					kids[i] = best[sz]
				}
				candidate := plan.Split(kids...)
				if c := cost.Cost(candidate); c < bestCost[m] {
					best[m], bestCost[m] = candidate, c
				}
				return
			}
			if maxParts == 0 {
				return
			}
			for sz := 1; sz <= remaining; sz++ {
				if sz == m { // a single part is not a split
					continue
				}
				parts = append(parts, sz)
				build(remaining-sz, maxParts-1)
				parts = parts[:len(parts)-1]
			}
		}
		build(m, opt.MaxArity)
	}
	return Result{Plan: best[n], Cost: bestCost[n]}
}

// Exhaustive evaluates every plan of size 2^n and returns the optimum.
// Feasible only for small n (the space grows like ~7^n).
func Exhaustive(n int, cost Coster, opt Options) Result {
	opt = opt.withDefaults()
	best := Result{Cost: math.Inf(1)}
	forEachPlan(n, opt.LeafMax, func(p *plan.Node) {
		if c := cost.Cost(p); c < best.Cost {
			best = Result{Plan: p, Cost: c}
		}
	})
	return best
}

// forEachPlan enumerates all plans of size 2^n without materializing the
// whole space at once per node (children lists are still shared).
func forEachPlan(n, leafMax int, visit func(*plan.Node)) {
	memo := make(map[int][]*plan.Node)
	var enum func(k int) []*plan.Node
	enum = func(k int) []*plan.Node {
		if cached, ok := memo[k]; ok {
			return cached
		}
		var out []*plan.Node
		if k <= leafMax {
			out = append(out, plan.Leaf(k))
		}
		if k > 1 {
			for mask := uint64(1); mask < 1<<uint(k-1); mask++ {
				partsList := plan.CompositionFromBits(k, mask)
				var assemble func(i int, kids []*plan.Node)
				assemble = func(i int, kids []*plan.Node) {
					if i == len(partsList) {
						cp := make([]*plan.Node, len(kids))
						copy(cp, kids)
						out = append(out, plan.Split(cp...))
						return
					}
					for _, sub := range enum(partsList[i]) {
						assemble(i+1, append(kids, sub))
					}
				}
				assemble(0, nil)
			}
		}
		memo[k] = out
		return out
	}
	for _, p := range enum(n) {
		visit(p)
	}
}

// Random draws count plans from the recursive split uniform distribution,
// evaluates them all and returns the best along with every result (the raw
// material of the paper's Figures 4–11).  With opt.Workers > 1 the
// evaluations fan out over a worker pool; sampling stays sequential and
// ties break by draw order, so the best plan matches the sequential
// search under the same seed.
func Random(n, count int, seed uint64, cost Coster, opt Options) (Result, []Result) {
	opt = opt.withDefaults()
	s := plan.NewSampler(seed, opt.LeafMax)
	plans := s.Plans(n, count)
	costs := evalAll(plans, cost, opt.Workers)
	all := make([]Result, count)
	for i := range all {
		all[i] = Result{Plan: plans[i], Cost: costs[i]}
	}
	return bestOf(plans, costs), all
}

// Pruned implements the paper's conclusion: draw candidates, rank them by
// a cheap model value, keep only the keepFrac fraction with the smallest
// model values, and spend the expensive cost evaluations on those.  It
// returns the best surviving plan and the number of expensive evaluations
// performed.
// Both scoring phases respect opt.Workers; the model ranking is made
// deterministic by breaking model-value ties on draw order, so the
// parallel search keeps (and selects) the same plans as the sequential
// one under a fixed seed.
func Pruned(n, count int, seed uint64, model Coster, expensive Coster, keepFrac float64, opt Options) (Result, int) {
	opt = opt.withDefaults()
	s := plan.NewSampler(seed, opt.LeafMax)
	plans := s.Plans(n, count)
	modelCosts := evalAll(plans, model, opt.Workers)
	scored := make([]Result, count)
	for i := range scored {
		scored[i] = Result{Plan: plans[i], Cost: modelCosts[i]}
	}
	kept := shortlist(scored, keepFrac)
	costs := evalAll(kept, expensive, opt.Workers)
	return bestOf(kept, costs), len(kept)
}

// shortlist returns the plans of the ceil(keepFrac * len) cheapest
// results, ranked by cost with input order breaking ties (always at
// least one, at most all): the model-filter step of Pruned.
func shortlist(scored []Result, keepFrac float64) []*plan.Node {
	order := make([]int, len(scored))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if scored[ia].Cost != scored[ib].Cost {
			return scored[ia].Cost < scored[ib].Cost
		}
		return ia < ib
	})
	keep := int(math.Ceil(keepFrac * float64(len(scored))))
	if keep < 1 {
		keep = 1
	}
	if keep > len(scored) {
		keep = len(scored)
	}
	out := make([]*plan.Node, keep)
	for i := range out {
		out[i] = scored[order[i]].Plan
	}
	return out
}
