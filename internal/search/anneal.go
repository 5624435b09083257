package search

import (
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/plan"
)

// Stochastic local search over the plan space, in the spirit of the
// learning/stochastic searches of Singer & Veloso cited by the paper
// ([11, 12]): a neighborhood move replaces one random subtree with a
// freshly sampled one of the same size, and simulated annealing accepts
// uphill moves with temperature-decaying probability.  Combined with the
// model-pruned seeding (Pruned / theory.MinInstructionPlan) it explores
// the space far more cheaply than blind random search.

// Neighbor returns a copy of p with one uniformly chosen subtree replaced
// by a fresh draw from the recursive split uniform distribution of the
// same log-size.  The result is always a valid plan of the same size.
func Neighbor(p *plan.Node, s *plan.Sampler, rng *rand.Rand) *plan.Node {
	target := rng.IntN(p.CountNodes())
	counter := 0
	var rebuild func(q *plan.Node) *plan.Node
	rebuild = func(q *plan.Node) *plan.Node {
		if counter == target {
			counter++
			return s.Plan(q.Log2Size())
		}
		counter++
		if q.IsLeaf() {
			return q
		}
		kids := q.Children()
		newKids := make([]*plan.Node, len(kids))
		for i, c := range kids {
			newKids[i] = rebuild(c)
		}
		return plan.Split(newKids...)
	}
	return rebuild(p)
}

// AnnealOptions tunes the annealing schedule.
type AnnealOptions struct {
	Iterations int     // cost evaluations per chain (default 200)
	StartTemp  float64 // initial temperature as a fraction of the seed cost (default 0.05)
	LeafMax    int
	// Restarts runs that many independent chains (seeded rngSeed,
	// rngSeed+1, ...) concurrently on forked costers and returns the best
	// plan over all chains, ties broken toward the lowest chain index —
	// deterministic for deterministic coster backends.  <= 1 means one
	// sequential chain.
	Restarts int
}

// Anneal runs simulated annealing from the given seed plan (pass nil to
// start from a random draw).  It returns the best plan encountered and
// the number of cost evaluations spent across all chains.
func Anneal(n int, seed *plan.Node, cost Coster, rngSeed uint64, opt AnnealOptions) (Result, int) {
	if opt.Restarts > 1 {
		results := make([]Result, opt.Restarts)
		evals := make([]int, opt.Restarts)
		single := opt
		single.Restarts = 1
		if _, plain := cost.(Cost); plain {
			// A plain Cost functor forks to itself and need not be safe
			// for concurrent use (VirtualCycles owns one tracer), so its
			// chains run sequentially — same plans, same result, no race.
			for i := 0; i < opt.Restarts; i++ {
				results[i], evals[i] = Anneal(n, seed, cost, rngSeed+uint64(i), single)
			}
		} else {
			var wg sync.WaitGroup
			for i := 0; i < opt.Restarts; i++ {
				fork := cost.Fork()
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], evals[i] = Anneal(n, seed, fork, rngSeed+uint64(i), single)
				}(i)
			}
			wg.Wait()
		}
		best := Result{Cost: math.Inf(1)}
		total := 0
		for i, r := range results {
			total += evals[i]
			if r.Cost < best.Cost {
				best = r
			}
		}
		return best, total
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 200
	}
	if opt.StartTemp <= 0 {
		opt.StartTemp = 0.05
	}
	if opt.LeafMax <= 0 || opt.LeafMax > plan.MaxLeafLog {
		opt.LeafMax = plan.MaxLeafLog
	}
	sampler := plan.NewSampler(rngSeed, opt.LeafMax)
	rng := rand.New(rand.NewPCG(rngSeed, 0x51ed2701))

	current := seed
	if current == nil {
		current = sampler.Plan(n)
	}
	currentCost := cost.Cost(current)
	best := Result{Plan: current, Cost: currentCost}
	evaluations := 1

	temp0 := opt.StartTemp * currentCost
	for i := 1; i < opt.Iterations; i++ {
		// Exponential cooling to ~1% of the starting temperature.
		frac := float64(i) / float64(opt.Iterations)
		temp := temp0 * math.Pow(0.01, frac)

		candidate := Neighbor(current, sampler, rng)
		c := cost.Cost(candidate)
		evaluations++
		accept := c < currentCost
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp((currentCost-c)/temp)
		}
		if accept {
			current, currentCost = candidate, c
		}
		if c < best.Cost {
			best = Result{Plan: candidate, Cost: c}
		}
	}
	return best, evaluations
}
