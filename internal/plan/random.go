package plan

import "math/rand/v2"

// Sampler draws random plans from the recursive split uniform distribution
// of Hitczenko–Johnson–Huang [5], the distribution used for the paper's
// 10,000-plan samples: each time the factorization is applied to a node of
// log-size n, every composition n = n1 + ... + nt is equally likely.  The
// trivial composition (n) means "stop and use the unrolled codelet"; when
// n exceeds LeafMax (no codelet available) the choice is uniform over the
// 2^(n-1) - 1 non-trivial compositions.
type Sampler struct {
	rng     *rand.Rand
	leafMax int
}

// NewSampler returns a deterministic sampler seeded with seed.  leafMax
// bounds the codelet sizes used (clamped to [1, MaxLeafLog]).
func NewSampler(seed uint64, leafMax int) *Sampler {
	if leafMax < 1 {
		leafMax = 1
	}
	if leafMax > MaxLeafLog {
		leafMax = MaxLeafLog
	}
	return &Sampler{
		rng:     rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		leafMax: leafMax,
	}
}

// LeafMax returns the maximum codelet log-size the sampler will emit.
func (s *Sampler) LeafMax() int { return s.leafMax }

// Plan draws one random plan for WHT(2^n).
func (s *Sampler) Plan(n int) *Node {
	mustSize(n)
	return s.draw(n)
}

// Plans draws count independent random plans for WHT(2^n).
func (s *Sampler) Plans(n, count int) []*Node {
	mustSize(n)
	out := make([]*Node, count)
	for i := range out {
		out[i] = s.draw(n)
	}
	return out
}

func (s *Sampler) draw(n int) *Node {
	if n == 1 {
		return Leaf(1)
	}
	// A composition of n corresponds to an (n-1)-bit cut mask; mask 0 is the
	// trivial composition (the leaf); MaxPlanLog keeps the mask within a
	// word.
	total := uint64(1) << uint(n-1)
	var mask uint64
	if n <= s.leafMax {
		mask = s.rng.Uint64N(total)
	} else {
		mask = 1 + s.rng.Uint64N(total-1) // exclude the trivial composition
	}
	if mask == 0 {
		return Leaf(n)
	}
	parts := CompositionFromBits(n, mask)
	kids := make([]*Node, len(parts))
	for i, m := range parts {
		kids[i] = s.draw(m)
	}
	return Split(kids...)
}
