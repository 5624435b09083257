package plan

import "fmt"

// This file constructs the canonical algorithms discussed in Section 2 of
// the paper: iterative, right-recursive, left-recursive (corresponding to
// the radix-2 iterative and the standard recursive FFT algorithms), plus two
// families that are useful baselines: balanced recursive plans and radix-2^k
// iterative plans with larger base cases.

// Iterative returns the iterative algorithm for WHT(2^n): a single
// application of the factorization with n1 = ... = nt = 1 (t = n).
// For n = 1 it is the size-2 codelet itself.
func Iterative(n int) *Node {
	mustSize(n)
	if n == 1 {
		return Leaf(1)
	}
	kids := make([]*Node, n)
	for i := range kids {
		kids[i] = Leaf(1)
	}
	return Split(kids...)
}

// RightRecursive returns the right-recursive algorithm:
// split[small[1], RightRecursive(n-1)], the analogue of the standard
// recursive FFT.
func RightRecursive(n int) *Node {
	mustSize(n)
	if n == 1 {
		return Leaf(1)
	}
	return Split(Leaf(1), RightRecursive(n-1))
}

// LeftRecursive returns the left-recursive algorithm:
// split[LeftRecursive(n-1), small[1]].
func LeftRecursive(n int) *Node {
	mustSize(n)
	if n == 1 {
		return Leaf(1)
	}
	return Split(LeftRecursive(n-1), Leaf(1))
}

// Balanced returns a recursively halved plan whose subtrees become leaves
// once they fit in a codelet of log-size at most leafMax.  It is the
// cache-oblivious style of plan and a strong baseline for large sizes.
// leafMax is clamped to [1, MaxLeafLog].
func Balanced(n, leafMax int) *Node {
	mustSize(n)
	if leafMax < 1 {
		leafMax = 1
	}
	if leafMax > MaxLeafLog {
		leafMax = MaxLeafLog
	}
	if n <= leafMax {
		return Leaf(n)
	}
	hi := n / 2
	return Split(Balanced(n-hi, leafMax), Balanced(hi, leafMax))
}

// RadixIterative returns a single-level split using codelets of log-size k
// (the final part picks up the remainder): the radix-2^k iterative
// algorithm.  k is clamped to [1, MaxLeafLog].
func RadixIterative(n, k int) *Node {
	mustSize(n)
	if k < 1 {
		k = 1
	}
	if k > MaxLeafLog {
		k = MaxLeafLog
	}
	if n <= k {
		return Leaf(n)
	}
	var kids []*Node
	rem := n
	for rem > 0 {
		step := k
		if rem < k {
			step = rem
		}
		// Avoid a trailing tiny part when possible by merging it into the
		// previous codelet if the pair still fits.
		if rem > k && rem-k < 1 {
			step = rem
		}
		kids = append(kids, Leaf(step))
		rem -= step
	}
	if len(kids) == 1 {
		return kids[0]
	}
	return Split(kids...)
}

func mustSize(n int) {
	if n < 1 || n > MaxPlanLog {
		panic(fmt.Sprintf("plan: transform log-size %d outside [1, %d]", n, MaxPlanLog))
	}
}
