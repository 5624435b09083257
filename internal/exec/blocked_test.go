package exec

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// blockedPlans returns plans of size 2^n that put the blocked prefix at
// its different lengths: the default, the shortest prefix (two leaves
// of MaxLeafLog on the right, the pair ending exactly at a block when
// cacheBlockLog = 2*MaxLeafLog), every stage but the last (a block-size
// subtree under one small leaf), and many narrow stages on each side of
// the boundary.  Plans of size at most one block have no prefix.
func blockedPlans(n int) []*plan.Node {
	ps := []*plan.Node{plan.Balanced(n, plan.MaxLeafLog), plan.RadixIterative(n, 3)}
	if rest := n - 2*plan.MaxLeafLog; rest > 0 && rest <= plan.MaxLeafLog {
		ps = append(ps, plan.Split(plan.Leaf(rest), plan.Leaf(plan.MaxLeafLog), plan.Leaf(plan.MaxLeafLog)))
	}
	if rest := n - cacheBlockLog; rest > 0 && rest <= plan.MaxLeafLog {
		ps = append(ps, plan.Split(plan.Leaf(rest), plan.Balanced(cacheBlockLog, plan.MaxLeafLog)))
	}
	return ps
}

// TestBlockedPrefixShapes pins which stages the blocked prefix takes on
// the grid's plans: none at or below one block, at least two above it,
// never the last stage, and both ends of the range reached.
func TestBlockedPrefixShapes(t *testing.T) {
	seen := map[string]bool{}
	for n := cacheBlockLog - 1; n <= cacheBlockLog+6; n++ {
		for _, p := range blockedPlans(n) {
			s := Compile(p)
			pre := blockedPrefix(s)
			switch {
			case n <= cacheBlockLog && pre != 0:
				t.Errorf("n=%d %s: prefix %d within one block", n, p, pre)
			case n > cacheBlockLog && (pre < 2 || pre >= s.NumStages()):
				t.Errorf("n=%d %s: prefix %d of %d stages", n, p, pre, s.NumStages())
			}
			for i, st := range s.Stages() {
				if fits := st.Blk <= 1<<cacheBlockLog; i < pre && !fits {
					t.Errorf("n=%d %s: prefix stage %d has Blk %d", n, p, i, st.Blk)
				}
			}
			switch {
			case pre == 0:
				seen["none"] = true
			case pre == 2:
				seen["two"] = true
			case pre == s.NumStages()-1:
				seen["all but last"] = true
			}
		}
	}
	for _, k := range []string{"none", "two", "all but last"} {
		if !seen[k] {
			t.Errorf("no grid plan has a prefix of %s", k)
		}
	}
}

// TestBlockedBitwiseGrid compares the blocked executors against the tree
// walker bit for bit across the block boundary, n = cacheBlockLog-1 ..
// cacheBlockLog+6: the grid plans, the default, strided-only,
// interleave-from-2 and fused policies, 1-3 workers, both element types,
// and uniform or alternating scalar/SIMD stage pins.  Up to 2^(B+1)
// the whole grid runs; above it each size takes one plan in one type
// and one worker count per policy, rotating through them by size, which
// keeps the test near 2 s.
func TestBlockedBitwiseGrid(t *testing.T) {
	pols := []codelet.Policy{codelet.DefaultPolicy(), {StridedOnly: true}, {ILMinS: 2}, {ILFuse: true}}
	rng := rand.New(rand.NewPCG(22, 16))
	for n := cacheBlockLog - 1; n <= cacheBlockLog+6; n++ {
		plans := blockedPlans(n)
		types := []bool{false, true} // float32?
		large := n > cacheBlockLog+1
		if large {
			plans = plans[n%len(plans) : n%len(plans)+1]
			types = types[n%2 : n%2+1]
		}
		x64 := make([]float64, 1<<uint(n))
		for i := range x64 {
			x64[i] = rng.Float64()*2 - 1
		}
		x32 := make([]float32, len(x64))
		for i, v := range x64 {
			x32[i] = float32(v)
		}
		c := 0 // case counter: rotates the stage pins
		for _, p := range plans {
			for _, f32 := range types {
				want64 := append([]float64(nil), x64...)
				want32 := append([]float32(nil), x32...)
				var err error
				if f32 {
					err = Interpret(p, want32)
				} else {
					err = Interpret(p, want64)
				}
				if err != nil {
					t.Fatal(err)
				}
				for pi, pol := range pols {
					for w := 1; w <= 3; w++ {
						if large && w != 1+(pi+n)%3 {
							continue
						}
						c++
						s := CompileWith(p, pol)
						pinStages(t, s, c%3)
						label := fmt.Sprintf("n=%d %s pol=%d w=%d f32=%v %s", n, p, pi, w, f32, s)
						if f32 {
							checkBlocked(t, s, w, x32, want32, label)
						} else {
							checkBlocked(t, s, w, x64, want64, label)
						}
					}
				}
			}
		}
	}
}

// pinStages leaves the compiled backends (mode 0) or pins the stages
// alternately scalar and SIMD, starting with scalar (mode 1) or SIMD
// (mode 2).
func pinStages(t *testing.T, s *Schedule, mode int) {
	t.Helper()
	if mode == 0 {
		return
	}
	bs := make([]codelet.Backend, s.NumStages())
	for i := range bs {
		bs[i] = codelet.ScalarBackend
		if (i+mode)%2 == 0 {
			bs[i] = codelet.SIMDBackend
		}
	}
	if err := s.SetStageBackends(bs); err != nil {
		t.Fatal(err)
	}
}

// checkBlocked runs s on a copy of x with w workers and demands the
// walker's result: one worker through Run, RunCtx and an offset
// RunStrided, more through the barrier fan-out itself (RunCtx runs
// inline below ParallelMinElems).
func checkBlocked[T Float](t *testing.T, s *Schedule, w int, x, want []T, label string) {
	t.Helper()
	got := append([]T(nil), x...)
	if w == 1 {
		MustRun(s, got)
		assertBitwise(t, label+" Run", want, got)
		copy(got, x)
		if err := RunCtx(context.Background(), s, got, 1); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, label+" RunCtx", want, got)
		const base = 3
		buf := make([]T, base+len(x))
		copy(buf[base:], x)
		if err := RunStrided(s, buf, base, 1); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, label+" RunStrided", want, buf[base:])
		return
	}
	if err := runBarrier(context.Background(), s, got, w); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, label+" barrier", want, got)
}
