package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/trace"
)

// The paper's central premise: the instruction-count model, evaluated from
// the high-level description alone, counts exactly what the (virtual)
// hardware executes.  Model and tracer are implemented independently —
// closed-form recurrence vs. actual loop iteration — so this equality is a
// strong cross-check of both.
func TestModelMatchesTraceExactly(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := trace.New(m)
	s := plan.NewSampler(5, plan.MaxLeafLog)
	plans := []*plan.Node{
		plan.Leaf(1),
		plan.Leaf(8),
		plan.Iterative(12),
		plan.RightRecursive(12),
		plan.LeftRecursive(12),
		plan.Balanced(14, 5),
		plan.MustParse("split[small[2],split[small[1],small[4]],small[3]]"),
	}
	plans = append(plans, s.Plans(11, 10)...)
	plans = append(plans, s.Plans(14, 5)...)
	for _, p := range plans {
		model := Model(p, m.Cost)
		traced := tr.Run(p)
		if model.Ops != traced.Ops {
			t.Errorf("plan %v:\n model ops %+v\n traced    %+v", p, model.Ops, traced.Ops)
		}
		if model.LoopInstances != traced.LoopInstances {
			t.Errorf("plan %v: loop instances model=%d traced=%d", p, model.LoopInstances, traced.LoopInstances)
		}
		if model.LeafCalls != traced.LeafCalls {
			t.Errorf("plan %v: leaf calls model=%v traced=%v", p, model.LeafCalls, traced.LeafCalls)
		}
	}
}

func TestQuickModelMatchesTrace(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := trace.New(m)
	s := plan.NewSampler(6, plan.MaxLeafLog)
	f := func(rawN uint8) bool {
		n := int(rawN)%14 + 1
		p := s.Plan(n)
		model := Model(p, m.Cost)
		traced := tr.Run(p)
		return model.Ops == traced.Ops &&
			model.LoopInstances == traced.LoopInstances &&
			model.LeafCalls == traced.LeafCalls
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Iterative executes fewer modelled instructions than either recursive
// canonical algorithm at every size — the paper's observation in Section 3
// (and the reason Figure 2 shows iterative closest to best).
func TestIterativeHasLowestCanonicalInstructionCount(t *testing.T) {
	m := machine.VirtualOpteron224()
	for n := 3; n <= 20; n++ { // at n=2 all three canonicals are the same plan
		iter := Instructions(plan.Iterative(n), m.Cost)
		right := Instructions(plan.RightRecursive(n), m.Cost)
		left := Instructions(plan.LeftRecursive(n), m.Cost)
		if iter >= right || iter >= left {
			t.Errorf("n=%d: iterative %d not below right %d / left %d", n, iter, right, left)
		}
	}
}

// The instruction-count analysis of [5] predicts right-recursive below
// left-recursive (the middle loop is costlier per iteration than the inner
// loop, and left-recursive pays the middle loop 2^(n-1) times per level).
func TestRightRecursiveBelowLeftRecursiveInstructions(t *testing.T) {
	m := machine.VirtualOpteron224()
	for n := 3; n <= 20; n++ {
		right := Instructions(plan.RightRecursive(n), m.Cost)
		left := Instructions(plan.LeftRecursive(n), m.Cost)
		if right >= left {
			t.Errorf("n=%d: right %d not below left %d", n, right, left)
		}
	}
}

// Larger unrolled base cases reduce the instruction count per element, so
// plans with bigger leaves (up to the spill threshold) beat the iterative
// plan on instructions — the paper's "best algorithms use larger base
// cases".
func TestLargerLeavesReduceInstructions(t *testing.T) {
	m := machine.VirtualOpteron224()
	n := 16
	iter := Instructions(plan.Iterative(n), m.Cost)
	radix4 := Instructions(plan.RadixIterative(n, 4), m.Cost)
	if radix4 >= iter {
		t.Errorf("radix-16 plan (%d instructions) should beat radix-2 (%d)", radix4, iter)
	}
}

func TestArithmeticCountIsExactlyNLogN(t *testing.T) {
	// Every WHT algorithm performs exactly n*2^n butterfly operations; the
	// model must account them precisely for any plan.
	m := machine.VirtualOpteron224()
	s := plan.NewSampler(9, plan.MaxLeafLog)
	for _, n := range []int{1, 3, 7, 11, 15} {
		want := int64(n) * (int64(1) << uint(n))
		for i := 0; i < 5; i++ {
			p := s.Plan(n)
			if got := Model(p, m.Cost).Ops.Arith; got != want {
				t.Fatalf("n=%d plan %v: arith %d, want %d", n, p, got, want)
			}
		}
	}
}

// The arithmetic count stays exactly n*2^n for plans whose leaves are the
// largest unrolled codelets, the leaf sizes that once routed to the
// removed block tier.
func TestBlockLeafArithmeticExact(t *testing.T) {
	m := machine.VirtualOpteron224()
	for _, p := range []*plan.Node{
		plan.Leaf(plan.MaxLeafLog),
		plan.MustParse("split[small[6],small[8]]"),
		plan.RadixIterative(20, plan.MaxLeafLog),
		plan.Balanced(19, plan.MaxLeafLog),
	} {
		n := p.Log2Size()
		if got, want := Model(p, m.Cost).Ops.Arith, int64(n)*(int64(1)<<uint(n)); got != want {
			t.Errorf("plan %v: arith %d, want %d", p, got, want)
		}
	}
}

func TestCyclesDeterministicAndPositive(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := trace.New(m)
	p := plan.Balanced(12, 4)
	c := tr.Run(p)
	a := Cycles(c, m, p.Hash())
	b := Cycles(c, m, p.Hash())
	if a != b {
		t.Fatal("cycles not deterministic")
	}
	if a <= 0 {
		t.Fatalf("cycles = %g", a)
	}
	// Different plan hash perturbs via jitter only: small relative change.
	other := Cycles(c, m, p.Hash()+12345)
	rel := math.Abs(other-a) / a
	if rel > m.Cycle.JitterFrac {
		t.Fatalf("jitter moved cycles by %.3f, more than JitterFrac", rel)
	}
}

func TestCyclesChargeMissPenalties(t *testing.T) {
	m := machine.VirtualOpteron224()
	var c trace.Counters
	c.Ops.Arith = 1000
	base := Cycles(c, m, 1)
	c.Mem.L1Misses = 100
	withMisses := Cycles(c, m, 1)
	if diff := withMisses - base; math.Abs(diff-100*m.Cycle.L1Penalty) > 1e-9 {
		t.Fatalf("L1 penalty contribution = %g, want %g", diff, 100*m.Cycle.L1Penalty)
	}
}

func TestMeasureFillsAllFields(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := trace.New(m)
	p := plan.RightRecursive(14)
	meas := Measure(tr, p)
	if meas.Plan != p || meas.Instructions <= 0 || meas.Cycles <= 0 || meas.L1Misses <= 0 {
		t.Fatalf("measurement incomplete: %+v", meas)
	}
	if meas.Instructions != meas.Counters.Instructions() {
		t.Fatal("instruction field inconsistent with counters")
	}
}

func TestCombined(t *testing.T) {
	if got := Combined(1, 0.5, 100, 10); got != 105 {
		t.Fatalf("Combined = %g", got)
	}
}

// Direct-mapped model cross-check: an independent simulation through the
// generic cache simulator at element granularity must agree exactly.
func TestDirectMappedMissesMatchesGenericSimulator(t *testing.T) {
	s := plan.NewSampler(8, plan.MaxLeafLog)
	plans := []*plan.Node{
		plan.Iterative(9),
		plan.RightRecursive(10),
		plan.LeftRecursive(10),
		plan.Leaf(7),
	}
	plans = append(plans, s.Plans(10, 6)...)
	for _, lg := range []int{4, 6, 8} {
		for _, p := range plans {
			got := DirectMappedMisses(p, lg)
			want := genericDMMisses(p, lg)
			if got != want {
				t.Errorf("plan %v lg=%d: got %d want %d", p, lg, got, want)
			}
		}
	}
}

func genericDMMisses(p *plan.Node, lg int) int64 {
	c := cache.New(cache.Config{Name: "dm", Sets: 1 << uint(lg), Ways: 1, LineBytes: 1})
	var walk func(q *plan.Node, base, stride int)
	walk = func(q *plan.Node, base, stride int) {
		if q.IsLeaf() {
			size := q.Size()
			for pass := 0; pass < 2; pass++ {
				for j := 0; j < size; j++ {
					c.AccessLine(uint64(base + j*stride))
				}
			}
			return
		}
		kids := q.Children()
		r := q.Size()
		s := 1
		for i := len(kids) - 1; i >= 0; i-- {
			ch := kids[i]
			ni := ch.Size()
			r /= ni
			for j := 0; j < r; j++ {
				for k := 0; k < s; k++ {
					walk(ch, base+(j*ni*s+k)*stride, s*stride)
				}
			}
			s *= ni
		}
	}
	walk(p, 0, 1)
	return int64(c.Misses())
}

func TestDirectMappedClosedForms(t *testing.T) {
	// Any plan whose data fits (n <= lg) incurs exactly the 2^n compulsory
	// misses: with one-element lines every element cold-misses once.
	s := plan.NewSampler(10, plan.MaxLeafLog)
	for n := 1; n <= 10; n++ {
		want := int64(1) << uint(n)
		for i := 0; i < 3; i++ {
			p := s.Plan(n)
			if got := DirectMappedMisses(p, 12); got != want {
				t.Fatalf("n=%d plan %v: %d misses, want compulsory %d", n, p, got, want)
			}
		}
	}
	// A single unrolled leaf larger than the cache misses on every access:
	// 2^n reads + 2^n writes.
	for _, tc := range []struct{ n, lg int }{{6, 4}, {8, 5}, {8, 3}} {
		want := int64(2) << uint(tc.n)
		if got := DirectMappedMisses(plan.Leaf(tc.n), tc.lg); got != want {
			t.Fatalf("leaf n=%d lg=%d: %d misses, want %d", tc.n, tc.lg, got, want)
		}
	}
}

func TestDirectMappedMissesBadArgs(t *testing.T) {
	if DirectMappedMisses(plan.Leaf(3), -1) != 0 || DirectMappedMisses(plan.Leaf(3), 31) != 0 {
		t.Fatal("out-of-range lgLines should return 0")
	}
}

func TestCyclesFromSeconds(t *testing.T) {
	m := machine.VirtualOpteron224()
	if got := CyclesFromSeconds(2, m); got != 2*m.ClockHz {
		t.Fatalf("got %g", got)
	}
	if got := CyclesFromSeconds(-1, m); got != 0 {
		t.Fatalf("negative seconds should clamp to 0, got %g", got)
	}
}

// In-cache sizes: cycles must correlate almost perfectly with instructions
// across random plans (the paper's Figure 6 regime); this guards the
// relative magnitudes of the stall/jitter terms.
func TestSmallSizeCyclesTrackInstructions(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := trace.New(m)
	s := plan.NewSampler(12, plan.MaxLeafLog)
	var worst float64
	for i := 0; i < 40; i++ {
		p := s.Plan(9)
		meas := Measure(tr, p)
		cpi := meas.Cycles / float64(meas.Instructions)
		if cpi < 0.2 || cpi > 3 {
			t.Fatalf("plan %v: implausible CPI %.3f", p, cpi)
		}
		if cpi > worst {
			worst = cpi
		}
	}
	_ = worst
}

// The model/trace agreement stays exact at out-of-cache sizes, where
// plans with the largest leaves run the fewest full-vector stages.
func TestModelMatchesTraceLargeLeaves(t *testing.T) {
	m := machine.VirtualOpteron224()
	tr := trace.New(m)
	s := plan.NewSampler(7, plan.MaxLeafLog)
	plans := []*plan.Node{
		plan.MustParse("split[small[8],small[8]]"),
		plan.MustParse("split[small[1],small[8],small[7]]"),
		plan.RadixIterative(18, plan.MaxLeafLog),
		plan.Balanced(20, plan.MaxLeafLog),
	}
	plans = append(plans, s.Plans(16, 5)...)
	for _, p := range plans {
		model := Model(p, m.Cost)
		traced := tr.Run(p)
		if model.Ops != traced.Ops {
			t.Errorf("plan %v:\n model ops %+v\n traced    %+v", p, model.Ops, traced.Ops)
		}
		if model.LeafCalls != traced.LeafCalls {
			t.Errorf("plan %v: leaf calls model=%v traced=%v", p, model.LeafCalls, traced.LeafCalls)
		}
	}
}

// DirectMappedMisses prices pass count: at n = 18 the radix-2^8 plan
// (three passes) misses less than the iterative one (eighteen), which
// re-sweeps the whole vector per level.
func TestDirectMappedMissesLargeLeaves(t *testing.T) {
	if got := DirectMappedMisses(plan.Leaf(plan.MaxLeafLog), 4); got <= 0 {
		t.Fatalf("leaf misses = %d, want positive", got)
	}
	radix := plan.RadixIterative(18, plan.MaxLeafLog)
	iter := plan.Iterative(18)
	if r, i := DirectMappedMisses(radix, 12), DirectMappedMisses(iter, 12); r >= i {
		t.Errorf("radix-2^8 plan misses %d not below iterative %d", r, i)
	}
}
