package plan

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLeafConstruction(t *testing.T) {
	for m := 1; m <= MaxLeafLog; m++ {
		p := Leaf(m)
		if !p.IsLeaf() {
			t.Fatalf("Leaf(%d) is not a leaf", m)
		}
		if p.Log2Size() != m || p.Size() != 1<<m {
			t.Fatalf("Leaf(%d): got log2=%d size=%d", m, p.Log2Size(), p.Size())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Leaf(%d) invalid: %v", m, err)
		}
	}
}

func TestNewLeafRejectsBadSizes(t *testing.T) {
	for _, m := range []int{0, -1, MaxLeafLog + 1, 100} {
		if _, err := NewLeaf(m); err == nil {
			t.Errorf("NewLeaf(%d): want error", m)
		}
	}
}

func TestSplitConstruction(t *testing.T) {
	p := Split(Leaf(1), Leaf(2), Leaf(3))
	if p.IsLeaf() || p.Log2Size() != 6 || p.Arity() != 3 {
		t.Fatalf("split: leaf=%v log2=%d arity=%d", p.IsLeaf(), p.Log2Size(), p.Arity())
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid split rejected: %v", err)
	}
}

func TestNewSplitRejectsBadChildren(t *testing.T) {
	if _, err := NewSplit(Leaf(1)); err == nil {
		t.Error("single-child split accepted")
	}
	if _, err := NewSplit(); err == nil {
		t.Error("zero-child split accepted")
	}
	if _, err := NewSplit(Leaf(1), nil); err == nil {
		t.Error("nil-child split accepted")
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	cases := []*Node{
		Leaf(1),
		Leaf(8),
		Split(Leaf(1), Leaf(1)),
		Split(Leaf(2), Split(Leaf(1), Leaf(3)), Leaf(1)),
		Iterative(7),
		RightRecursive(9),
		LeftRecursive(9),
		Balanced(16, 4),
	}
	for _, p := range cases {
		s := p.String()
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !p.Equal(q) {
			t.Fatalf("round trip mismatch: %q parsed to %q", s, q)
		}
	}
}

func TestParseWhitespace(t *testing.T) {
	p, err := Parse(" split[ small[1] ,\n\tsplit[small[2], small[1]] ] ")
	if err != nil {
		t.Fatalf("Parse with whitespace: %v", err)
	}
	want := Split(Leaf(1), Split(Leaf(2), Leaf(1)))
	if !p.Equal(want) {
		t.Fatalf("got %v want %v", p, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"small",
		"small[]",
		"small[0]",
		"small[15]",
		"small[3]x",
		"split[small[1]]",
		"split[small[1],]",
		"split[small[1],small[2]",
		"medium[3]",
		"split[]",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

func TestCanonicalShapes(t *testing.T) {
	it := Iterative(5)
	if it.Arity() != 5 || it.Depth() != 2 || it.CountLeaves() != 5 {
		t.Errorf("Iterative(5): arity=%d depth=%d leaves=%d", it.Arity(), it.Depth(), it.CountLeaves())
	}
	rr := RightRecursive(5)
	if rr.Depth() != 5 || rr.CountLeaves() != 5 {
		t.Errorf("RightRecursive(5): depth=%d leaves=%d", rr.Depth(), rr.CountLeaves())
	}
	if rr.Children()[0].Log2Size() != 1 || rr.Children()[1].Log2Size() != 4 {
		t.Errorf("RightRecursive(5) children sizes: %v", rr)
	}
	lr := LeftRecursive(5)
	if lr.Children()[0].Log2Size() != 4 || lr.Children()[1].Log2Size() != 1 {
		t.Errorf("LeftRecursive(5) children sizes: %v", lr)
	}
	if Iterative(1).String() != "small[1]" {
		t.Errorf("Iterative(1) = %v", Iterative(1))
	}
	for _, n := range []int{1, 2, 3, 7, 12, 20} {
		for _, p := range []*Node{Iterative(n), RightRecursive(n), LeftRecursive(n), Balanced(n, 5), RadixIterative(n, 4)} {
			if p.Log2Size() != n {
				t.Fatalf("canonical for n=%d has size %d: %v", n, p.Log2Size(), p)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("canonical for n=%d invalid: %v", n, err)
			}
		}
	}
}

func TestBalancedLeafBound(t *testing.T) {
	p := Balanced(20, 4)
	for _, m := range p.LeafSizes() {
		if m > 4 {
			t.Fatalf("Balanced(20,4) has leaf of size %d", m)
		}
	}
}

func TestRadixIterativeUsesRequestedRadix(t *testing.T) {
	p := RadixIterative(14, 4)
	sizes := p.LeafSizes()
	sum := 0
	for _, m := range sizes {
		sum += m
		if m > 4 {
			t.Fatalf("radix-4 plan has leaf %d", m)
		}
	}
	if sum != 14 {
		t.Fatalf("leaf sizes sum to %d", sum)
	}
	if p.Depth() != 2 {
		t.Fatalf("radix iterative should be a single split, depth=%d", p.Depth())
	}
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	p := Split(Leaf(2), Split(Leaf(1), Leaf(1)))
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	if p == q || p.Children()[1] == q.Children()[1] {
		t.Fatal("clone shares nodes")
	}
}

func TestHashDistinguishesStructure(t *testing.T) {
	a := Split(Leaf(1), Leaf(2))
	b := Split(Leaf(2), Leaf(1))
	if a.Hash() == b.Hash() {
		t.Error("distinct plans share a hash (possible but indicates a bug for such small cases)")
	}
	if a.Hash() != Split(Leaf(1), Leaf(2)).Hash() {
		t.Error("equal plans hash differently")
	}
}

func TestCompositionEnumeration(t *testing.T) {
	for n := 1; n <= 10; n++ {
		count := 0
		ForEachComposition(n, func(parts []int) bool {
			count++
			sum := 0
			for _, p := range parts {
				if p < 1 {
					t.Fatalf("non-positive part in %v", parts)
				}
				sum += p
			}
			if sum != n {
				t.Fatalf("composition %v does not sum to %d", parts, n)
			}
			return true
		})
		if count != CompositionCount(n) {
			t.Fatalf("n=%d: %d compositions, want %d", n, count, CompositionCount(n))
		}
	}
}

func TestCompositionEarlyStop(t *testing.T) {
	seen := 0
	ForEachComposition(8, func([]int) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early stop saw %d", seen)
	}
}

func TestCompositionFromBitsMatchesEnumeration(t *testing.T) {
	n := 7
	want := make(map[string]bool)
	ForEachComposition(n, func(parts []int) bool {
		want[intsKey(parts)] = true
		return true
	})
	got := make(map[string]bool)
	for mask := uint64(0); mask < uint64(CompositionCount(n)); mask++ {
		got[intsKey(CompositionFromBits(n, mask))] = true
	}
	if len(got) != len(want) {
		t.Fatalf("bit decoding found %d compositions, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("bit decoding missing composition %s", k)
		}
	}
}

func intsKey(parts []int) string {
	var b strings.Builder
	for _, p := range parts {
		b.WriteByte(byte('0' + p))
		b.WriteByte('.')
	}
	return b.String()
}

func TestSamplerProducesValidPlansOfRightSize(t *testing.T) {
	s := NewSampler(1, MaxLeafLog)
	for _, n := range []int{1, 2, 5, 9, 13, 18} {
		for i := 0; i < 50; i++ {
			p := s.Plan(n)
			if p.Log2Size() != n {
				t.Fatalf("sampled plan size %d, want %d", p.Log2Size(), n)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("sampled plan invalid: %v", err)
			}
		}
	}
}

func TestSamplerRespectsLeafMax(t *testing.T) {
	s := NewSampler(7, 3)
	for i := 0; i < 200; i++ {
		p := s.Plan(12)
		for _, m := range p.LeafSizes() {
			if m > 3 {
				t.Fatalf("leafMax=3 violated: leaf %d in %v", m, p)
			}
		}
	}
}

func TestSamplerIsDeterministic(t *testing.T) {
	a := NewSampler(42, MaxLeafLog).Plans(10, 20)
	b := NewSampler(42, MaxLeafLog).Plans(10, 20)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("sample %d differs between equal seeds", i)
		}
	}
	c := NewSampler(43, MaxLeafLog).Plan(10)
	if a[0].Equal(c) && a[1].Equal(NewSampler(43, MaxLeafLog).Plan(10)) {
		t.Log("different seeds produced identical first plans; acceptable but unusual")
	}
}

// The top-level split choice must be uniform over compositions: with
// leafMax >= n each of the 2^(n-1) cut masks has equal probability.  A
// chi-squared-style tolerance check on n = 4 (8 compositions).
func TestSamplerTopLevelUniformity(t *testing.T) {
	const n, trials = 4, 16000
	s := NewSampler(99, MaxLeafLog)
	counts := make(map[string]int)
	for i := 0; i < trials; i++ {
		p := s.Plan(n)
		key := "leaf"
		if !p.IsLeaf() {
			var parts []int
			for _, c := range p.Children() {
				parts = append(parts, c.Log2Size())
			}
			key = intsKey(parts)
		}
		counts[key]++
	}
	want := float64(trials) / 8
	if len(counts) != 8 {
		t.Fatalf("saw %d distinct top-level choices, want 8: %v", len(counts), counts)
	}
	for k, c := range counts {
		if f := float64(c); f < 0.85*want || f > 1.15*want {
			t.Errorf("top-level choice %s: count %d deviates from expected %.0f", k, c, want)
		}
	}
}

func TestSamplerExcludesOversizeLeaves(t *testing.T) {
	// n > leafMax must never yield a bare leaf at that node.
	s := NewSampler(5, 2)
	for i := 0; i < 500; i++ {
		if p := s.Plan(3); p.IsLeaf() {
			t.Fatal("sampler produced leaf larger than leafMax")
		}
	}
}

func TestQuickRoundTripRandomPlans(t *testing.T) {
	s := NewSampler(2024, MaxLeafLog)
	f := func(raw uint8) bool {
		n := int(raw)%16 + 1
		p := s.Plan(n)
		q, err := Parse(p.String())
		return err == nil && p.Equal(q) && q.Hash() == p.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEquality(t *testing.T) {
	s := NewSampler(77, 6)
	f := func(raw uint8) bool {
		n := int(raw)%14 + 1
		p := s.Plan(n)
		q := p.Clone()
		return p.Equal(q) && q.Validate() == nil && q.CountNodes() == p.CountNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
