package plan

import (
	"strings"
	"testing"
)

// Golden grammar strings: the textual form is a stable interface (hashes
// key deterministic jitter, CSVs store plans), so accidental changes to
// the printer must fail loudly.
func TestGoldenStrings(t *testing.T) {
	cases := map[string]*Node{
		"small[1]":                 Leaf(1),
		"split[small[1],small[1]]": Iterative(2),
		"split[small[1],split[small[1],small[1]]]":   RightRecursive(3),
		"split[split[small[1],small[1]],small[1]]":   LeftRecursive(3),
		"split[small[2],small[2]]":                   Balanced(4, 2),
		"split[small[4],small[4],small[4],small[2]]": RadixIterative(14, 4),
	}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestDeepNestingParse(t *testing.T) {
	// A deeply right-nested plan (depth 40) parses and prints identically.
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteString("split[small[1],")
	}
	b.WriteString("small[1]")
	for i := 0; i < 40; i++ {
		b.WriteString("]")
	}
	p, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if p.Log2Size() != 41 || p.Depth() != 41 {
		t.Fatalf("size %d depth %d", p.Log2Size(), p.Depth())
	}
	if p.String() != b.String() {
		t.Fatal("deep round trip mismatch")
	}
	if !p.Equal(RightRecursive(41)) {
		t.Fatal("should equal RightRecursive(41)")
	}
}

func TestNodeAccessorsOnLeafAndSplit(t *testing.T) {
	leaf := Leaf(3)
	if leaf.Arity() != 0 || leaf.Children() != nil || leaf.CountNodes() != 1 || leaf.Depth() != 1 {
		t.Fatal("leaf accessors")
	}
	sizes := leaf.LeafSizes()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatal("leaf sizes")
	}
	sp := Split(Leaf(1), Split(Leaf(2), Leaf(3)))
	if sp.CountNodes() != 5 || sp.CountLeaves() != 3 || sp.Depth() != 3 {
		t.Fatalf("split accessors: nodes=%d leaves=%d depth=%d", sp.CountNodes(), sp.CountLeaves(), sp.Depth())
	}
}

func TestValidateCatchesHandBuiltCorruption(t *testing.T) {
	// A split whose recorded size disagrees with its children.
	bad := &Node{n: 5, children: []*Node{Leaf(1), Leaf(2)}}
	if err := bad.Validate(); err == nil {
		t.Error("size mismatch not caught")
	}
	badLeaf := &Node{n: 99}
	if err := badLeaf.Validate(); err == nil {
		t.Error("oversized leaf not caught")
	}
	single := &Node{n: 2, children: []*Node{Leaf(2)}}
	if err := single.Validate(); err == nil {
		t.Error("single-child split not caught")
	}
	var nilNode *Node
	if err := nilNode.Validate(); err == nil {
		t.Error("nil node not caught")
	}
}

func TestEqualEdgeCases(t *testing.T) {
	var a, b *Node
	if !a.Equal(b) {
		t.Error("nil == nil")
	}
	if Leaf(2).Equal(nil) {
		t.Error("leaf != nil")
	}
	if Leaf(2).Equal(Leaf(3)) {
		t.Error("different sizes")
	}
	if Split(Leaf(1), Leaf(2)).Equal(Split(Leaf(1), Leaf(1), Leaf(1))) {
		t.Error("different arity")
	}
}

func TestSamplerSize1AlwaysLeaf(t *testing.T) {
	s := NewSampler(1, 4)
	for i := 0; i < 20; i++ {
		if p := s.Plan(1); !p.IsLeaf() || p.Log2Size() != 1 {
			t.Fatal("size-1 plan must be small[1]")
		}
	}
}

func TestSamplerClampsLeafMax(t *testing.T) {
	if NewSampler(1, 0).LeafMax() != 1 {
		t.Error("low clamp")
	}
	if NewSampler(1, 99).LeafMax() != MaxLeafLog {
		t.Error("high clamp")
	}
}

func TestCompositionCountEdges(t *testing.T) {
	if CompositionCount(0) != 0 || CompositionCount(1) != 1 || CompositionCount(5) != 16 {
		t.Fatal("composition counts")
	}
	defer func() {
		if recover() == nil {
			t.Error("overflow should panic")
		}
	}()
	CompositionCount(80)
}

func TestCompositionsMaterialized(t *testing.T) {
	all := Compositions(4)
	if len(all) != 8 {
		t.Fatalf("%d compositions of 4", len(all))
	}
	// The materialized copies must be independent (no shared backing).
	all[0][0] = 999
	for _, c := range all[1:] {
		if c[0] == 999 {
			t.Fatal("compositions share backing storage")
		}
	}
}
