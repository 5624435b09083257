package plan

import (
	"strings"
	"testing"
)

// rightChain returns the plan string split[small[1],split[small[1],...]]
// with depth splits, of total log-size depth+1.
func rightChain(depth int) string {
	return strings.Repeat("split[small[1],", depth) + "small[1]" + strings.Repeat("]", depth)
}

// eightLeaves8 is eight small[8] leaves under one split: log-size 64,
// whose Size() would wrap to 0.
var eightLeaves8 = "split[" + strings.TrimSuffix(strings.Repeat("small[8],", 8), ",") + "]"

func TestParseRejectsSize64Split(t *testing.T) {
	if p, err := Parse(eightLeaves8); err == nil {
		t.Fatalf("Parse accepted a plan of log-size %d (Size %d)", p.Log2Size(), p.Size())
	}
	kids := make([]*Node, 8)
	for i := range kids {
		kids[i] = Leaf(8)
	}
	if _, err := NewSplit(kids...); err == nil {
		t.Fatal("NewSplit accepted log-size 64")
	}
}

func TestParseRejects71DeepChain(t *testing.T) {
	if p, err := Parse(rightChain(71)); err == nil {
		t.Fatalf("Parse accepted a plan of log-size %d", p.Log2Size())
	}
	if _, err := ParseSeg(rightChain(71)); err == nil {
		t.Fatal("ParseSeg accepted the 71-deep chain")
	}
}

// The bound is inclusive, and every constructor and validator enforces
// it: Parse, NewPhaseSeg, Validate on hand-built trees of both kinds, and
// the canonical constructors (which panic, like any bad size).
func TestPlanSizeBound(t *testing.T) {
	p, err := Parse(rightChain(MaxPlanLog - 1))
	if err != nil {
		t.Fatalf("log-size %d rejected: %v", MaxPlanLog, err)
	}
	if p.Log2Size() != MaxPlanLog || p.Size() <= 0 {
		t.Fatalf("log-size %d, Size %d", p.Log2Size(), p.Size())
	}
	if _, err := Parse(rightChain(MaxPlanLog)); err == nil {
		t.Fatalf("log-size %d accepted", MaxPlanLog+1)
	}
	half := LocalSeg(Balanced(MaxPlanLog/2, MaxLeafLog))
	if _, err := NewPhaseSeg(half, LocalSeg(Balanced(MaxPlanLog-MaxPlanLog/2+1, MaxLeafLog))); err == nil {
		t.Fatal("NewPhaseSeg accepted a phase above the bound")
	}
	big := &Node{n: MaxPlanLog + 1, children: []*Node{Leaf(1), RightRecursive(MaxPlanLog)}}
	if err := big.Validate(); err == nil {
		t.Fatal("Validate accepted a plan above MaxPlanLog")
	}
	seg := &SegNode{n: MaxPlanLog + 1, hi: LocalSeg(Leaf(1)), lo: LocalSeg(RightRecursive(MaxPlanLog))}
	if err := seg.Validate(); err == nil {
		t.Fatal("SegNode.Validate accepted a phase above MaxPlanLog")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Balanced above MaxPlanLog did not panic")
		}
	}()
	Balanced(MaxPlanLog+1, MaxLeafLog)
}
