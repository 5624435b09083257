package plan

import (
	"strings"
	"testing"
)

func TestTwoPhaseLocalWhenFits(t *testing.T) {
	p := Balanced(10, MaxLeafLog)
	g, err := TwoPhase(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsLocal() || g.Local() != p {
		t.Fatalf("plan fitting the budget must stay local, got %s", g)
	}
	if g.MaxLocalLog() != 10 {
		t.Fatalf("MaxLocalLog = %d, want 10", g.MaxLocalLog())
	}
}

func TestTwoPhaseSplitsToBudget(t *testing.T) {
	for _, tc := range []struct{ n, budget int }{
		{12, 8}, {16, 8}, {18, 10}, {20, 8}, {24, 6},
	} {
		p := Balanced(tc.n, min(MaxLeafLog, tc.budget))
		g, err := TwoPhase(p, tc.budget)
		if err != nil {
			t.Fatalf("TwoPhase(%d, %d): %v", tc.n, tc.budget, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("TwoPhase(%d, %d) invalid: %v", tc.n, tc.budget, err)
		}
		if g.IsLocal() {
			t.Fatalf("TwoPhase(%d, %d) stayed local", tc.n, tc.budget)
		}
		if got := g.MaxLocalLog(); got > tc.budget {
			t.Fatalf("TwoPhase(%d, %d): local working set 2^%d exceeds budget", tc.n, tc.budget, got)
		}
		if g.Log2Size() != tc.n {
			t.Fatalf("TwoPhase(%d, %d): size %d", tc.n, tc.budget, g.Log2Size())
		}
		// The flattened twin must cover the same leaves in the same order
		// (regrouping does not reorder or resize leaves).
		want := p.LeafSizes()
		got := g.Flatten().LeafSizes()
		if len(want) != len(got) {
			t.Fatalf("leaf count changed: %v vs %v", want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("leaf order changed at %d: %v vs %v", i, want, got)
			}
		}
	}
}

func TestTwoPhaseRejectsOversizedLeaf(t *testing.T) {
	p := Split(Leaf(8), Leaf(8))
	if _, err := TwoPhase(p, 6); err == nil {
		t.Fatal("leaf larger than the budget must be rejected")
	}
	if _, err := TwoPhase(p, 0); err == nil {
		t.Fatal("non-positive budget must be rejected")
	}
}

func TestSegGrammarRoundTrip(t *testing.T) {
	for _, tc := range []string{
		"small[4]",
		"split[small[2],small[3]]",
		"phase[small[4],small[5]]",
		"phase[phase[small[3],small[4]],split[small[2],small[4]]]",
	} {
		g, err := ParseSeg(tc)
		if err != nil {
			t.Fatalf("ParseSeg(%q): %v", tc, err)
		}
		if got := g.String(); got != tc {
			t.Fatalf("round trip %q -> %q", tc, got)
		}
		h := MustParseSeg(g.String())
		if !g.Equal(h) {
			t.Fatalf("Equal failed after round trip of %q", tc)
		}
	}
	for _, bad := range []string{
		"phase[small[4]]",
		"phase[small[4],small[5]",
		"phase[,small[5]]",
		"phase[small[4],small[5]]x",
	} {
		if _, err := ParseSeg(bad); err == nil {
			t.Fatalf("ParseSeg(%q) accepted malformed input", bad)
		}
	}
}

func TestTwoPhaseStringParsesBack(t *testing.T) {
	p := Balanced(20, 8)
	g, err := TwoPhase(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := g.String()
	if !strings.Contains(s, "phase[") {
		t.Fatalf("expected a phase node in %q", s)
	}
	h, err := ParseSeg(s)
	if err != nil {
		t.Fatalf("ParseSeg(%q): %v", s, err)
	}
	if !g.Equal(h) {
		t.Fatalf("parse(String()) differs for %q", s)
	}
}
