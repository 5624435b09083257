package plan

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// TestBestStagesMatchesEnumeration checks the DP against brute force:
// for random stage costs, the top sequences are exactly the cheapest
// compositions of n into parts <= MaxLeafLog, in order.
func TestBestStagesMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for n := 1; n <= 12; n++ {
		costs := map[[2]int]float64{}
		cost := func(m, k int) float64 {
			c, ok := costs[[2]int{m, k}]
			if !ok {
				c = 1 + rng.Float64()*float64(m)
				costs[[2]int{m, k}] = c
			}
			return c
		}
		const top = 5
		got := BestStages(n, top, cost)
		var all []StageSeq
		ForEachComposition(n, func(parts []int) bool {
			if slices.Max(parts) > MaxLeafLog {
				return true
			}
			s := StageSeq{Stages: slices.Clone(parts)}
			k := 0
			for _, m := range parts {
				s.Cost += cost(m, k)
				k += m
			}
			all = append(all, s)
			return true
		})
		sort.SliceStable(all, func(i, j int) bool { return all[i].Cost < all[j].Cost })
		want := all[:min(top, len(all))]
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d sequences, want %d", n, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].Stages, want[i].Stages) || got[i].Cost-want[i].Cost > 1e-9 || want[i].Cost-got[i].Cost > 1e-9 {
				t.Fatalf("n=%d rank %d: got %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestBestStagesCallsCostOncePerStage pins the DP's cost budget: one
// call per (m, k) pair, at most MaxLeafLog * n.
func TestBestStagesCallsCostOncePerStage(t *testing.T) {
	for _, n := range []int{1, 8, 9, 24} {
		seen := map[[2]int]bool{}
		BestStages(n, 4, func(m, k int) float64 {
			if seen[[2]int{m, k}] {
				t.Fatalf("n=%d: cost(%d, %d) called twice", n, m, k)
			}
			seen[[2]int{m, k}] = true
			return float64(m)
		})
		if len(seen) > MaxLeafLog*n {
			t.Fatalf("n=%d: %d cost calls, more than %d", n, len(seen), MaxLeafLog*n)
		}
	}
}

// A FromStages plan's leaves are the stages in reverse: the last leaf
// is the first, stride-1 stage.
func TestFromStagesRoundTrip(t *testing.T) {
	for _, st := range [][]int{{5}, {1, 8}, {1, 2, 1, 8}, {2, 4, 8}} {
		p := FromStages(st)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		leaves := p.LeafSizes()
		slices.Reverse(leaves)
		if !slices.Equal(leaves, st) {
			t.Fatalf("FromStages(%v) has leaves %v", st, p.LeafSizes())
		}
	}
	if got := FromStages([]int{1, 8}).String(); got != "split[small[8],small[1]]" {
		t.Fatalf("FromStages([1 8]) = %s", got)
	}
}
