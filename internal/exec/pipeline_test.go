package exec

import (
	"math/rand/v2"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// plansForSize returns the equivalence-grid plans for log-size n: the
// balanced default, and from n = 15 the radix-2^MaxLeafLog plan, which
// has the fewest stages an unrolled-tier plan can have (two at n = 15
// and 16, three up to 24) — a contiguous 2^8 stage feeding full-vector
// interleaved stages, the shape the pipelined tier targets.
func plansForSize(n int) []*plan.Node {
	ps := []*plan.Node{plan.Balanced(n, plan.MaxLeafLog)}
	if n >= 15 {
		ps = append(ps, plan.RadixIterative(n, plan.MaxLeafLog))
	}
	return ps
}

// TestRunPipelinedBitwiseEquivalence pins the contract every parallel
// tier must honor: barrier and pipelined execution are bitwise equal to
// the sequential executor — not merely close — across sizes, plan
// shapes, variant policies, worker counts, and both element types.  Run
// under -race this doubles as the memory-model check for the
// dependency-counted scheduler.
func TestRunPipelinedBitwiseEquivalence(t *testing.T) {
	policies := []codelet.Policy{
		codelet.DefaultPolicy(),
		{StridedOnly: true},
		{ILMinS: 2},
		{ILFuse: true},
		{ILMinS: 2, ILFuse: true},
	}
	workerGrid := []int{1, 2, 3, 4, 8}
	maxN := 20
	if testing.Short() {
		maxN = 16
	}
	rng := rand.New(rand.NewPCG(8, 15))
	for n := 2; n <= maxN; n++ {
		pols, ws := policies, workerGrid
		if n >= 18 {
			// The big sizes are expensive; two policies and two worker
			// counts still cover the fused/unfused × contended/uncontended
			// corners.
			pols = []codelet.Policy{codelet.DefaultPolicy(), {ILFuse: true}}
			ws = []int{4, 8}
		}
		for _, p := range plansForSize(n) {
			for _, pol := range pols {
				sched, err := NewScheduleWith(p, pol)
				if err != nil {
					t.Fatal(err)
				}
				x64 := randomVector(1<<n, rng)
				x32 := make([]float32, 1<<n)
				for i, v := range x64 {
					x32[i] = float32(v)
				}
				want64 := append([]float64(nil), x64...)
				MustRun(sched, want64)
				want32 := append([]float32(nil), x32...)
				MustRun(sched, want32)
				for _, workers := range ws {
					for _, mode := range []ParallelMode{BarrierParallel, PipelinedParallel} {
						got64 := append([]float64(nil), x64...)
						if err := RunParallelMode(sched, got64, workers, mode); err != nil {
							t.Fatal(err)
						}
						for i := range want64 {
							if got64[i] != want64[i] {
								t.Fatalf("n=%d plan %s pol %+v workers %d mode %v: float64 index %d got %v want %v",
									n, p, pol, workers, mode, i, got64[i], want64[i])
							}
						}
						got32 := append([]float32(nil), x32...)
						if err := RunParallelMode(sched, got32, workers, mode); err != nil {
							t.Fatal(err)
						}
						for i := range want32 {
							if got32[i] != want32[i] {
								t.Fatalf("n=%d plan %s pol %+v workers %d mode %v: float32 index %d got %v want %v",
									n, p, pol, workers, mode, i, got32[i], want32[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildPipePlanGeometry checks the derived window structure: window
// sizes are nondecreasing powers of two covering the vector exactly,
// every stage's chunks tile its call space, and each stage-(i+1)
// window's dependency count equals the number of stage-i windows it
// covers.
func TestBuildPipePlanGeometry(t *testing.T) {
	s := plan.NewSampler(23, plan.MaxLeafLog)
	for n := 12; n <= 20; n++ {
		for trial := 0; trial < 20; trial++ {
			p := s.Plan(n)
			sched := Compile(p)
			for _, workers := range []int{2, 4, 7} {
				pp := buildPipePlan(sched, workers)
				if pp == nil {
					if sched.NumStages() >= 2 {
						t.Fatalf("n=%d plan %s: nil pipe plan for %d stages", n, p, sched.NumStages())
					}
					continue
				}
				prevLg := 0
				wins, chunks := 0, 0
				for i, ps := range pp.stages {
					st := &sched.stages[i]
					if ps.lgWin < prevLg || ps.lgWin > n {
						t.Fatalf("n=%d plan %s stage %d: window log %d outside [%d, %d]", n, p, i, ps.lgWin, prevLg, n)
					}
					if blk := st.SLog + st.M; ps.lgWin < blk && blk <= n {
						t.Fatalf("n=%d plan %s stage %d: window 2^%d smaller than Blk 2^%d", n, p, i, ps.lgWin, blk)
					}
					if ps.numWin != 1<<uint(n-ps.lgWin) {
						t.Fatalf("n=%d plan %s stage %d: %d windows for log %d", n, p, i, ps.numWin, ps.lgWin)
					}
					if ps.numWin*ps.winCalls != st.R*st.S {
						t.Fatalf("n=%d plan %s stage %d: windows %d x %d calls != %d total",
							n, p, i, ps.numWin, ps.winCalls, st.R*st.S)
					}
					if ps.chunkCalls < 1 || ps.chunkCalls > ps.winCalls {
						t.Fatalf("n=%d plan %s stage %d: chunk %d outside [1, %d]", n, p, i, ps.chunkCalls, ps.winCalls)
					}
					if ps.chunksPerWin != (ps.winCalls+ps.chunkCalls-1)/ps.chunkCalls {
						t.Fatalf("n=%d plan %s stage %d: %d chunks per window of %d calls at chunk %d",
							n, p, i, ps.chunksPerWin, ps.winCalls, ps.chunkCalls)
					}
					if st.V == codelet.Interleaved && ps.chunkCalls > st.S && ps.chunkCalls%st.S != 0 {
						t.Fatalf("n=%d plan %s stage %d: multi-row chunk %d not row-aligned (S=%d)",
							n, p, i, ps.chunkCalls, st.S)
					}
					if i > 0 {
						if want := uint(ps.lgWin - pp.stages[i-1].lgWin); ps.depShift != want {
							t.Fatalf("n=%d plan %s stage %d: depShift %d want %d", n, p, i, ps.depShift, want)
						}
					}
					if ps.firstWin != wins || ps.firstChunk != chunks {
						t.Fatalf("n=%d plan %s stage %d: offsets (%d, %d) want (%d, %d)",
							n, p, i, ps.firstWin, ps.firstChunk, wins, chunks)
					}
					wins += ps.numWin
					chunks += ps.numWin * ps.chunksPerWin
					prevLg = ps.lgWin
				}
				if wins != pp.totalWins || chunks != pp.totalChunks {
					t.Fatalf("n=%d plan %s: totals (%d, %d) want (%d, %d)",
						n, p, wins, chunks, pp.totalWins, pp.totalChunks)
				}
			}
		}
	}
}

func TestParallelModeStrings(t *testing.T) {
	cases := []struct {
		mode ParallelMode
		s    string
	}{
		{AutoParallel, "auto"},
		{BarrierParallel, "barrier"},
		{PipelinedParallel, "pipelined"},
	}
	for _, c := range cases {
		if c.mode.String() != c.s {
			t.Fatalf("mode %d: String %q want %q", c.mode, c.mode.String(), c.s)
		}
		if m, ok := ParseParallelMode(c.s); !ok || m != c.mode {
			t.Fatalf("parse %q: (%v, %v) want (%v, true)", c.s, m, ok, c.mode)
		}
	}
	if m, ok := ParseParallelMode(""); !ok || m != AutoParallel {
		t.Fatalf("parse empty: (%v, %v) want (AutoParallel, true)", m, ok)
	}
	if _, ok := ParseParallelMode("bogus"); ok {
		t.Fatal("parse accepted bogus mode")
	}
}

func TestPickParallelMode(t *testing.T) {
	big := Compile(plan.Balanced(17, plan.MaxLeafLog))
	if got := pickParallelMode(big, 4); got != PipelinedParallel {
		t.Fatalf("big multi-stage schedule with 4 workers: %v want pipelined", got)
	}
	if got := pickParallelMode(big, 1); got != BarrierParallel {
		t.Fatalf("single worker: %v want barrier", got)
	}
	small := Compile(plan.Balanced(10, plan.MaxLeafLog))
	if got := pickParallelMode(small, 4); got != BarrierParallel {
		t.Fatalf("in-cache schedule: %v want barrier", got)
	}
	one := Compile(plan.MustParse("small[4]"))
	if got := pickParallelMode(one, 4); got != BarrierParallel {
		t.Fatalf("single-stage schedule: %v want barrier", got)
	}
}

// TestRunParallelModeAuto checks the auto dispatch stays correct at a
// size where the heuristic picks the pipelined tier.
func TestRunParallelModeAuto(t *testing.T) {
	n := 17
	rng := rand.New(rand.NewPCG(5, 6))
	sched := Compile(plan.Balanced(n, plan.MaxLeafLog))
	x := randomVector(1<<n, rng)
	want := append([]float64(nil), x...)
	MustRun(sched, want)
	got := append([]float64(nil), x...)
	if err := RunParallel(sched, got, 4); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("auto mode: index %d got %v want %v", i, got[i], want[i])
		}
	}
}
