package exec

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// definition computes the WHT straight from the matrix, the correctness
// anchor (y[i] = sum_j (-1)^popcount(i&j) x[j]).
func definition(x []float64) []float64 {
	n := len(x)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j := 0; j < n; j++ {
			sign := 1.0
			v := uint(i & j)
			for ; v != 0; v &= v - 1 {
				sign = -sign
			}
			acc += sign * x[j]
		}
		y[i] = acc
	}
	return y
}

func randomVector(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

func TestCompileStageInvariants(t *testing.T) {
	s := plan.NewSampler(7, plan.MaxLeafLog)
	for n := 1; n <= 16; n++ {
		for trial := 0; trial < 20; trial++ {
			p := s.Plan(n)
			sched := Compile(p)
			if sched.Log2Size() != n || sched.Size() != 1<<n {
				t.Fatalf("n=%d: schedule size %d/%d", n, sched.Log2Size(), sched.Size())
			}
			if sched.NumStages() != p.CountLeaves() {
				t.Fatalf("n=%d plan %s: %d stages for %d leaves", n, p, sched.NumStages(), p.CountLeaves())
			}
			for i, st := range sched.Stages() {
				if st.R*st.S<<uint(st.M) != sched.Size() {
					t.Fatalf("plan %s stage %d: R*S*2^M = %d*%d*2^%d != %d", p, i, st.R, st.S, st.M, sched.Size())
				}
				if st.S != 1<<uint(st.SLog) || st.Blk != st.S<<uint(st.M) {
					t.Fatalf("plan %s stage %d: inconsistent derived fields %+v", p, i, st)
				}
			}
		}
	}
}

// The flattening only reorders kernel calls across pairwise disjoint
// strided vectors, so the compiled executor must be bitwise equal to the
// tree-walking interpreter — not merely close.
func TestRunBitwiseEqualsInterpret(t *testing.T) {
	s := plan.NewSampler(11, plan.MaxLeafLog)
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 1; n <= 14; n++ {
		for trial := 0; trial < 10; trial++ {
			p := s.Plan(n)
			x := randomVector(1<<n, rng)
			walked := append([]float64(nil), x...)
			if err := Interpret(p, walked); err != nil {
				t.Fatal(err)
			}
			compiled := append([]float64(nil), x...)
			if err := Run(Compile(p), compiled); err != nil {
				t.Fatal(err)
			}
			for i := range walked {
				if walked[i] != compiled[i] {
					t.Fatalf("n=%d plan %s: index %d walker %v compiled %v", n, p, i, walked[i], compiled[i])
				}
			}
		}
	}
}

func TestRunMatchesDefinition(t *testing.T) {
	s := plan.NewSampler(3, plan.MaxLeafLog)
	rng := rand.New(rand.NewPCG(3, 4))
	for n := 1; n <= 10; n++ {
		p := s.Plan(n)
		x := randomVector(1<<n, rng)
		want := definition(x)
		if err := Run(Compile(p), x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-9*float64(int(1)<<n) {
				t.Fatalf("n=%d plan %s: index %d got %v want %v", n, p, i, x[i], want[i])
			}
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	sched := Compile(plan.Balanced(4, 2))
	if err := Run(sched, make([]float64, 8)); err == nil {
		t.Fatal("wrong length accepted")
	}
	if err := Run[float64](nil, make([]float64, 16)); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if _, err := NewSchedule(nil); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestRunStridedMatchesGather(t *testing.T) {
	const n, stride, base = 5, 3, 2
	p := plan.Balanced(n, 3)
	sched := Compile(p)
	rng := rand.New(rand.NewPCG(5, 6))
	buf := randomVector(base+(1<<n-1)*stride+1, rng)

	gathered := make([]float64, 1<<n)
	for i := range gathered {
		gathered[i] = buf[base+i*stride]
	}
	if err := Run(sched, gathered); err != nil {
		t.Fatal(err)
	}
	if err := RunStrided(sched, buf, base, stride); err != nil {
		t.Fatal(err)
	}
	for i := range gathered {
		if got := buf[base+i*stride]; got != gathered[i] {
			t.Fatalf("index %d: strided %v contiguous %v", i, got, gathered[i])
		}
	}

	if err := RunStrided(sched, make([]float64, 8), 0, 1); err == nil {
		t.Fatal("short buffer accepted")
	}
	if err := RunStrided(sched, buf, -1, 1); err == nil {
		t.Fatal("negative base accepted")
	}
}

func TestRunBatchMatchesSequential(t *testing.T) {
	const n = 8
	p := plan.RightRecursive(n)
	sched := Compile(p)
	rng := rand.New(rand.NewPCG(7, 8))
	batch := make([][]float64, 9)
	want := make([][]float64, len(batch))
	for i := range batch {
		batch[i] = randomVector(1<<n, rng)
		want[i] = append([]float64(nil), batch[i]...)
		if err := Run(sched, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunBatch(sched, batch); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		for j := range batch[i] {
			if batch[i][j] != want[i][j] {
				t.Fatalf("vector %d index %d: batch %v sequential %v", i, j, batch[i][j], want[i][j])
			}
		}
	}

	bad := [][]float64{make([]float64, 1<<n), make([]float64, 4)}
	if err := RunBatch(sched, bad); err == nil {
		t.Fatal("ragged batch accepted")
	}
}

func TestRunBatchParallelMatchesSequential(t *testing.T) {
	const n = 10
	sched := Compile(plan.Balanced(n, 4))
	rng := rand.New(rand.NewPCG(9, 10))
	for _, workers := range []int{1, 3, 8} {
		batch := make([][]float64, 17)
		want := make([][]float64, len(batch))
		for i := range batch {
			batch[i] = randomVector(1<<n, rng)
			want[i] = append([]float64(nil), batch[i]...)
			MustRun(sched, want[i])
		}
		if err := RunBatchParallel(sched, batch, workers); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			for j := range batch[i] {
				if batch[i][j] != want[i][j] {
					t.Fatalf("workers=%d vector %d index %d differ", workers, i, j)
				}
			}
		}
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	s := plan.NewSampler(13, plan.MaxLeafLog)
	rng := rand.New(rand.NewPCG(11, 12))
	for _, n := range []int{1, 6, 12, 15} {
		for trial := 0; trial < 5; trial++ {
			p := s.Plan(n)
			sched := Compile(p)
			x := randomVector(1<<n, rng)
			want := append([]float64(nil), x...)
			MustRun(sched, want)
			for _, workers := range []int{0, 1, 2, 5} {
				got := append([]float64(nil), x...)
				if err := RunParallel(sched, got, workers); err != nil {
					t.Fatal(err)
				}
				// These sizes are below ParallelMinElems, so RunParallel
				// runs inline; runBarrier runs the fan-out itself.
				fan := append([]float64(nil), x...)
				if err := runBarrier(nil, sched, fan, max(workers, 1)); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] || fan[i] != want[i] {
						t.Fatalf("n=%d workers=%d plan %s: index %d parallel %v fan-out %v sequential %v",
							n, workers, p, i, got[i], fan[i], want[i])
					}
				}
			}
		}
	}
}

func TestFloat32EngineSharesSchedule(t *testing.T) {
	const n = 9
	p := plan.LeftRecursive(n)
	sched := Compile(p) // one schedule, both element types
	rng := rand.New(rand.NewPCG(13, 14))
	x64 := randomVector(1<<n, rng)
	x32 := make([]float32, len(x64))
	for i := range x64 {
		x32[i] = float32(x64[i])
	}
	MustRun(sched, x64)
	if err := Run(sched, x32); err != nil {
		t.Fatal(err)
	}
	for i := range x64 {
		if math.Abs(float64(x32[i])-x64[i]) > 1e-3*float64(int(1)<<n) {
			t.Fatalf("index %d: float32 %v float64 %v", i, x32[i], x64[i])
		}
	}
}

func TestScheduleString(t *testing.T) {
	sched := Compile(plan.MustParse("split[small[1],small[2]]"))
	// The rightmost factor applies first: small[2] runs at stride 1 on
	// contiguous blocks (contiguous kernel), then small[1] runs at stride
	// 4 — under the default policy below the interleaved threshold, so
	// strided.
	want := "[I2 x W2^2 x I1 contig] [I1 x W2^1 x I4 strided]"
	if got := sched.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// A large-S stage names the interleaved kernel.
	sched = Compile(plan.MustParse("split[small[2],small[8]]"))
	want = "[I4 x W2^8 x I1 contig] [I1 x W2^2 x I256 il]"
	if got := sched.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// StridedOnly restores the legacy single-variant engine.
	sched = CompileWith(plan.MustParse("split[small[2],small[8]]"), codelet.Policy{StridedOnly: true})
	want = "[I4 x W2^8 x I1 strided] [I1 x W2^2 x I256 strided]"
	if got := sched.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
