package wht_test

import (
	"context"
	"math"
	"testing"

	"repro/wht"
)

// The facade is exercised exactly as a downstream user would use it.

func TestQuickstartFlow(t *testing.T) {
	x := make([]float64, 256)
	x[3] = 1
	if err := wht.Transform(x); err != nil {
		t.Fatal(err)
	}
	// Row 3 of the Hadamard matrix: +/-1 pattern, never zero.
	for i, v := range x {
		if v != 1 && v != -1 {
			t.Fatalf("coefficient %d = %g", i, v)
		}
	}
}

func TestPlanRoundTripThroughFacade(t *testing.T) {
	p, err := wht.Parse("split[small[2],small[3]]")
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 32 {
		t.Fatalf("size %d", p.Size())
	}
	x := make([]float64, 32)
	x[0] = 1
	if err := wht.Apply(p, x); err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 1 {
			t.Fatal("impulse response must be all ones")
		}
	}
}

func TestMeasureAndModelsAgree(t *testing.T) {
	mach := wht.NewMachine()
	tr := wht.NewTracer(mach)
	p := wht.RightRecursive(12)
	m := wht.Measure(tr, p)
	if m.Instructions != wht.Instructions(p, mach) {
		t.Fatal("facade instruction model disagrees with measurement")
	}
	if m.Cycles <= 0 || m.L1Misses <= 0 {
		t.Fatalf("measurement %+v", m)
	}
}

func TestSearchAndSampling(t *testing.T) {
	mach := wht.NewMachine()
	best := wht.SearchDP(10, wht.VirtualCycles(mach), wht.SearchOptions{})
	if best.Plan == nil || best.Plan.Log2Size() != 10 {
		t.Fatalf("bad DP result %+v", best)
	}
	s := wht.NewSampler(1, wht.MaxLeafLog)
	recs := wht.Collect(s.Plans(10, 8), mach, 2)
	for _, r := range recs {
		if r.Cycles < best.Cost*0.999 {
			t.Fatalf("random plan %s (%g cycles) beats DP best (%g)", r.Plan, r.Cycles, best.Cost)
		}
	}
}

func TestTheoryFacade(t *testing.T) {
	if wht.CountAlgorithms(4, 8).Int64() != 24 {
		t.Fatal("count")
	}
	mach := wht.NewMachine()
	ext := wht.InstructionExtremes(10, 8, mach)
	mom := wht.InstructionMoments(10, 8, mach)
	if mom.Mean[10] < float64(ext.Min[10]) || mom.Mean[10] > float64(ext.Max[10]) {
		t.Fatal("mean outside extremes")
	}
	p := wht.MinInstructionPlan(10, 8, mach.Cost)
	if wht.Instructions(p, mach) != ext.Min[10] {
		t.Fatal("min plan does not achieve the minimum")
	}
}

func TestSequencyFacade(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := wht.FromSequency(wht.ToSequency(x))
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("sequency round trip")
		}
	}
	perm := wht.SequencyPermutation(3)
	if len(perm) != 8 {
		t.Fatal("permutation length")
	}
}

func TestInverseAnd2DFacade(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	orig := append([]float64(nil), x...)
	p := wht.Iterative(2)
	if err := wht.Apply(p, x); err != nil {
		t.Fatal(err)
	}
	if err := wht.Inverse(p, x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-orig[i]) > 1e-12 {
			t.Fatal("inverse round trip")
		}
	}
	img := make([]float64, 8*16)
	img[0] = 1
	if err := wht.Transform2D(img, 8, 16); err != nil {
		t.Fatal(err)
	}
	for _, v := range img {
		if v != 1 {
			t.Fatal("2D impulse response must be all ones")
		}
	}
	// The 2-D transform is an involution up to its size.
	if err := wht.Apply2D(wht.Leaf(4), wht.Leaf(3), img); err != nil {
		t.Fatal(err)
	}
	for i, v := range img {
		want := 0.0
		if i == 0 {
			want = float64(len(img))
		}
		if v != want {
			t.Fatalf("Apply2D twice: element %d = %g, want %g", i, v, want)
		}
	}
}

func TestCombinedModelFacade(t *testing.T) {
	mach := wht.NewMachine()
	p := wht.Iterative(10)
	i := wht.Instructions(p, mach)
	m := wht.DirectMappedMisses(p, 8)
	if got := wht.Combined(1, 0.05, i, m); math.Abs(got-(float64(i)+0.05*float64(m))) > 1e-9 {
		t.Fatal("combined")
	}
}

func TestCompiledFacade(t *testing.T) {
	p := wht.Balanced(10, 4)
	sched, err := wht.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Size() != 1<<10 {
		t.Fatalf("schedule size %d", sched.Size())
	}

	x := make([]float64, 1<<10)
	x[1] = 1
	want := append([]float64(nil), x...)
	if err := wht.Apply(p, want); err != nil {
		t.Fatal(err)
	}
	if err := wht.Run(sched, x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("Run and Apply disagree at %d: %v vs %v", i, x[i], want[i])
		}
	}

	par := append([]float64(nil), want...)
	for i := range par {
		par[i] = 0
	}
	par[1] = 1
	if err := wht.RunCtx(context.Background(), sched, par, 2); err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if par[i] != want[i] {
			t.Fatalf("RunCtx disagrees at %d", i)
		}
	}

	for _, workers := range []int{1, 2} {
		batch := make([][]float64, 3)
		for i := range batch {
			batch[i] = make([]float64, 1<<10)
			batch[i][1] = 1
		}
		if err := wht.RunBatch(nil, sched, batch, workers); err != nil {
			t.Fatal(err)
		}
		for b := range batch {
			for i := range batch[b] {
				if batch[b][i] != want[i] {
					t.Fatalf("RunBatch with %d workers disagrees at vector %d index %d", workers, b, i)
				}
			}
		}
	}

	b32 := [][]float32{make([]float32, 1<<10)}
	b32[0][1] = 1
	if err := wht.RunBatch(nil, sched, b32, 1); err != nil {
		t.Fatal(err)
	}
	for i := range b32[0] {
		if float64(b32[0][i]) != want[i] {
			t.Fatalf("float32 RunBatch disagrees at %d", i)
		}
	}
}

// TestBatchSoAFacade drives the SoA batch tier through the public API:
// the crossover knob routes RunBatch through SoA, sequential and
// parallel, bitwise-equal to per-vector evaluation.
func TestBatchSoAFacade(t *testing.T) {
	p := wht.Balanced(12, wht.MaxLeafLog)
	sched, err := wht.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	const lane = 5
	batch := make([][]float64, lane)
	want := make([][]float64, lane)
	for b := range batch {
		batch[b] = make([]float64, 1<<12)
		for j := range batch[b] {
			batch[b][j] = float64((b*j)%13) - 6
		}
		want[b] = append([]float64(nil), batch[b]...)
		if err := wht.Run(sched, want[b]); err != nil {
			t.Fatal(err)
		}
	}

	// The knob: forcing the crossover to 1 routes RunBatch through SoA.
	s2, err := wht.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetSoAMinBatch(1)
	if got := s2.SoAMinBatch(); got != 1 {
		t.Fatalf("SoAMinBatch = %d after SetSoAMinBatch(1)", got)
	}
	if err := wht.RunBatch(nil, s2, batch, 1); err != nil {
		t.Fatal(err)
	}
	for b := range batch {
		for j := range batch[b] {
			if batch[b][j] != want[b][j] {
				t.Fatalf("RunBatch via SoA diverges at vector %d element %d", b, j)
			}
		}
	}

	// Float32 parallel form.
	b32 := make([][]float32, 4)
	w32 := make([][]float32, 4)
	for b := range b32 {
		b32[b] = make([]float32, 1<<12)
		for j := range b32[b] {
			b32[b][j] = float32(j%7) - 3
		}
		w32[b] = append([]float32(nil), b32[b]...)
		if err := wht.Run(sched, w32[b]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wht.RunBatch(context.Background(), s2, b32, 2); err != nil {
		t.Fatal(err)
	}
	for b := range b32 {
		for j := range b32[b] {
			if b32[b][j] != w32[b][j] {
				t.Fatalf("parallel RunBatch via SoA diverges at vector %d element %d", b, j)
			}
		}
	}
}

// The backend axis through the facade: parse/format round-trips, pinned
// compilation, the process override, and bitwise equality between the
// scalar and SIMD tiers — exercised exactly as a downstream user would.
func TestBackendFacade(t *testing.T) {
	defer wht.SetBackend(wht.AutoBackend)
	for _, s := range []string{"", "auto", "scalar", "simd", "off", "on"} {
		if _, ok := wht.ParseBackend(s); !ok {
			t.Fatalf("ParseBackend rejected %q", s)
		}
	}
	if _, ok := wht.ParseBackend("avx512"); ok {
		t.Fatal("ParseBackend accepted an unknown spelling")
	}
	if wht.SIMDAvailable() && wht.ISAFeatures() == "" {
		t.Fatal("SIMD tier reported without ISA features")
	}

	p, err := wht.Parse("split[small[6],small[6]]")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 1<<12)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	scalar, err := wht.CompileWith(p, wht.VariantPolicy{Backend: wht.ScalarBackend})
	if err != nil {
		t.Fatal(err)
	}
	simd, err := wht.CompileWith(p, wht.VariantPolicy{Backend: wht.SIMDBackend})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), x...)
	if err := wht.Run(scalar, want); err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), x...)
	if err := wht.Run(simd, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("SIMD backend diverges at %d: %v != %v (bitwise)", i, got[i], want[i])
		}
	}

	// The process override steers Auto schedules; restore at exit.
	wht.SetBackend(wht.ScalarBackend)
	if got := wht.ActiveBackend(); got != wht.ScalarBackend {
		t.Fatalf("ActiveBackend = %v after SetBackend(scalar)", got)
	}
	auto, err := wht.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	y := append([]float64(nil), x...)
	if err := wht.Run(auto, y); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("forced-scalar auto run diverges at %d", i)
		}
	}
}
