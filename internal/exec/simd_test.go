package exec

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// simdBasePolicies is the policy grid the SIMD equivalence sweep pins
// the backend axis onto: the shapes whose streaming slots the vector
// tier replaces (interleaved, fused radix-4, and — through the
// parallel fan-out's partial rows — the range forms).
func simdBasePolicies() []codelet.Policy {
	return []codelet.Policy{
		codelet.DefaultPolicy(),
		{ILMinS: 2},
		{ILFuse: true},
		{ILMinS: 2, ILFuse: true},
	}
}

// withBackend returns pol with the backend pinned.
func withBackend(pol codelet.Policy, b codelet.Backend) codelet.Policy {
	pol.Backend = b
	return pol
}

// checkSIMDEquivalence demands bitwise equality between the
// scalar-pinned and SIMD-pinned compilations of one (plan, policy)
// pair across the sequential, strided, parallel, batch, and SoA batch
// engines.  On hosts without the vector tier the SIMD schedule resolves
// scalar and the check degenerates to self-consistency — exactly the
// fallback contract.
func checkSIMDEquivalence[T Float](t *testing.T, p *plan.Node, pol codelet.Policy, lanes []int, rng *rand.Rand, label string) {
	t.Helper()
	scalar, err := NewScheduleWith(p, withBackend(pol, codelet.ScalarBackend))
	if err != nil {
		t.Fatal(err)
	}
	simd, err := NewScheduleWith(p, withBackend(pol, codelet.SIMDBackend))
	if err != nil {
		t.Fatal(err)
	}
	if scalar.SIMDEnabled() {
		t.Fatalf("%s: scalar-pinned schedule reports SIMD", label)
	}
	if simd.SIMDEnabled() != codelet.SIMDAvailable() {
		t.Fatalf("%s: SIMD-pinned schedule reports %v, host tier is %v",
			label, simd.SIMDEnabled(), codelet.SIMDAvailable())
	}

	n := p.Size()
	x := make([]T, n)
	for i := range x {
		x[i] = T(rng.Float64()*2 - 1)
	}
	want := append([]T(nil), x...)
	MustRun(scalar, want)

	got := append([]T(nil), x...)
	MustRun(simd, got)
	assertBatchEqual(t, label+"/run", [][]T{got}, [][]T{want})

	// Unaligned base and non-unit stride through the strided entry point.
	const base, stride = 3, 5
	buf := make([]T, base+(n-1)*stride+1)
	for i := range buf {
		buf[i] = T(rng.Float64()*2 - 1)
	}
	wantBuf := append([]T(nil), buf...)
	if err := RunStrided(scalar, wantBuf, base, stride); err != nil {
		t.Fatal(err)
	}
	gotBuf := append([]T(nil), buf...)
	if err := RunStrided(simd, gotBuf, base, stride); err != nil {
		t.Fatal(err)
	}
	assertBatchEqual(t, label+"/strided", [][]T{gotBuf}, [][]T{wantBuf})

	// The parallel fan-out, called directly so the small sizes split
	// too: its partial-row chunks are the range kernels' exec-level
	// entry.
	for _, workers := range []int{2, 5} {
		got = append([]T(nil), x...)
		if err := runBarrier(nil, simd, got, workers); err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, fmt.Sprintf("%s/parallel-%d", label, workers), [][]T{got}, [][]T{want})
	}

	// The SoA batch tier at the swept lane widths (including widths that
	// are not multiples of the vector width, so the masked tails run).
	for _, lane := range lanes {
		xs := randomBatch[T](rng, lane, n)
		wantBatch := cloneBatch(xs)
		for _, v := range wantBatch {
			MustRun(scalar, v)
		}
		gotBatch := cloneBatch(xs)
		simd.SetSoAMinBatch(1)
		if err := RunBatch(nil, simd, gotBatch, 1); err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, fmt.Sprintf("%s/soa-%d", label, lane), gotBatch, wantBatch)
	}
}

// TestSIMDBackendBitwiseEqualsScalar is the acceptance property of the
// SIMD backend: pinning Policy.Backend to the vector tier never changes
// a single output bit relative to the scalar kernels, across transform
// sizes from the codelet range through the out-of-cache regime, lane
// widths around and off the vector width, unaligned strided access,
// both element types, and every engine.  Dense small sizes sweep the
// full grid; the large sizes spot-check the out-of-cache regime with
// thinned axes to bound the suite's runtime.
func TestSIMDBackendBitwiseEqualsScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 103))
	fullLanes := []int{1, 3, 4, 7, 8, 16}
	for n := 1; n <= 12; n++ {
		p := soaTestPlan(n)
		for _, pol := range simdBasePolicies() {
			label := fmt.Sprintf("n=%d/pol=%+v", n, pol)
			checkSIMDEquivalence[float64](t, p, pol, fullLanes, rng, label+"/f64")
			checkSIMDEquivalence[float32](t, p, pol, fullLanes, rng, label+"/f32")
		}
	}
	if testing.Short() {
		return
	}
	spot := []struct {
		n     int
		lanes []int
		f32   bool
	}{
		{16, []int{1, 3, 8}, true},
		{18, []int{1, 3}, false},
		{20, []int{3}, false},
	}
	for _, sc := range spot {
		p := soaTestPlan(sc.n)
		for _, pol := range []codelet.Policy{codelet.DefaultPolicy(), {ILFuse: true}} {
			label := fmt.Sprintf("n=%d/pol=%+v", sc.n, pol)
			checkSIMDEquivalence[float64](t, p, pol, sc.lanes, rng, label+"/f64")
			if sc.f32 {
				checkSIMDEquivalence[float32](t, p, pol, sc.lanes, rng, label+"/f32")
			}
		}
	}
}

// mixedBackendVectors builds the deterministic per-stage backend
// vectors the mixed-pin sweep drives through SetStageBackends: the two
// alternating scalar/SIMD phases and a three-way rotation that includes
// AutoBackend stages.  Single-stage schedules still get distinct pins
// (SIMD-only, scalar-only, auto-only) out of the same patterns.
func mixedBackendVectors(nStages int) [][]codelet.Backend {
	pats := [][]codelet.Backend{
		{codelet.SIMDBackend, codelet.ScalarBackend},
		{codelet.ScalarBackend, codelet.SIMDBackend},
		{codelet.AutoBackend, codelet.SIMDBackend, codelet.ScalarBackend},
	}
	out := make([][]codelet.Backend, len(pats))
	for i, pat := range pats {
		v := make([]codelet.Backend, nStages)
		for j := range v {
			v[j] = pat[j%len(pat)]
		}
		out[i] = v
	}
	return out
}

// checkMixedPinEquivalence pins a schedule's stages to the given
// backend vector and demands bitwise equality with the scalar-pinned
// compilation across the sequential, strided, parallel, and SoA batch
// engines.
func checkMixedPinEquivalence[T Float](t *testing.T, p *plan.Node, pol codelet.Policy, bs []codelet.Backend, lanes []int, rng *rand.Rand, label string) {
	t.Helper()
	scalar, err := NewScheduleWith(p, withBackend(pol, codelet.ScalarBackend))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewScheduleWith(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := mixed.SetStageBackends(bs); err != nil {
		t.Fatal(err)
	}
	got := mixed.StageBackends()
	for i := range bs {
		if got[i] != bs[i] {
			t.Fatalf("%s: StageBackends()[%d] = %v, want %v", label, i, got[i], bs[i])
		}
	}

	n := p.Size()
	x := make([]T, n)
	for i := range x {
		x[i] = T(rng.Float64()*2 - 1)
	}
	want := append([]T(nil), x...)
	MustRun(scalar, want)

	run := append([]T(nil), x...)
	MustRun(mixed, run)
	assertBatchEqual(t, label+"/run", [][]T{run}, [][]T{want})

	const base, stride = 3, 5
	buf := make([]T, base+(n-1)*stride+1)
	for i := range buf {
		buf[i] = T(rng.Float64()*2 - 1)
	}
	wantBuf := append([]T(nil), buf...)
	if err := RunStrided(scalar, wantBuf, base, stride); err != nil {
		t.Fatal(err)
	}
	gotBuf := append([]T(nil), buf...)
	if err := RunStrided(mixed, gotBuf, base, stride); err != nil {
		t.Fatal(err)
	}
	assertBatchEqual(t, label+"/strided", [][]T{gotBuf}, [][]T{wantBuf})

	for _, workers := range []int{2, 5} {
		run = append([]T(nil), x...)
		if err := runBarrier(nil, mixed, run, workers); err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, fmt.Sprintf("%s/parallel-%d", label, workers), [][]T{run}, [][]T{want})
	}

	for _, lane := range lanes {
		xs := randomBatch[T](rng, lane, n)
		wantBatch := cloneBatch(xs)
		for _, v := range wantBatch {
			MustRun(scalar, v)
		}
		gotBatch := cloneBatch(xs)
		mixed.SetSoAMinBatch(1)
		if err := RunBatch(nil, mixed, gotBatch, 1); err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, fmt.Sprintf("%s/soa-%d", label, lane), gotBatch, wantBatch)
	}
}

// TestMixedStageBackendsBitwiseEqualsScalar extends the backend
// equivalence property to per-stage pins: every mix of scalar, SIMD,
// and auto stages in one schedule computes bitwise the same results as
// the all-scalar compilation, across engines, element types, and
// transform sizes from one codelet to out-of-cache schedules.  On
// hosts without the vector tier every pin resolves scalar and the sweep
// degenerates to self-consistency — the fallback contract.
func TestMixedStageBackendsBitwiseEqualsScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(211, 223))
	lanes := []int{1, 3, 8}
	sizes := []int{1, 2, 3, 5, 7, 9, 12}
	if !testing.Short() {
		sizes = append(sizes, 16, 18, 20)
	}
	for _, n := range sizes {
		p := soaTestPlan(n)
		for _, pol := range []codelet.Policy{codelet.DefaultPolicy(), {ILMinS: 2, ILFuse: true}} {
			nStages := len(CompileWith(p, pol).Stages())
			for vi, bs := range mixedBackendVectors(nStages) {
				label := fmt.Sprintf("n=%d/pol=%+v/mix=%d", n, pol, vi)
				l := lanes
				if n >= 16 {
					l = []int{3}
				}
				checkMixedPinEquivalence[float64](t, p, pol, bs, l, rng, label+"/f64")
				if n <= 12 {
					checkMixedPinEquivalence[float32](t, p, pol, bs, l, rng, label+"/f32")
				}
			}
		}
	}
}

// TestSetStageBackendsSemantics pins the setter's contract: length
// mismatches and unknown backend values are rejected, SIMDEnabled
// reports any-stage resolution, the String rendering marks pins that
// differ from the compile policy, and an explicit per-stage SIMD pin
// beats a scalar process override (degrading only on hosts without the
// tier) — the forced-SIMD-on-scalar-host fallback.
func TestSetStageBackendsSemantics(t *testing.T) {
	defer codelet.SetBackend(codelet.AutoBackend)
	p := soaTestPlan(10)
	s := CompileWith(p, codelet.DefaultPolicy())
	nStages := s.NumStages()
	if nStages < 2 {
		t.Fatalf("test plan compiled to %d stages, need >= 2", nStages)
	}

	if err := s.SetStageBackends(make([]codelet.Backend, nStages+1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := make([]codelet.Backend, nStages)
	bad[0] = codelet.Backend(250)
	if err := s.SetStageBackends(bad); err == nil {
		t.Fatal("unknown backend value accepted")
	}

	bs := make([]codelet.Backend, nStages)
	for i := range bs {
		bs[i] = codelet.ScalarBackend
	}
	bs[0] = codelet.SIMDBackend
	if err := s.SetStageBackends(bs); err != nil {
		t.Fatal(err)
	}
	if got := s.SIMDEnabled(); got != codelet.SIMDAvailable() {
		t.Fatalf("one SIMD pin: SIMDEnabled = %v, host tier is %v", got, codelet.SIMDAvailable())
	}
	if str := s.String(); !strings.Contains(str, "@simd") || !strings.Contains(str, "@scalar") {
		t.Fatalf("String does not render the pins: %q", str)
	}

	// A scalar process override silences Auto stages but not explicit
	// pins; on hosts without the tier the pin itself degrades to scalar.
	codelet.SetBackend(codelet.ScalarBackend)
	if got := s.SIMDEnabled(); got != codelet.SIMDAvailable() {
		t.Fatalf("explicit pin under scalar override: SIMDEnabled = %v, want %v",
			got, codelet.SIMDAvailable())
	}
	x := make([]float64, s.Size())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := append([]float64(nil), x...)
	codelet.SetBackend(codelet.AutoBackend)
	scalarRef := CompileWith(p, withBackend(codelet.DefaultPolicy(), codelet.ScalarBackend))
	MustRun(scalarRef, want)
	codelet.SetBackend(codelet.ScalarBackend)
	MustRun(s, x)
	assertBatchEqual(t, "pin-under-override", [][]float64{x}, [][]float64{want})

	for i := range bs {
		bs[i] = codelet.AutoBackend
	}
	if err := s.SetStageBackends(bs); err != nil {
		t.Fatal(err)
	}
	if s.SIMDEnabled() {
		t.Fatal("auto stages must follow a scalar process override")
	}
}

// TestSIMDProcessOverrideForcedOnAndOff drives Auto-backend schedules
// under both process-wide overrides (the SetBackend / WHT_SIMD axis):
// resolution must follow the override on each run — the kernel table is
// rebuilt per run, not baked at compile time — and results must stay
// bitwise-identical either way.  The parallel engines run under both
// overrides so a -race pass covers the forced-on and forced-off
// configurations.
func TestSIMDProcessOverrideForcedOnAndOff(t *testing.T) {
	defer codelet.SetBackend(codelet.AutoBackend)
	rng := rand.New(rand.NewPCG(107, 109))
	const n = 13
	p := soaTestPlan(n)
	s, err := NewScheduleWith(p, codelet.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	x := randomVector(1<<n, rng)

	codelet.SetBackend(codelet.ScalarBackend)
	if s.SIMDEnabled() {
		t.Fatal("forced-scalar override not honored by an Auto schedule")
	}
	want := append([]float64(nil), x...)
	MustRun(s, want)

	codelet.SetBackend(codelet.SIMDBackend)
	if s.SIMDEnabled() != codelet.SIMDAvailable() {
		t.Fatalf("forced-SIMD override resolves %v, host tier is %v",
			s.SIMDEnabled(), codelet.SIMDAvailable())
	}
	for _, backend := range []codelet.Backend{codelet.SIMDBackend, codelet.ScalarBackend} {
		codelet.SetBackend(backend)
		got := append([]float64(nil), x...)
		MustRun(s, got)
		assertSame(t, fmt.Sprintf("forced-%v/run", backend), n, p, got, want)

		got = append([]float64(nil), x...)
		if err := runBarrier(nil, s, got, 4); err != nil {
			t.Fatal(err)
		}
		assertSame(t, fmt.Sprintf("forced-%v/parallel", backend), n, p, got, want)

		batch := [][]float64{append([]float64(nil), x...), append([]float64(nil), x...)}
		s.SetSoAMinBatch(1)
		if err := RunBatch(nil, s, batch, 1); err != nil {
			t.Fatal(err)
		}
		assertBatchEqual(t, fmt.Sprintf("forced-%v/soa", backend), batch, [][]float64{want, want})
	}
}
