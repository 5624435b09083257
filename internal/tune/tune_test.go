package tune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/wisdom"
)

// quickOpt keeps tuning runs fast enough for the test suite while still
// exercising every phase (stage timings, DP, whole-sequence timing).
func quickOpt() Options {
	return Options{
		Timing: exec.TimingOptions{Warmup: 1, Repeat: 1, MinDuration: 100 * time.Microsecond},
	}
}

// TestTuneSweepKeepsIncumbentAgainstBadPolicies is the regression test
// for the phase-4 seeding bug: the sweep's `first` flag made the first
// swept (plan, policy) measurement unconditionally replace the phase-3
// winner, so a caller passing a custom Options.Policies list that omits
// the default policy could get a strictly slower pair registered behind
// the serving path.  With a deliberately bad single-policy list (the
// legacy strided-only engine, reliably slower than the stage-shaped
// default at out-of-cache sizes), the re-timed incumbent must keep the
// slot — in the result and in the serving registration.
func TestTuneSweepKeepsIncumbentAgainstBadPolicies(t *testing.T) {
	Reset()
	defer Reset()
	// n=16 is the smallest size where the stage-shaped default beats the
	// strided walk by a wide, stable margin (BenchmarkVariantStages:
	// ~1.9x), so the measured comparison cannot flip on timing noise.
	opt := quickOpt()
	opt.Timing = exec.TimingOptions{Warmup: 1, Repeat: 3, MinDuration: 500 * time.Microsecond}
	opt.Policies = []codelet.Policy{{StridedOnly: true}}
	res, err := Tune(16, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.StridedOnly {
		t.Fatalf("sweep registered the deliberately bad strided-only policy (%.0f ns/run)", res.NsPerRun)
	}
	if res.NsPerRun <= 0 {
		t.Fatalf("implausible incumbent timing %g", res.NsPerRun)
	}
	if _, cfg, ok := exec.TunedConfigFor(16); !ok || cfg.Policy.StridedOnly {
		t.Fatalf("serving path registered policy %+v (ok=%v), want the incumbent default", cfg.Policy, ok)
	}
}

// whttune's speedup column is BaselineNs/NsPerRun, so the two must be
// timed at the same effort: when the result is the untuned default
// under the default policy, they are one and the same measurement.
// (They were not: the baseline kept its quick phase-2 timing while the
// incumbent was re-timed at rematch effort, so an unchanged default
// plan reported speedups anywhere from 1.3x to 2.8x.)
func TestTuneBaselineMatchesDefaultResult(t *testing.T) {
	Reset()
	defer Reset()
	opt := quickOpt()
	opt.Policies = []codelet.Policy{codelet.DefaultPolicy()}
	opt.NoBackendSweep = true
	// At n = 1 every candidate is small[1], the untuned default; only
	// the scalar-pinned policy twin can displace the default result.
	checked := 0
	for try := 0; try < 8 && checked < 2; try++ {
		res, err := Tune(1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Plan.Equal(exec.DefaultPlan(1, codelet.AutoBackend)) || res.Policy != codelet.DefaultPolicy() || res.StageBackends != nil {
			continue
		}
		checked++
		if res.BaselineNs != res.NsPerRun {
			t.Fatalf("default result: BaselineNs %.1f != NsPerRun %.1f", res.BaselineNs, res.NsPerRun)
		}
	}
	if checked == 0 {
		t.Skip("the scalar twin won every run; no default result to check")
	}
}

func TestTuneRegistersServingPlanAndWisdom(t *testing.T) {
	Reset()
	defer Reset()
	const n = 9
	res, err := Tune(n, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Log2Size() != n || res.Plan.Validate() != nil {
		t.Fatalf("bad tuned plan %v", res.Plan)
	}
	if res.NsPerRun <= 0 {
		t.Fatalf("bad measurement %g", res.NsPerRun)
	}
	if res.Measured < 2 {
		t.Fatalf("only %d plans measured — baselines missing?", res.Measured)
	}
	// The serving path now prefers the tuned plan ...
	if p, _, ok := exec.TunedConfigFor(n); !ok || !p.Equal(res.Plan) {
		t.Fatalf("TunedConfigFor plan = (%v, %v), want the tuned plan", p, ok)
	}
	// ... compiled under the policy the sweep measured fastest (with any
	// per-stage backend pins the sweep registered alongside it) ...
	ref := exec.CompileWith(res.Plan, res.Policy)
	if res.StageBackends != nil {
		if err := ref.SetStageBackends(res.StageBackends); err != nil {
			t.Fatalf("reference SetStageBackends: %v", err)
		}
	}
	if got, want := exec.ForSize(n).String(), ref.String(); got != want {
		t.Fatalf("ForSize serves %s, want %s", got, want)
	}
	if _, cfg, ok := exec.TunedConfigFor(n); !ok || cfg.Policy != res.Policy {
		t.Fatalf("TunedConfigFor policy = (%+v, %v), want (%+v, true)", cfg.Policy, ok, res.Policy)
	}
	// ... and the wisdom store remembers plan and policy.
	if p, pol, ns, ok := Wisdom().LookupPolicy(n, wisdom.Float64); !ok || !p.Equal(res.Plan) ||
		ns != res.NsPerRun || pol != res.Policy {
		t.Fatalf("wisdom lookup = (%v, %+v, %g, %v)", p, pol, ns, ok)
	}
}

// TestTunePlanPhaseStageBudget pins the plan phase's cost: one timing
// per stage the size's sequences can hold — at most plan.MaxLeafLog * n,
// the blocked prefix's stages timed once at one cache block above it —
// then at most planTopK+1 whole sequences, the rematch and the policy
// sweep.
func TestTunePlanPhaseStageBudget(t *testing.T) {
	Reset()
	defer Reset()
	opt := quickOpt()
	opt.Policies = []codelet.Policy{codelet.DefaultPolicy()}
	opt.NoBackendSweep = true
	for _, n := range []int{10, 18} {
		stages := len(exec.StageKeys(n))
		if n > 16 {
			stages += len(exec.StageKeys(16))
		}
		if stages > plan.MaxLeafLog*n {
			t.Fatalf("n=%d: %d stage timings, above %d", n, stages, plan.MaxLeafLog*n)
		}
		res, err := Tune(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		if max := stages + planTopK + 1 + 2 + len(backendAxis(opt.Policies)); res.Measured < stages || res.Measured > max {
			t.Fatalf("n=%d: %d timings, want %d stage timings plus at most %d", n, res.Measured, stages, max-stages)
		}
	}
}

func TestSaveLoadServeRoundTrip(t *testing.T) {
	Reset()
	defer Reset()
	const n = 8
	res, err := Tune(n, quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := SaveWisdom(path); err != nil {
		t.Fatal(err)
	}

	// Simulate a fresh process: no tuned plans, cold schedule cache.
	Reset()
	def := exec.Compile(exec.DefaultPlan(n, codelet.AutoBackend))
	if got := exec.ForSize(n).String(); got != def.String() {
		t.Fatalf("after reset ForSize serves %s, want the default %s", got, def)
	}

	// Loading wisdom must seed the cache so ForSize serves the tuned
	// plan — from the warmed entry, i.e. as a cache hit.
	exec.ResetTunedPlans() // cold cache again (drops the default entry)
	if err := LoadWisdom(path); err != nil {
		t.Fatal(err)
	}
	// The tuned schedule carries any per-stage backend pins the sweep
	// registered (a multi-stage winner can get them).
	want, err := tunedSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	before := exec.DefaultCacheStats()
	if got := exec.ForSize(n).String(); got != want.String() {
		t.Fatalf("wisdom-seeded ForSize serves %s, want tuned %s", got, want)
	}
	after := exec.DefaultCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("wisdom-seeded lookup was not a warm hit: %+v -> %+v", before, after)
	}
}

// tunedSchedule compiles the result's winning plan under its winning
// policy and re-applies the measured per-stage backend pins: the
// schedule the registration serves.
func tunedSchedule(res Result) (*exec.Schedule, error) {
	s, err := exec.NewScheduleWith(res.Plan, res.Policy)
	if err != nil {
		return nil, err
	}
	if res.StageBackends != nil {
		if err := s.SetStageBackends(res.StageBackends); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// A wisdom file written while the engine had a block-kernel leaf tier
// holds a tuned block-leaf plan (with its block_parts) next to an
// ordinary entry.  LoadWisdom accepts the file, registers and records
// only the ordinary entry, and leaves the block entry's size on the
// default plan.
func TestTunedBlockPlanRoundTrip(t *testing.T) {
	Reset()
	defer Reset()
	path := refingerprint(t, "block_leaf_v1.json")
	if err := LoadWisdom(path); err != nil {
		t.Fatalf("LoadWisdom: %v", err)
	}
	if p, _, ok := exec.TunedConfigFor(10); !ok || !p.Equal(plan.MustParse("split[small[5],small[5]]")) {
		t.Fatalf("TunedConfigFor(10) plan = (%v, %v), want the ordinary entry", p, ok)
	}
	if p, _, ok := exec.TunedConfigFor(18); ok {
		t.Fatalf("block-leaf entry registered as %v", p)
	}
	if Wisdom().Len() != 1 {
		t.Fatalf("process wisdom holds %d entries, want 1", Wisdom().Len())
	}
	if got, want := exec.ForSize(18).String(), exec.Compile(exec.DefaultPlan(18, codelet.AutoBackend)).String(); got != want {
		t.Fatalf("ForSize(18) serves %s, want the default %s", got, want)
	}
}

// refingerprint copies a wisdom package fixture to a temp file under
// this process's fingerprint, which LoadWisdom requires; the entries
// are untouched.
func refingerprint(t *testing.T, name string) string {
	t.Helper()
	fixture, err := os.ReadFile(filepath.Join("..", "wisdom", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(fixture, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["fingerprint"], err = json.Marshal(wisdom.CurrentFingerprint()); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A wisdom file written while the engine had two parallel tiers and a
// structure-of-arrays batch tier pins "barrier" or "pipelined" and a
// batch crossover per entry.  LoadWisdom accepts it, serves every
// float64 entry's plan and knobs, and SaveWisdom re-writes the file
// without the retired fields.
func TestLoadWisdomLegacyParallelMode(t *testing.T) {
	Reset()
	defer Reset()
	if err := LoadWisdom(refingerprint(t, "parallel_mode_v1.json")); err != nil {
		t.Fatalf("LoadWisdom: %v", err)
	}
	for _, c := range []struct {
		n    int
		plan string
		cfg  exec.TunedConfig
	}{
		{12, "split[small[6],small[6]]", exec.TunedConfig{Policy: codelet.DefaultPolicy()}},
		{14, "split[small[6],small[8]]", exec.TunedConfig{Policy: codelet.Policy{ILMinS: 8, ILFuse: true}}},
	} {
		p := plan.MustParse(c.plan)
		if got, _, ok := exec.TunedConfigFor(c.n); !ok || !got.Equal(p) {
			t.Fatalf("TunedConfigFor(%d) plan = (%v, %v), want %s", c.n, got, ok, c.plan)
		}
		if _, cfg, ok := exec.TunedConfigFor(c.n); !ok || cfg.Policy != c.cfg.Policy {
			t.Fatalf("TunedConfigFor(%d) = (%+v, %v), want %+v", c.n, cfg, ok, c.cfg)
		}
		if got, want := exec.ForSize(c.n).String(), exec.CompileWith(p, c.cfg.Policy).String(); got != want {
			t.Fatalf("ForSize(%d) serves %s, want %s", c.n, got, want)
		}
	}
	if Wisdom().Len() != 3 {
		t.Fatalf("process wisdom holds %d entries, want 3", Wisdom().Len())
	}
	path := filepath.Join(t.TempDir(), "resaved.json")
	if err := SaveWisdom(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"parallel_mode", "soa_min_batch"} {
		if strings.Contains(string(data), field) {
			t.Fatalf("re-saved wisdom kept %s:\n%s", field, data)
		}
	}
}

// backendAxis widens Auto-backend policies with scalar-pinned twins on
// SIMD hosts and is the identity elsewhere; pinned policies never gain
// twins and the output carries no duplicates.
func TestBackendAxis(t *testing.T) {
	in := []codelet.Policy{
		codelet.DefaultPolicy(),
		{ILFuse: true},
		{Backend: codelet.SIMDBackend},
		{Backend: codelet.ScalarBackend},
	}
	out := backendAxis(in)
	if !codelet.SIMDAvailable() {
		if len(out) != len(in) {
			t.Fatalf("scalar host: backendAxis changed the grid: %d -> %d", len(in), len(out))
		}
		return
	}
	// Two Auto policies gain scalar twins; {Backend: Scalar} collides
	// with the default's twin and must not duplicate.
	want := map[codelet.Policy]bool{
		codelet.DefaultPolicy():                        true,
		{Backend: codelet.ScalarBackend}:               true,
		{ILFuse: true}:                                 true,
		{ILFuse: true, Backend: codelet.ScalarBackend}: true,
		{Backend: codelet.SIMDBackend}:                 true,
	}
	if len(out) != len(want) {
		t.Fatalf("backendAxis returned %d policies %+v, want %d", len(out), out, len(want))
	}
	seen := map[codelet.Policy]bool{}
	for _, p := range out {
		if !want[p] {
			t.Fatalf("unexpected policy %+v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate policy %+v", p)
		}
		seen[p] = true
	}
	// The original order is preserved for the policies that were already
	// present, so the incumbent-first sweep semantics are unchanged.
	if out[0] != in[0] {
		t.Fatalf("backendAxis reordered the grid head: %+v", out[0])
	}
}

// The backend the sweep measures fastest rides the full registration
// path: result, serving policy, and a wisdom save/load round-trip.
func TestTuneBackendSweepRoundTrip(t *testing.T) {
	Reset()
	defer Reset()
	const n = 10
	opt := quickOpt()
	opt.Policies = []codelet.Policy{
		{Backend: codelet.ScalarBackend},
		{Backend: codelet.SIMDBackend},
	}
	res, err := Tune(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	switch res.Policy.Backend {
	case codelet.AutoBackend, codelet.ScalarBackend, codelet.SIMDBackend:
	default:
		t.Fatalf("tuned policy carries backend %v", res.Policy.Backend)
	}
	if _, cfg, ok := exec.TunedConfigFor(n); !ok || cfg.Policy != res.Policy {
		t.Fatalf("serving policy = (%+v, %v), want %+v", cfg.Policy, ok, res.Policy)
	}
	// A measured per-stage vector, when one won, must be well-formed and
	// registered behind the serving path.
	if res.StageBackends != nil {
		sched, err := exec.NewScheduleWith(res.Plan, res.Policy)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.StageBackends) != len(sched.Stages()) {
			t.Fatalf("stage backend vector length %d for %d stages", len(res.StageBackends), len(sched.Stages()))
		}
		for i, b := range res.StageBackends {
			if b != codelet.ScalarBackend && b != codelet.SIMDBackend {
				t.Fatalf("stage %d swept to backend %v", i, b)
			}
		}
		if _, cfg, ok := exec.TunedConfigFor(n); !ok || !backendsEqual(cfg.StageBackends, res.StageBackends) {
			t.Fatalf("serving stage backends = (%v, %v), want %v", cfg.StageBackends, ok, res.StageBackends)
		}
	}
	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := SaveWisdom(path); err != nil {
		t.Fatal(err)
	}
	Reset()
	if err := LoadWisdom(path); err != nil {
		t.Fatal(err)
	}
	if _, pol, _, ok := Wisdom().LookupPolicy(n, wisdom.Float64); !ok || pol != res.Policy {
		t.Fatalf("wisdom round-trip policy = (%+v, %v), want %+v", pol, ok, res.Policy)
	}
	if _, cfg, ok := exec.TunedConfigFor(n); !ok || cfg.Policy != res.Policy {
		t.Fatalf("reloaded serving policy = (%+v, %v), want %+v", cfg.Policy, ok, res.Policy)
	}
	if _, cfg, ok := exec.TunedConfigFor(n); !ok || !backendsEqual(cfg.StageBackends, res.StageBackends) {
		t.Fatalf("reloaded stage backends = (%v, %v), want %v", cfg.StageBackends, ok, res.StageBackends)
	}
}

func backendsEqual(a, b []codelet.Backend) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
