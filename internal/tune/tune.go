// Package tune closes the loop the paper argues for: model-predicted
// costs and real measured performance diverge, so the plan a library
// serves should ultimately be chosen by measurement.  Every split tree
// executes as a sequence of butterfly stages, so Tune searches that
// executed space directly: it times each stage a size's sequences can
// hold, runs the exact stage-sequence DP (exec.BestStages) over the
// timings, times the cheapest sequences whole, then registers the
// winner behind the serving path (exec.ForSize) and records it in a
// process-wide wisdom store that SaveWisdom/LoadWisdom persist across
// restarts.  Random, annealed and pruned tree search live in
// internal/search, where the paper's figures need them.
package tune

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/wisdom"
)

// Options bounds a tuning run.  The zero value is a sensible quick
// tune: the stage-sequence DP over live stage timings, the cheapest
// planTopK sequences timed whole against the untuned default, and the
// kernel-variant and backend sweeps.
type Options struct {
	Timing exec.TimingOptions // warmup/repeat/min-duration of each real measurement

	// Policies is the set of kernel-variant selection policies measured
	// for the winning plan; the fastest is registered and recorded in
	// wisdom.  Empty selects DefaultPolicies.  On hosts with a SIMD
	// kernel tier the sweep widens each Auto-backend policy with a
	// scalar-pinned twin (see backendAxis), so the scalar-vs-SIMD choice
	// is measured per stage shape rather than assumed.
	Policies []codelet.Policy

	// NoBackendSweep skips the per-stage backend sweep: on hosts with a
	// SIMD kernel tier, each stage of the winning schedule is pinned to
	// the backend the machine model prefers when the margin is decisive
	// (machine.DecisiveBackendPreference), and the remaining stages are
	// settled by greedy measured flips.  A mixed vector only displaces
	// the uniform-policy incumbent on a strictly faster measurement.
	NoBackendSweep bool
}

// planTopK is how many of the DP's cheapest stage sequences the plan
// phase times whole: stage costs are not exactly additive, so the
// runners-up get a measured chance against the DP's first pick.
const planTopK = 4

// DefaultPolicies is the variant-policy grid a tuning run sweeps for the
// winning plan: the library default (contiguous + interleaved), the
// legacy strided engine, contiguous without interleaving, aggressive
// interleaving of every S > 1 stage, and the fused radix-4 interleaved
// forms (two butterfly levels per streaming pass) plain and aggressive.
func DefaultPolicies() []codelet.Policy {
	return []codelet.Policy{
		codelet.DefaultPolicy(),
		{StridedOnly: true},
		{ILMinS: -1},
		{ILMinS: 2},
		{ILFuse: true},
		{ILMinS: 2, ILFuse: true},
	}
}

func (o Options) withDefaults() Options {
	if len(o.Policies) == 0 {
		o.Policies = DefaultPolicies()
	}
	return o
}

// Result is the outcome of one tuning run.
type Result struct {
	Plan       *plan.Node     // the measured-fastest plan
	Policy     codelet.Policy // the variant policy it was fastest under
	NsPerRun   float64        // its measured median latency
	BaselineNs float64        // the untuned default's latency (exec.DefaultPlan), timed at NsPerRun's effort (the same timing when the default wins)
	Measured   int            // real timings spent (stage timings, whole sequences, rematch, policy/backend sweeps)

	// StageBackends is the measured per-stage backend vector registered
	// for the winner, nil when the sweep was skipped, moot (no SIMD
	// tier), or lost to the uniform policy backend.  Its length matches
	// the winner's compiled stage count.
	StageBackends []codelet.Backend
}

// rematchTiming doubles the measurement effort for the final head-to-head
// (defaults filled in first so doubling acts on the real values).
func rematchTiming(t exec.TimingOptions) exec.TimingOptions {
	if t.Repeat < 3 {
		t.Repeat = 3
	}
	if t.MinDuration <= 0 {
		t.MinDuration = 2 * time.Millisecond
	}
	t.MinDuration *= 2
	return t
}

// Tune finds a measured-fast plan for WHT(2^n), registers it as the plan
// ForSize/Transform serve at that size, and records it in the process
// wisdom store.  The plan phase times every stage the size's sequences
// can hold (at most plan.MaxLeafLog * n timings), runs the exact
// stage-sequence DP over them, and times the planTopK cheapest
// sequences whole beside the untuned default, so the tuned result is
// never a regression against the untuned serving path (up to timing
// noise).
func Tune(n int, opt Options) (Result, error) {
	if n < 1 || n > plan.MaxPlanLog {
		return Result{}, fmt.Errorf("tune: size 2^%d out of range", n)
	}
	opt = opt.withDefaults()
	mach := machine.VirtualOpteron224()
	pol := codelet.DefaultPolicy()

	// Phase 1: the DP over live stage timings, each stage timed alone
	// under the default policy.
	measured := 0
	seqs := exec.BestStages(n, planTopK, func(k exec.StageKey) float64 {
		measured++
		return exec.TimeStage[float64](k, pol, opt.Timing)
	})

	// Phase 2: time the cheapest sequences whole, the untuned default
	// first, deduplicated by compiled stage list.  Index order breaks
	// ties, so on a tie the default wins and serving does not churn.
	def := exec.DefaultPlan(n, codelet.AutoBackend)
	candidates := []*plan.Node{def}
	for _, sq := range seqs {
		candidates = append(candidates, plan.FromStages(sq.Stages))
	}
	seen := map[string]bool{}
	var best *plan.Node
	var bestNs, baselineNs float64
	for _, p := range candidates {
		s := exec.CompileWith(p, pol)
		if seen[s.String()] {
			continue
		}
		seen[s.String()] = true
		ns := exec.TimeSchedule(s, opt.Timing)
		measured++
		if best == nil {
			baselineNs = ns
		}
		if best == nil || ns < bestNs {
			best, bestNs = p, ns
		}
	}

	// Phase 3: rematch.  One noisy pass on a busy host can crown the
	// wrong plan, and serving must never churn onto a plan that cannot
	// beat the untuned default head to head — so the winner and the
	// default are re-timed back to back at double the duration, and the
	// default keeps the slot on anything but a clear loss.
	if best != def {
		rematch := rematchTiming(opt.Timing)
		winNs := exec.TimeSchedule(exec.CompileWith(best, pol), rematch)
		defNs := exec.TimeSchedule(exec.CompileWith(def, pol), rematch)
		measured += 2
		baselineNs = defNs
		if defNs <= winNs {
			best, bestNs = def, defNs
		} else {
			bestNs = winNs
		}
	}
	res := Result{Plan: best, Policy: pol, NsPerRun: bestNs, BaselineNs: baselineNs, Measured: measured}

	// Phase 4: variant-policy sweep — the axis the stage engine opened.
	// The winning plan is timed under every candidate kernel-variant
	// policy (same plan, different codelet selection per stage) back to
	// back at rematch effort.  The incumbent (plan, policy) pair is
	// re-timed FIRST at the same effort, and a swept pair only displaces
	// it on a strictly faster measurement: comparing against the
	// incumbent's stale phase-2/3 number — or, worse, unconditionally
	// seeding the sweep with its first candidate — let a caller whose
	// custom Policies list omits the incumbent's policy register a
	// strictly slower pair.  Ties keep the incumbent, so serving does not
	// churn on noise-level differences.
	if len(opt.Policies) > 0 {
		polTiming := rematchTiming(opt.Timing)
		incPol := res.Policy
		incSched, err := exec.NewScheduleWith(res.Plan, incPol)
		if err != nil {
			return Result{}, fmt.Errorf("tune: %w", err)
		}
		res.NsPerRun = exec.TimeSchedule(incSched, polTiming)
		measured++
		if res.Plan == def && incPol == codelet.DefaultPolicy() {
			// The incumbent is the untuned default: its fresh timing is
			// the baseline, so a default result reports no speedup.
			res.BaselineNs = res.NsPerRun
		}
		for _, pol := range backendAxis(opt.Policies) {
			if pol == incPol {
				continue // already freshly timed as the incumbent
			}
			s, err := exec.NewScheduleWith(res.Plan, pol)
			if err != nil {
				return Result{}, fmt.Errorf("tune: %w", err)
			}
			ns := exec.TimeSchedule(s, polTiming)
			measured++
			if ns < res.NsPerRun {
				res.Policy, res.NsPerRun = pol, ns
			}
		}
		res.Measured = measured
	}

	// Phase 4b: per-stage backend sweep — the axis per-stage pinning
	// opened.  The winner's stages rarely share a shape: a wide strided
	// stage may vectorize cleanly while a narrow contiguous one loses to
	// its scalar form.  The machine model prices each stage's backend
	// choice separately (DecisiveBackendPreference); decisive stages are
	// pinned to the model's pick without spending a measurement, and the
	// contested stages are settled by greedy measured flips.  The mixed
	// vector only displaces the uniform-policy incumbent on a strictly
	// faster run, so serving never churns onto a noise-level win.
	if !opt.NoBackendSweep && codelet.SIMDAvailable() {
		bs, ns, timed, err := sweepStageBackends(res, mach, rematchTiming(opt.Timing))
		if err != nil {
			return Result{}, fmt.Errorf("tune: %w", err)
		}
		measured += timed
		if bs != nil && ns < res.NsPerRun {
			res.StageBackends, res.NsPerRun = bs, ns
		}
		res.Measured = measured
	}

	if err := exec.UseTunedPlanWith(res.Plan, exec.TunedConfig{
		Policy: res.Policy, StageBackends: res.StageBackends,
	}); err != nil {
		return Result{}, fmt.Errorf("tune: %w", err)
	}
	store := processWisdom()
	tuned := wisdom.Tuned{Policy: res.Policy, StageBackends: res.StageBackends}
	if _, err := store.RecordFull(wisdom.Float64, res.Plan, tuned, res.NsPerRun); err != nil {
		return Result{}, fmt.Errorf("tune: %w", err)
	}
	return res, nil
}

// backendAxis widens a policy grid with the codelet-backend axis: on
// hosts with a SIMD kernel tier, every Auto-backend policy gains a
// scalar-pinned twin, so the sweep measures scalar-vs-SIMD per stage
// shape instead of assuming the vector tier wins (short streams can
// favor scalar).  Policies that already pin a backend pass through
// unchanged; without a SIMD tier every backend resolves scalar and the
// grid is returned as-is.
func backendAxis(policies []codelet.Policy) []codelet.Policy {
	if !codelet.SIMDAvailable() {
		return policies
	}
	seen := make(map[codelet.Policy]bool, 2*len(policies))
	out := make([]codelet.Policy, 0, 2*len(policies))
	add := func(p codelet.Policy) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range policies {
		add(p)
		if p.Backend == codelet.AutoBackend {
			p.Backend = codelet.ScalarBackend
			add(p)
		}
	}
	return out
}

// sweepStageBackends measures a mixed per-stage backend vector for the
// incumbent (plan, policy) pair.  The machine model prices each stage
// shape's scalar and vector forms (DecisiveBackendPreference): stages
// with a decisive margin are pinned to the model's pick without
// spending a measurement, and each contested stage is settled by a
// greedy measured flip from the model's starting point.  Returns the
// best vector and its latency (nil when the schedule has fewer than two
// stages — a uniform pin, which the policy sweep's backendAxis already
// measured) plus the number of timings spent.  The caller compares the
// returned latency against the incumbent's and keeps the faster.
func sweepStageBackends(res Result, mach *machine.Machine, timing exec.TimingOptions) ([]codelet.Backend, float64, int, error) {
	s, err := exec.NewScheduleWith(res.Plan, res.Policy)
	if err != nil {
		return nil, 0, 0, err
	}
	stages := s.Stages()
	if len(stages) < 2 {
		return nil, 0, 0, nil
	}
	lanes := machine.SIMDLanes(mach.ElemSize)
	bs := make([]codelet.Backend, len(stages))
	var open []int // stages the model's margin did not settle
	for i, st := range stages {
		simd, decisive := mach.Cost.DecisiveBackendPreference(st.M, st.R, st.S, st.V, st.Fused, lanes)
		bs[i] = codelet.ScalarBackend
		if simd {
			bs[i] = codelet.SIMDBackend
		}
		if !decisive {
			open = append(open, i)
		}
	}
	timed := 0
	time := func(v []codelet.Backend) (float64, error) {
		sched, err := exec.NewScheduleWith(res.Plan, res.Policy)
		if err != nil {
			return 0, err
		}
		if err := sched.SetStageBackends(v); err != nil {
			return 0, err
		}
		timed++
		return exec.TimeSchedule(sched, timing), nil
	}
	bestNs, err := time(bs)
	if err != nil {
		return nil, 0, timed, err
	}
	for _, i := range open {
		flipped := codelet.ScalarBackend
		if bs[i] == codelet.ScalarBackend {
			flipped = codelet.SIMDBackend
		}
		prev := bs[i]
		bs[i] = flipped
		ns, err := time(bs)
		if err != nil {
			return nil, 0, timed, err
		}
		if ns < bestNs {
			bestNs = ns
		} else {
			bs[i] = prev
		}
	}
	return bs, bestNs, timed, nil
}

// The process wisdom store: every Tune result accumulates here, and
// SaveWisdom/LoadWisdom persist and restore it.
var (
	storeMu sync.Mutex
	store   *wisdom.Wisdom
)

func processWisdom() *wisdom.Wisdom {
	storeMu.Lock()
	defer storeMu.Unlock()
	if store == nil {
		store = wisdom.New()
	}
	return store
}

// Wisdom exposes the process store (for inspection and tooling).
func Wisdom() *wisdom.Wisdom { return processWisdom() }

// SaveWisdom writes every plan tuned or loaded in this process to path.
func SaveWisdom(path string) error {
	return processWisdom().Save(path)
}

// LoadWisdom reads a wisdom file, merges it into the process store
// (keeping the faster entry per size), and registers every float64 entry
// as the plan the serving path uses for its size — the seed-from-wisdom
// path: a fresh process that loads wisdom serves tuned plans from the
// first Transform call on.
//
// Registration is all-or-nothing: every entry is validated and
// dry-run-compiled first, and only a file whose every entry passes
// publishes anything.  A file that fails mid-validation therefore never
// partially populates the tuned-plan registry or the process store — the
// rejecting error tells the caller the whole file was ignored, not some
// prefix of it.
func LoadWisdom(path string) error {
	w, err := wisdom.Load(path)
	if err != nil {
		return err
	}
	// Phase 1: validate.  wisdom.Load has checked the file's structure,
	// but registration has one failure surface Load cannot see: the
	// stage-backends vector must match the entry's plan compiled under
	// the entry's policy (a length or pin mismatch only surfaces at
	// SetStageBackends).  Dry-run the exact compile UseTunedPlanWith
	// performs before anything is published.
	type registration struct {
		p   *plan.Node
		cfg exec.TunedConfig
	}
	var regs []registration
	for _, e := range w.Entries() {
		if e.Type != wisdom.Float64 {
			continue
		}
		tc := e.Tuned()
		p := plan.MustParse(e.Plan)
		cfg := exec.TunedConfig{Policy: tc.Policy, StageBackends: tc.StageBackends}
		s, err := exec.NewScheduleWith(p, tc.Policy)
		if err != nil {
			return fmt.Errorf("tune: wisdom entry n=%d: %w", e.N, err)
		}
		if len(cfg.StageBackends) > 0 {
			if err := s.SetStageBackends(cfg.StageBackends); err != nil {
				return fmt.Errorf("tune: wisdom entry n=%d: %w", e.N, err)
			}
		}
		if e.Segments != "" {
			// The recorded out-of-core form must compile (Load has already
			// validated its grammar, size, and budget); TransformLarge
			// consults it via LookupSegments, so a broken form must reject
			// the file here, not at serve time.
			if _, err := exec.NewSegmentedSchedule(plan.MustParseSeg(e.Segments)); err != nil {
				return fmt.Errorf("tune: wisdom entry n=%d: %w", e.N, err)
			}
		}
		regs = append(regs, registration{p: p, cfg: cfg})
	}
	// Phase 2: publish.  Nothing below can fail — every input was
	// validated above with the same checks the setters run.
	if err := processWisdom().Merge(w); err != nil {
		return err
	}
	for _, r := range regs {
		if err := exec.UseTunedPlanWith(r.p, r.cfg); err != nil {
			return fmt.Errorf("tune: %w", err)
		}
	}
	return nil
}

// Reset drops the process wisdom store and every registered tuned plan,
// restoring the untuned defaults (tests and benchmark baselines).
func Reset() {
	storeMu.Lock()
	store = wisdom.New()
	storeMu.Unlock()
	exec.ResetTunedPlans()
}
