// Package tune closes the loop the paper argues for: model-predicted
// costs and real measured performance diverge, so the plan a library
// serves should ultimately be chosen by measurement.  Tune runs the
// paper's model-pruned search with a measured-cost final stage — draw
// random candidates, discard the ones the instruction model already
// condemns, time the survivors for real through the compiled engine —
// then registers the winner behind the serving path (exec.ForSize) and
// records it in a process-wide wisdom store that SaveWisdom/LoadWisdom
// persist across restarts.
package tune

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/wisdom"
)

// Options bounds a tuning run.  The zero value is a sensible quick tune:
// 24 random candidates, the best quarter measured for real, plus the
// canonical baselines and a sweep over the kernel-variant policies.
type Options struct {
	Candidates int                // random rsu candidates drawn (default 24)
	KeepFrac   float64            // fraction surviving the model filter into real timing (default 0.25)
	Seed       uint64             // sampling seed (default 1)
	Workers    int                // goroutines for the model-filter phase (<= 1 sequential)
	Timing     exec.TimingOptions // warmup/repeat/min-duration of each real measurement

	// Policies is the set of kernel-variant selection policies measured
	// for the winning plan; the fastest is registered and recorded in
	// wisdom.  Empty selects DefaultPolicies.  On hosts with a SIMD
	// kernel tier the sweep widens each Auto-backend policy with a
	// scalar-pinned twin (see backendAxis), so the scalar-vs-SIMD choice
	// is measured per stage shape rather than assumed.
	Policies []codelet.Policy

	// BatchWidths is the ascending set of batch widths the SoA-vs-AoS
	// sweep measures for the winning (plan, policy) pair; the smallest
	// width at which the SoA tier beats the per-vector path becomes the
	// registered batch crossover (Result.SoAMinBatch; -1 when the
	// per-vector path won everywhere).  Empty selects
	// DefaultBatchWidths; NoBatchSweep skips the sweep and leaves the
	// default shape heuristic in charge.
	BatchWidths  []int
	NoBatchSweep bool

	// NoBackendSweep skips the per-stage backend sweep: on hosts with a
	// SIMD kernel tier, each stage of the winning schedule is pinned to
	// the backend the machine model prefers when the margin is decisive
	// (machine.DecisiveBackendPreference), and the remaining stages are
	// settled by greedy measured flips.  A mixed vector only displaces
	// the uniform-policy incumbent on a strictly faster measurement.
	NoBackendSweep bool
}

// DefaultBatchWidths is the batch-width grid the SoA sweep measures:
// the default crossover width and one clearly-batched shape.
func DefaultBatchWidths() []int {
	return []int{exec.DefaultSoAMinBatch, 4 * exec.DefaultSoAMinBatch}
}

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
	if o.Candidates <= 0 {
		o.Candidates = 24
	}
	if o.KeepFrac <= 0 || o.KeepFrac > 1 {
		o.KeepFrac = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
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
	BaselineNs float64        // the balanced default's latency, timed at NsPerRun's effort (the same timing when the default wins)
	Measured   int            // real timings spent (model pruning, dedup, rematch, policy/batch sweeps included)

	// SoAMinBatch is the measured batch crossover registered for the
	// winner: the smallest swept width at which the SoA batch tier beat
	// the per-vector path, -1 if the per-vector path won at every width,
	// 0 if the sweep was skipped (default heuristic stays in charge).
	SoAMinBatch int

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
// wisdom store.  The measured candidate set always includes the balanced
// default and the model-optimal DP plan, so the tuned result is never a
// regression against the untuned serving path (up to timing noise).
func Tune(n int, opt Options) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("tune: size 2^%d out of range", n)
	}
	opt = opt.withDefaults()
	mach := machine.VirtualOpteron224()
	// The model filter is the variant-aware stage model, so the cheap
	// phase ranks candidates on the same stage-shape landscape (contig /
	// strided / interleaved) the measured phase will execute them in.
	model := search.NewStageModelCoster(mach.Cost, codelet.DefaultPolicy())

	// Phase 1: the paper's conclusion — spend cheap model evaluations to
	// shortlist, and expensive measurements only on the shortlist.
	sOpt := search.Options{Workers: opt.Workers}
	_, scored := search.Random(n, opt.Candidates, opt.Seed, model, sOpt)
	shortlist := search.Shortlist(scored, opt.KeepFrac)

	// Baselines first: index order breaks ties, so on a tie the balanced
	// default wins and serving behavior does not churn.
	candidates := []*plan.Node{plan.Balanced(n, plan.MaxLeafLog)}
	candidates = append(candidates, search.DP(n, model, sOpt).Plan)
	candidates = append(candidates, shortlist...)
	candidates = dedupe(candidates)

	// Phase 2: measure.  The memo table guards against duplicates that
	// survive dedupe via forks; the measured coster serializes timings.
	coster := search.Memoize(search.NewMeasuredCoster(opt.Timing))
	best := search.Result{Plan: nil, Cost: 0}
	for i, p := range candidates {
		c := coster.Cost(p)
		if i == 0 || c < best.Cost {
			best = search.Result{Plan: p, Cost: c}
		}
	}
	measured := len(candidates)
	baselineNs := coster.Cost(candidates[0]) // memoized: no extra timing

	// Phase 3: rematch.  One noisy pass on a busy host can crown the
	// wrong plan, and serving must never churn onto a plan that cannot
	// beat the balanced default head to head — so the winner and the
	// baseline are re-timed back to back at double the duration, and the
	// baseline keeps the slot on anything but a clear loss.
	if baseline := candidates[0]; !best.Plan.Equal(baseline) {
		rematch := search.NewMeasuredCoster(rematchTiming(opt.Timing))
		bestNs := rematch.Cost(best.Plan)
		baseNs := rematch.Cost(baseline)
		measured += 2
		baselineNs = baseNs
		if baseNs <= bestNs {
			best = search.Result{Plan: baseline, Cost: baseNs}
		} else {
			best.Cost = bestNs
		}
	}
	res := Result{Plan: best.Plan, Policy: codelet.DefaultPolicy(), NsPerRun: best.Cost, BaselineNs: baselineNs, Measured: measured}

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
		if res.Plan.Equal(candidates[0]) && incPol == codelet.DefaultPolicy() {
			// The incumbent is the balanced default: its fresh timing is
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

	// Phase 5: batch-tier sweep — the serving shape the SoA engine was
	// built for.  The winner is timed over whole batches through both
	// batch paths at each swept width, ascending; the first width where
	// the SoA tier's measured batch latency beats the per-vector path
	// becomes the registered crossover, and a clean sweep for the
	// per-vector path disables SoA selection for this size (the default
	// shape heuristic cannot know what the measurement knows).
	if !opt.NoBatchSweep {
		widths := opt.BatchWidths
		if len(widths) == 0 {
			widths = DefaultBatchWidths()
		}
		sched, err := tunedSchedule(res)
		if err != nil {
			return Result{}, fmt.Errorf("tune: %w", err)
		}
		res.SoAMinBatch = -1
		for _, w := range widths {
			if w < 1 {
				continue
			}
			aosNs := exec.TimeBatch(sched, w, false, opt.Timing)
			soaNs := exec.TimeBatch(sched, w, true, opt.Timing)
			measured += 2
			if soaNs < aosNs {
				res.SoAMinBatch = w
				break
			}
		}
		res.Measured = measured
	}

	if err := exec.UseTunedPlanWith(res.Plan, exec.TunedConfig{
		Policy: res.Policy, SoAMinBatch: res.SoAMinBatch, StageBackends: res.StageBackends,
	}); err != nil {
		return Result{}, fmt.Errorf("tune: %w", err)
	}
	store := processWisdom()
	tuned := wisdom.Tuned{Policy: res.Policy, SoAMinBatch: res.SoAMinBatch, StageBackends: res.StageBackends}
	if _, err := store.RecordFull(wisdom.Float64, res.Plan, tuned, res.NsPerRun); err != nil {
		return Result{}, fmt.Errorf("tune: %w", err)
	}
	return res, nil
}

// backendAxis widens a policy grid with the codelet-backend axis: on
// hosts with a SIMD kernel tier, every Auto-backend policy gains a
// scalar-pinned twin, so the sweep measures scalar-vs-SIMD per stage
// shape instead of assuming the vector tier wins (narrow-lane SoA
// stages and short streams can favor scalar).  Policies that already
// pin a backend pass through unchanged; without a SIMD tier every
// backend resolves scalar and the grid is returned as-is.
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

// tunedSchedule compiles the result's winning plan under its winning
// policy and re-applies the measured per-stage backend pins, so every
// later sweep times the configuration the registration will serve.
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

// dedupe removes structurally identical plans, keeping first occurrences.
func dedupe(plans []*plan.Node) []*plan.Node {
	seen := make(map[uint64]bool, len(plans))
	out := plans[:0]
	for _, p := range plans {
		if h := p.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, p)
		}
	}
	return out
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
		cfg := exec.TunedConfig{Policy: tc.Policy, SoAMinBatch: tc.SoAMinBatch, StageBackends: tc.StageBackends}
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
