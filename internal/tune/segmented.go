package tune

import (
	"fmt"
	"runtime"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/wisdom"
)

// SegmentedOptions bounds an out-of-core tuning sweep (TuneSegmented).
type SegmentedOptions struct {
	// Budgets is the set of candidate resident budgets (log2 elements of
	// the largest window a segment keeps resident).  Empty selects
	// DefaultBudgets(n).  Budgets at or above n are skipped — they
	// compile to flat schedules, which the in-RAM tuner already covers.
	Budgets []int

	// Timing is the measurement effort per candidate (exec.TimeSegmented).
	Timing exec.TimingOptions

	// Workers is the streaming worker count each candidate is measured
	// with (<= 0 selects GOMAXPROCS) — the deployment's out-of-core
	// parallelism.
	Workers int
}

// DefaultBudgets is the resident-budget grid swept for WHT(2^n): every
// other log step from n-2 down to 6 (capped at three candidates), the
// range where the two-phase structure changes shape without degenerating
// into per-element windows.
func DefaultBudgets(n int) []int {
	var out []int
	for b := n - 2; b >= 6 && len(out) < 3; b -= 2 {
		out = append(out, b)
	}
	return out
}

// SegResult is the outcome of one out-of-core tuning sweep.
type SegResult struct {
	Seg         *plan.SegNode // the measured-fastest segmented form
	ResidentLog int           // the budget it was measured under
	NsPerRun    float64       // its measured median latency
	FlatNs      float64       // the unsegmented in-RAM latency of the same base plan
	Measured    int           // timings spent
}

// TuneSegmented finds a measured-fast two-phase segmented form for
// WHT(2^n) by sweeping the resident budget and, within each budget, the
// phase-split point (which log-sizes land in the high and low phase),
// and records the winner in the process wisdom store (the "segments" /
// "resident_budget" entry fields SaveWisdom persists).  Candidates are
// timed through the streaming executor over an in-RAM store, which
// prices the segment structure itself — gather copies and per-window
// dispatch — on the shape axis the sweep decides; the store backing an
// actual out-of-core run is the deployment's choice.
func TuneSegmented(n int, opt SegmentedOptions) (SegResult, error) {
	if n < 2 {
		return SegResult{}, fmt.Errorf("tune: size 2^%d too small to segment", n)
	}
	budgets := opt.Budgets
	if len(budgets) == 0 {
		budgets = DefaultBudgets(n)
	}
	if len(budgets) == 0 {
		return SegResult{}, fmt.Errorf("tune: no resident budgets to sweep for n=%d", n)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type candidate struct {
		g      *plan.SegNode
		budget int
	}
	var cands []candidate
	seen := map[string]bool{}
	add := func(g *plan.SegNode, budget int) {
		if g == nil || g.IsLocal() {
			return
		}
		if k := g.String(); !seen[k] {
			seen[k] = true
			cands = append(cands, candidate{g: g, budget: budget})
		}
	}
	basePlan := func(budget int) *plan.Node {
		leaf := plan.MaxLeafLog
		if leaf > budget {
			leaf = budget
		}
		return plan.Balanced(n, leaf)
	}
	for _, b := range budgets {
		if b < 1 || b >= n {
			continue
		}
		// The regrouped form of the base plan: the budget axis.
		if g, err := plan.TwoPhase(basePlan(b), b); err == nil {
			add(g, b)
		}
		// The phase-split axis: every explicit hi/lo cut both of whose
		// phases fit the budget (deeper recursion is the TwoPhase
		// candidate above; here the two-segment forms are swept against
		// each other).
		for hi := max(1, n-b); hi <= min(b, n-1); hi++ {
			lo := n - hi
			leafHi, leafLo := min(plan.MaxLeafLog, hi), min(plan.MaxLeafLog, lo)
			p := plan.Split(plan.Balanced(hi, leafHi), plan.Balanced(lo, leafLo))
			if g, err := plan.TwoPhase(p, b); err == nil {
				add(g, b)
			}
		}
	}
	if len(cands) == 0 {
		return SegResult{}, fmt.Errorf("tune: no segmented candidates for n=%d under budgets %v", n, budgets)
	}

	res := SegResult{}
	for i, c := range cands {
		s, err := exec.NewSegmentedSchedule(c.g)
		if err != nil {
			return SegResult{}, fmt.Errorf("tune: %w", err)
		}
		segOpt := exec.SegOptions{Workers: workers, ResidentElems: workers << uint(c.budget)}
		ns := exec.TimeSegmented(s, segOpt, opt.Timing)
		res.Measured++
		if i == 0 || ns < res.NsPerRun {
			res.Seg, res.ResidentLog, res.NsPerRun = c.g, c.budget, ns
		}
	}

	// The in-RAM reference: what segmentation costs when the vector fits.
	flat, err := exec.NewSchedule(res.Seg.Flatten())
	if err != nil {
		return SegResult{}, fmt.Errorf("tune: %w", err)
	}
	res.FlatNs = exec.TimeSchedule(flat, opt.Timing)
	res.Measured++

	if err := processWisdom().RecordSegments(wisdom.Float64, res.Seg, res.ResidentLog, res.NsPerRun); err != nil {
		return SegResult{}, fmt.Errorf("tune: %w", err)
	}
	return res, nil
}

// LookupSegments returns the out-of-core segmented form recorded in the
// process wisdom store for WHT(2^n) over float64, if any — the form
// wht.TransformLarge compiles when no explicit budget is given.
func LookupSegments(n int) (*plan.SegNode, int, bool) {
	return processWisdom().LookupSegments(n, wisdom.Float64)
}
