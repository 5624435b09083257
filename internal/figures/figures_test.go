package figures

import (
	"math"
	"strings"
	"testing"
)

// The full figure chain at Quick scale must reproduce the paper's qualitative
// findings.  These tests are the executable form of EXPERIMENTS.md.

func TestCanonicalSweepQualitative(t *testing.T) {
	cfg := Quick()
	cfg.MaxSize = 16
	st := Canonicals(cfg)
	if len(st.Sizes) != 16 {
		t.Fatalf("%d sizes", len(st.Sizes))
	}
	// Ratios are >= 1 by construction at every size (best is best).
	for _, name := range []string{"iterative", "left", "right"} {
		for i, r := range st.CycleRatio[name] {
			if r < 0.999 {
				t.Errorf("%s cycle ratio %g < 1 at n=%d", name, r, st.Sizes[i])
			}
		}
	}
	// Figure 2: iterative has the lowest instruction ratio of the three
	// canonicals at every size beyond trivial.
	for i, n := range st.Sizes {
		if n < 3 {
			continue
		}
		it := st.InstrRatio["iterative"][i]
		if it > st.InstrRatio["left"][i] || it > st.InstrRatio["right"][i] {
			t.Errorf("n=%d: iterative instr ratio %g not the lowest (left %g right %g)",
				n, it, st.InstrRatio["left"][i], st.InstrRatio["right"][i])
		}
	}
	// Figure 3: beyond the L1 boundary (n=14 at 4-byte elements) the
	// left-recursive algorithm has by far the worst miss ratio.
	last := len(st.Sizes) - 1
	if st.MissRatio["left"][last] < 2*st.MissRatio["right"][last] {
		t.Errorf("left miss ratio %g should dwarf right %g at n=%d",
			st.MissRatio["left"][last], st.MissRatio["right"][last], st.Sizes[last])
	}
	// In-cache sizes have ratio 1 (compulsory misses only).
	if st.MissRatio["left"][7] != 1 || st.MissRatio["iterative"][7] != 1 {
		t.Errorf("n=8 miss ratios should be 1: left=%g iterative=%g",
			st.MissRatio["left"][7], st.MissRatio["iterative"][7])
	}
}

func TestCrossoverAppearsBeyondCacheBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("crossover sweep is expensive")
	}
	cfg := Quick()
	cfg.MaxSize = 19
	st := Canonicals(cfg)
	x := st.CrossoverSize()
	if x == 0 {
		t.Fatal("no iterative/recursive crossover found up to n=19")
	}
	// The paper finds it at the L2 boundary (n=18); with 4-byte elements
	// the virtual machine's L2 holds 2^18, so the crossover must appear
	// in the neighborhood of n in [15, 19] (TLB pressure can pull it in a
	// little earlier).
	if x < 15 || x > 19 {
		t.Errorf("crossover at n=%d, expected near the L2 boundary", x)
	}
	t.Logf("iterative/recursive crossover at n=%d", x)
}

func TestSampleStudySmallSize(t *testing.T) {
	cfg := Quick()
	st := Sample(cfg, cfg.SmallN)
	if len(st.Records) != cfg.Samples {
		t.Fatalf("%d records", len(st.Records))
	}
	if len(st.Kept) < cfg.Samples*8/10 {
		t.Fatalf("IQR filter kept only %d of %d", len(st.Kept), cfg.Samples)
	}
	// Figure 6's headline: in-cache, instructions correlate strongly with
	// cycles (the paper reports 0.96).
	if st.RhoInstrCycles < 0.85 {
		t.Errorf("rho(I,C) = %.3f at n=%d, want > 0.85", st.RhoInstrCycles, st.N)
	}
	// Histograms bin everything kept.
	if st.CyclesHist.Total() != len(st.Kept) && st.CyclesHist.Total() < len(st.Kept)*9/10 {
		t.Errorf("cycles histogram total %d vs kept %d", st.CyclesHist.Total(), len(st.Kept))
	}
	if len(st.PruneInstr) != 3 {
		t.Fatalf("%d prune curves", len(st.PruneInstr))
	}
	// The pruning threshold must be meaningful: below the sample maximum.
	maxI := 0.0
	for _, v := range st.Instr {
		maxI = math.Max(maxI, v)
	}
	if !(st.Prune5Instr <= maxI) {
		t.Errorf("prune threshold %g above max %g", st.Prune5Instr, maxI)
	}
	if !strings.Contains(st.Summary(), "rho(I,C)") {
		t.Error("summary missing correlation")
	}
}

func TestSampleStudyLargeSize(t *testing.T) {
	cfg := Quick()
	small := Sample(cfg, cfg.SmallN)
	large := Sample(cfg, cfg.LargeN)

	// The paper's central quantitative finding, in order:
	// (1) out of cache, the instruction correlation drops;
	if large.RhoInstrCycles >= small.RhoInstrCycles {
		t.Errorf("rho(I,C) should drop out of cache: small %.3f, large %.3f",
			small.RhoInstrCycles, large.RhoInstrCycles)
	}
	// (2) misses correlate positively with cycles out of cache;
	if large.RhoMissCycles <= 0.2 {
		t.Errorf("rho(M,C) = %.3f at n=%d, want positive and substantial", large.RhoMissCycles, large.N)
	}
	// (3) the combined model restores most of the correlation.
	if large.GridNormalized.Best.Rho <= large.RhoInstrCycles+0.02 {
		t.Errorf("combined model rho %.3f does not improve on I alone %.3f",
			large.GridNormalized.Best.Rho, large.RhoInstrCycles)
	}
	if large.GridNormalized.Best.Rho < 0.8 {
		t.Errorf("combined model rho %.3f, want > 0.8", large.GridNormalized.Best.Rho)
	}
	// The OLS ratio must be positive: misses genuinely cost cycles.
	if large.OLSRatio <= 0 {
		t.Errorf("OLS ratio %g, want > 0", large.OLSRatio)
	}
	t.Logf("small: %s", small.Summary())
	t.Logf("large: %s", large.Summary())
}

func TestPruneCurvesApproachLimit(t *testing.T) {
	cfg := Quick()
	st := Sample(cfg, cfg.SmallN)
	for _, c := range st.PruneInstr {
		last := c.Y[len(c.Y)-1]
		want := 1 - c.Percentile/100
		if math.Abs(last-want) > 0.03 {
			t.Errorf("p=%g curve limit %.3f, want %.3f", c.Percentile, last, want)
		}
	}
}

// Jitter ablation: the deterministic per-plan jitter is the virtual
// machine's stand-in for the unexplained variance the paper attributes to
// register spills and instruction scheduling.  Without it, the in-cache
// correlation becomes essentially perfect — which is exactly what the
// paper does NOT observe — so this test guards the design choice.
func TestJitterAblation(t *testing.T) {
	cfg := Quick()
	withJitter := Sample(cfg, cfg.SmallN)

	noJitter := Quick()
	mach := *noJitter.Machine
	mach.Cycle.JitterFrac = 0
	noJitter.Machine = &mach
	clean := Sample(noJitter, noJitter.SmallN)

	if clean.RhoInstrCycles <= withJitter.RhoInstrCycles {
		t.Errorf("removing jitter should raise rho: %.3f (with) vs %.3f (without)",
			withJitter.RhoInstrCycles, clean.RhoInstrCycles)
	}
	if clean.RhoInstrCycles < 0.995 {
		t.Errorf("without jitter the in-cache correlation should be ~1, got %.3f", clean.RhoInstrCycles)
	}
}

func TestDefaultAndQuickConfigs(t *testing.T) {
	d := Default()
	if d.SmallN != 9 || d.LargeN != 18 || d.Samples != 10000 || d.MaxSize != 20 || d.Bins != 50 {
		t.Fatalf("default config deviates from the paper: %+v", d)
	}
	q := Quick()
	if q.Samples >= d.Samples || q.LargeN < 15 {
		t.Fatalf("quick config not scaled properly: %+v", q)
	}
}
