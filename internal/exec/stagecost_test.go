package exec

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// The checked-in table parses, has the two measured rows, and is in the
// exact text form Format writes, so a regenerated table diffs cleanly.
func TestStageTableRoundTrip(t *testing.T) {
	tab, err := parseStageTable(stageTableText)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"amd64/avx2", "amd64/scalar"} {
		if tab[row] == nil {
			t.Fatalf("stage table has no row %s", row)
		}
	}
	var header []string
	for _, line := range strings.Split(string(stageTableText), "\n") {
		if h, ok := strings.CutPrefix(line, "# "); ok && !strings.HasPrefix(h, "row n m k0") {
			header = append(header, h)
		}
	}
	if got := tab.Format(strings.Join(header, "\n")); !bytes.Equal(got, stageTableText) {
		t.Fatal("stagecost.txt is not in Format's form; regenerate it with whttune -stagetable")
	}
}

func TestParseStageTableRejectsIncompleteRows(t *testing.T) {
	tab := StageTable{"r": new(StageCosts)}
	for n := 1; n <= StageTableMaxLog; n++ {
		for _, k := range StageKeys(n) {
			tab["r"][k.N][k.M][k.K] = 1
		}
	}
	good := tab.Format("h")
	if _, err := parseStageTable(good); err != nil {
		t.Fatalf("complete table rejected: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(string(good), "r 24 8 9 1", "r 24 8 9 0", 1),   // non-positive cost
		strings.Replace(string(good), "r 24 8 9 1 1", "r 24 8 9 1", 1), // missing stage
		strings.Replace(string(good), "r 24 8 9 1", "r 24 x 9 1", 1),   // bad number
		string(good) + "r 24 8 16 1 1 1\n",                             // extra stage
		string(good) + "r 16 8 8 1\n",                                  // repeated stage
		string(good) + "r 17 8 0 1\n",                                  // blocked-prefix stage above one block
	} {
		if _, err := parseStageTable([]byte(bad)); err == nil {
			t.Fatalf("damaged table accepted:\n%s", bad[len(bad)-80:])
		}
	}
}

// goldenPicks pins the DP's picks over the checked-in table, per row,
// for n = 1..StageTableMaxLog, in execution order.  Regenerating the
// table updates them; any other change to them is a change to the DP
// or to the executor model it prices.
var goldenPicks = map[string][]string{
	"amd64/avx2": {
		"[1]", "[2]", "[3]", "[4]", "[5]", "[6]", "[7]", "[8]",
		"[8 1]", "[8 2]", "[8 3]", "[8 4]", "[8 3 2]", "[8 4 2]", "[8 3 4]", "[7 5 4]",
		"[7 4 6]", "[7 4 4 3]", "[7 6 6]", "[7 5 4 4]", "[7 5 4 5]", "[7 5 4 6]", "[7 5 6 5]", "[7 5 4 3 5]",
	},
	"amd64/scalar": {
		"[1]", "[2]", "[3]", "[4]", "[5]", "[6]", "[4 3]", "[4 4]",
		"[4 5]", "[4 4 2]", "[4 5 2]", "[4 5 3]", "[4 5 4]", "[3 3 8]", "[4 4 6 1]", "[4 4 5 2 1]",
		"[4 4 5 4]", "[5 4 5 4]", "[5 4 5 4 1]", "[4 4 5 2 3 2]", "[5 4 5 6 1]", "[5 4 5 6 1 1]", "[5 4 2 6 3 1 1 1]", "[5 4 1 7 3 2 2]",
	},
}

func TestDefaultPicksGolden(t *testing.T) {
	picks := defaultPicks()
	for row, want := range goldenPicks {
		got := make([]string, len(picks[row]))
		for i, p := range picks[row] {
			got[i] = fmt.Sprint(p)
		}
		if !slices.Equal(got, want) {
			t.Errorf("row %s picks:\n got %q\nwant %q", row, got, want)
		}
	}
}

// DefaultPlan serves the table's pick for the row of the backend in
// effect, and Balanced above the table.
func TestDefaultPlanFollowsTable(t *testing.T) {
	for _, b := range []codelet.Backend{codelet.ScalarBackend, codelet.SIMDBackend} {
		picks, ok := defaultPicks()[StageRow(b)]
		for n := 1; n <= StageTableMaxLog+2; n++ {
			want := plan.Balanced(n, plan.MaxLeafLog)
			if ok && n <= StageTableMaxLog {
				want = plan.FromStages(picks[n-1])
			}
			if got := DefaultPlan(n, b); !got.Equal(want) {
				t.Fatalf("%s n=%d: DefaultPlan = %s, want %s", StageRow(b), n, got, want)
			}
		}
	}
}

// A registered tuned plan overrides the table at its size, through
// cache purges, until ResetTunedPlans restores the table's pick.
func TestTunedPlanOverridesTable(t *testing.T) {
	ResetTunedPlans()
	defer ResetTunedPlans()
	for _, n := range []int{9, 12, 14, 20} {
		def := DefaultPlan(n, codelet.AutoBackend)
		tuned := plan.RightRecursive(n)
		if tuned.Equal(def) {
			t.Fatalf("n=%d: the table picks the right-recursive plan", n)
		}
		if err := UseTunedPlanWith(tuned, TunedConfig{}); err != nil {
			t.Fatal(err)
		}
		defaultCache.Purge()
		if got, want := ForSize(n).String(), Compile(tuned).String(); got != want {
			t.Fatalf("n=%d: ForSize serves %s over the tuned %s", n, got, want)
		}
	}
	ResetTunedPlans()
	for _, n := range []int{9, 12, 14, 20} {
		if got, want := ForSize(n).String(), Compile(DefaultPlan(n, codelet.AutoBackend)).String(); got != want {
			t.Fatalf("n=%d: after reset ForSize serves %s, want the table's %s", n, got, want)
		}
	}
}

// A backend switch after first use moves ForSize's default to the new
// row's pick, without resetting the cache's traffic counters.
func TestForSizeFollowsBackendSwitch(t *testing.T) {
	if !codelet.SIMDAvailable() {
		t.Skip("no vector tier: both backends resolve to scalar")
	}
	const n = 12
	scalar, simd := DefaultPlan(n, codelet.ScalarBackend), DefaultPlan(n, codelet.SIMDBackend)
	if scalar.Equal(simd) {
		t.Skipf("the table rows pick the same plan at n = %d on this host", n)
	}
	ResetTunedPlans()
	defer ResetTunedPlans()
	defer codelet.SetBackend(codelet.ActiveBackend())
	codelet.SetBackend(codelet.SIMDBackend)
	if got, want := ForSize(n).String(), Compile(simd).String(); got != want {
		t.Fatalf("SIMD: ForSize(%d) = %s, want %s", n, got, want)
	}
	ForSize(n) // warm
	before := DefaultCacheStats()
	codelet.SetBackend(codelet.ScalarBackend)
	if got, want := ForSize(n).String(), Compile(scalar).String(); got != want {
		t.Fatalf("after switching to scalar: ForSize(%d) = %s, want the scalar row's %s", n, got, want)
	}
	after := DefaultCacheStats()
	if after.Hits < before.Hits || after.Misses != before.Misses+1 {
		t.Fatalf("counters %+v -> %+v: want them kept and one miss added", before, after)
	}
}

// BestStages prices the blocked prefix from the cacheBlockLog entries,
// scaled by the block count, and asks for nothing outside StageKeys.
func TestBestStagesPricesBlockedPrefix(t *testing.T) {
	for _, n := range []int{12, 16, 17, 20} {
		keys := map[StageKey]bool{}
		for _, k := range StageKeys(n) {
			keys[k] = true
		}
		if n > cacheBlockLog {
			for _, k := range StageKeys(cacheBlockLog) {
				keys[k] = true
			}
		}
		asked := map[StageKey]bool{}
		seqs := BestStages(n, 3, func(k StageKey) float64 {
			if !keys[k] {
				t.Fatalf("n=%d: BestStages asked for %+v", n, k)
			}
			asked[k] = true
			return float64(k.N * k.M)
		})
		if len(asked) != len(keys) {
			t.Fatalf("n=%d: asked for %d of %d stages", n, len(asked), len(keys))
		}
		for _, sq := range seqs {
			want, k := 0.0, 0
			for _, m := range sq.Stages {
				if n > cacheBlockLog && k+m <= cacheBlockLog {
					want += float64(int(1)<<(n-cacheBlockLog)) * float64(cacheBlockLog*m)
				} else {
					want += float64(n * m)
				}
				k += m
			}
			if sq.Cost != want {
				t.Fatalf("n=%d %v: cost %g, want %g", n, sq.Stages, sq.Cost, want)
			}
		}
	}
}

func TestTimeStagePlausible(t *testing.T) {
	opt := TimingOptions{Warmup: 1, Repeat: 1, MinDuration: 100 * time.Microsecond}
	for _, k := range []StageKey{{1, 1, 0}, {10, 8, 0}, {10, 3, 7}, {12, 2, 5}} {
		for _, ns := range []float64{
			TimeStage[float64](k, codelet.DefaultPolicy(), opt),
			TimeStage[float32](k, codelet.DefaultPolicy(), opt),
		} {
			if !(ns > 0) {
				t.Fatalf("%+v: implausible stage time %g ns", k, ns)
			}
		}
	}
}
