package exec

import (
	"bytes"
	_ "embed"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/codelet"
	"repro/internal/isa"
	"repro/internal/plan"
)

// The default plan is the stage sequence an exact DP (plan.BestStages)
// prices cheapest over measured stage costs.  A stage's cost depends on
// its size m, its bit offset k (its stride is 2^k, which also fixes its
// kernel variant), the transform size n and the backend.  The flat
// executor runs a schedule above one cache block as its blocked prefix
// — the stages with k + m <= cacheBlockLog, block after block — and
// then the wide stages over the whole vector, so a prefix stage costs
// 2^(n-cacheBlockLog) times what it costs at n = cacheBlockLog, and
// only wide stages need timing at n itself.

// StageKey names one timed stage: WHT(2^M) kernels at bit offset K of a
// 2^N vector.
type StageKey struct{ N, M, K int }

// StageKeys returns the stages a cost table times at log-size n: every
// (m, k) pair up to n = cacheBlockLog, only the wide ones
// (k + m > cacheBlockLog) above, since BestStages prices blocked-prefix
// stages from their cacheBlockLog entries.  There are at most
// plan.MaxLeafLog * n of them.
func StageKeys(n int) []StageKey {
	var out []StageKey
	for m := 1; m <= min(plan.MaxLeafLog, n); m++ {
		for k := 0; k+m <= n; k++ {
			if n <= cacheBlockLog || k+m > cacheBlockLog {
				out = append(out, StageKey{n, m, k})
			}
		}
	}
	return out
}

// BestStages runs the exact stage-sequence DP for WHT(2^n) under the
// flat executor's cost model: cost prices a StageKey, which BestStages
// asks for only among StageKeys(n) and, above one cache block,
// StageKeys(cacheBlockLog).  It returns at most top sequences, cheapest
// first (see plan.BestStages).
func BestStages(n, top int, cost func(StageKey) float64) []plan.StageSeq {
	return plan.BestStages(n, top, func(m, k int) float64 {
		if n > cacheBlockLog && k+m <= cacheBlockLog {
			return float64(int(1)<<(n-cacheBlockLog)) * cost(StageKey{cacheBlockLog, m, k})
		}
		return cost(StageKey{n, m, k})
	})
}

// TimeStage measures one stage alone, in nanoseconds per run: the
// kernels of WHT(2^m) at bit offset k of a 2^n vector of element type
// T, compiled under pol (its variant and backend) and replayed in place
// through the flat executor with TimeSchedule's scratch discipline.
func TimeStage[T Float](key StageKey, pol codelet.Policy, opt TimingOptions) float64 {
	n, m, k := key.N, key.M, key.K
	if m < 1 || m > plan.MaxLeafLog || k < 0 || k+m > n {
		panic(fmt.Sprintf("exec: no stage of size %d at offset %d in 2^%d", m, k, n))
	}
	s := &Schedule{
		n: n, size: 1 << n, policy: pol,
		stages: []Stage{newStage(m, 1<<(n-m-k), 1<<k, pol)},
	}
	x := make([]T, s.size)
	kt := newKernelTable[T](s)
	opt = opt.withDefaults()
	return timeChunked(opt, maxTimedRunsOf[T](m), func(c int) {
		for i := 0; i < c; i++ {
			runStages(s, &kt, x, 0, 1)
		}
	}, func() { seedScratch(x) })
}

// StageTableMaxLog is the largest log-size the stage-cost table covers.
const StageTableMaxLog = 24

// StageCosts holds one row's stage costs, in nanoseconds, indexed
// [N][M][K] by StageKey; zero marks a stage the table does not time.
type StageCosts [StageTableMaxLog + 1][plan.MaxLeafLog + 1][StageTableMaxLog]float64

// cost is the cost of stage k, for BestStages.
func (c *StageCosts) cost(k StageKey) float64 { return c[k.N][k.M][k.K] }

// StageTable holds one StageCosts row per measured backend, keyed by
// StageRow.
type StageTable map[string]*StageCosts

// StageRow names the table row for kernels on backend b on this host:
// GOARCH, then the vector ISA b resolves to or "scalar", e.g.
// "amd64/avx2".
func StageRow(b codelet.Backend) string {
	tier := "scalar"
	if codelet.EffectiveSIMD(b) {
		tier = isa.Features()
	}
	return runtime.GOARCH + "/" + tier
}

// Format renders the table in the text form parseStageTable reads: the
// header as comment lines, then one line per (row, n, m) holding the
// costs at consecutive offsets from the first timed one.
func (t StageTable) Format(header string) []byte {
	var b bytes.Buffer
	for _, line := range strings.Split(strings.TrimRight(header, "\n"), "\n") {
		fmt.Fprintf(&b, "# %s\n", line)
	}
	b.WriteString("# row n m k0 cost(k0) cost(k0+1) ...\n")
	rows := make([]string, 0, len(t))
	for r := range t {
		rows = append(rows, r)
	}
	sort.Strings(rows)
	for _, r := range rows {
		for n := 1; n <= StageTableMaxLog; n++ {
			keys := StageKeys(n)
			for i := 0; i < len(keys); {
				j := i
				fmt.Fprintf(&b, "%s %d %d %d", r, n, keys[i].M, keys[i].K)
				for ; j < len(keys) && keys[j].M == keys[i].M; j++ {
					fmt.Fprintf(&b, " %.4g", t[r].cost(keys[j]))
				}
				b.WriteByte('\n')
				i = j
			}
		}
	}
	return b.Bytes()
}

// parseStageTable reads a table written by Format and checks that every
// row holds a positive cost for exactly the stages StageKeys(n) lists,
// n = 1 .. StageTableMaxLog.
func parseStageTable(data []byte) (StageTable, error) {
	t := StageTable{}
	sp := []byte(" ")
	for line := 1; len(data) > 0; line++ {
		var rest []byte
		rest, data, _ = bytes.Cut(data, []byte("\n"))
		if len(rest) == 0 || rest[0] == '#' {
			continue
		}
		// Fields are single-space separated: row n m k0 cost...
		var f [4][]byte
		for i := range f {
			f[i], rest, _ = bytes.Cut(rest, sp)
		}
		var nmk [3]int
		for i := range nmk {
			v, err := strconv.Atoi(string(f[1+i]))
			if err != nil {
				return nil, fmt.Errorf("exec: stage table line %d: %w", line, err)
			}
			nmk[i] = v
		}
		if len(rest) == 0 {
			return nil, fmt.Errorf("exec: stage table line %d: no costs", line)
		}
		row := t[string(f[0])]
		if row == nil {
			row = new(StageCosts)
			t[string(f[0])] = row
		}
		for i := 0; len(rest) > 0; i++ {
			var s []byte
			s, rest, _ = bytes.Cut(rest, sp)
			n, m, k := nmk[0], nmk[1], nmk[2]+i
			if !tableStage(n, m, k) {
				return nil, fmt.Errorf("exec: stage table line %d: no stage of size %d at offset %d in 2^%d", line, m, k, n)
			}
			c, err := strconv.ParseFloat(string(s), 64)
			if err != nil || !(c > 0) || row[n][m][k] != 0 {
				return nil, fmt.Errorf("exec: stage table line %d: bad or repeated cost %q", line, s)
			}
			row[n][m][k] = c
		}
	}
	for r, costs := range t {
		for n := range costs {
			for m := range costs[n] {
				for k, c := range costs[n][m] {
					if c == 0 && tableStage(n, m, k) {
						return nil, fmt.Errorf("exec: stage table row %s has no cost for %+v", r, StageKey{n, m, k})
					}
				}
			}
		}
	}
	return t, nil
}

// tableStage reports whether the table times the stage of size m at
// offset k of 2^n: whether StageKeys(n) lists it, for n within the
// table.
func tableStage(n, m, k int) bool {
	return n >= 1 && n <= StageTableMaxLog && m >= 1 && m <= plan.MaxLeafLog && k >= 0 && k+m <= n &&
		(n <= cacheBlockLog || k+m > cacheBlockLog)
}

// picks returns the DP's cheapest stage sequence for every n = 1 ..
// StageTableMaxLog, indexed by n-1.
func (c *StageCosts) picks() [][]int {
	out := make([][]int, StageTableMaxLog)
	for n := 1; n <= StageTableMaxLog; n++ {
		out[n-1] = BestStages(n, 1, c.cost)[0].Stages
	}
	return out
}

// stageTableText is the checked-in stage-cost table, regenerated on a
// quiet host by whttune -stagetable.
//
//go:embed stagecost.txt
var stageTableText []byte

// defaultPicks holds the checked-in table's picks per row, computed on
// first use.  The table is validated by the package tests, so a parse
// failure here is a build defect.
var defaultPicks = sync.OnceValue(func() map[string][][]int {
	t, err := parseStageTable(stageTableText)
	if err != nil {
		panic(err)
	}
	picks := make(map[string][][]int, len(t))
	for r, c := range t {
		picks[r] = c.picks()
	}
	return picks
})

// DefaultPlan returns the plan ForSize serves at log-size n when no
// tuned plan is registered, for kernels on backend b (AutoBackend
// resolves through the process override and the host): the DP pick
// over the checked-in stage-cost table's row for b.  Without a
// measured row for this host and backend (NEON, riscv64, any scalar
// tier but amd64's), or above StageTableMaxLog, it is
// plan.Balanced(n, plan.MaxLeafLog).
func DefaultPlan(n int, b codelet.Backend) *plan.Node {
	if picks := defaultPicks()[StageRow(b)]; n >= 1 && n <= len(picks) {
		return plan.FromStages(picks[n-1])
	}
	return plan.Balanced(n, plan.MaxLeafLog)
}
