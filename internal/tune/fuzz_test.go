package tune

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/wisdom"
)

// FuzzWisdomLoad checks LoadWisdom's contract on arbitrary files.  Every
// input has exactly one of three outcomes: a *wisdom.CorruptError, a
// plain error of an intact foreign file (wisdom.ErrForeign), or success
// with every entry compiling and every float64 entry served by ForSize.
// Loading is all-or-nothing, so a rejected file publishes nothing.
// Seed files live in testdata/fuzz/FuzzWisdomLoad/; they carry the
// fingerprint linux/amd64, maxprocs 2, isa avx2, and the fuzzer pins
// GOMAXPROCS to 2 so their entries reach validation on such hosts.
func FuzzWisdomLoad(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f.Add([]byte(`{"version":1,"fingerprint":{"os":"linux","arch":"amd64","maxprocs":2,"isa":"avx2"},` +
		`"entries":[{"n":10,"type":"float64","plan":"split[small[3],small[7]]","ns_per_run":1500}]}`))
	path := filepath.Join(f.TempDir(), "wisdom.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		Reset()
		defer Reset()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := LoadWisdom(path)
		var corrupt *wisdom.CorruptError
		switch {
		case err == nil:
			for _, e := range Wisdom().Entries() {
				tc := e.Tuned()
				s, cerr := exec.NewScheduleWith(plan.MustParse(e.Plan), tc.Policy)
				if cerr != nil {
					t.Fatalf("loaded entry n=%d does not compile: %v", e.N, cerr)
				}
				if len(tc.StageBackends) > 0 {
					if serr := s.SetStageBackends(tc.StageBackends); serr != nil {
						t.Fatalf("loaded entry n=%d: %v", e.N, serr)
					}
				}
				if e.Type != wisdom.Float64 {
					continue
				}
				if p, _, ok := exec.TunedConfigFor(e.N); !ok || p.String() != e.Plan {
					t.Fatalf("entry n=%d %s loaded but registered (%v, %v)", e.N, e.Plan, p, ok)
				}
				if got := exec.ForSize(e.N); got.String() != s.String() {
					t.Fatalf("entry n=%d: ForSize serves %s, want %s", e.N, got, s)
				}
			}
			return
		case errors.As(err, &corrupt), errors.Is(err, wisdom.ErrForeign):
		default:
			t.Fatalf("LoadWisdom: error neither corrupt nor foreign: %v", err)
		}
		if Wisdom().Len() != 0 {
			t.Fatalf("rejected file (%v) left %d entries in the process store", err, Wisdom().Len())
		}
		for n := 1; n <= plan.MaxPlanLog; n++ {
			if p, _, ok := exec.TunedConfigFor(n); ok {
				t.Fatalf("rejected file (%v) registered %v at n=%d", err, p, n)
			}
		}
	})
}
