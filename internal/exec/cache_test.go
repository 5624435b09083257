package exec

import (
	"sync"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

func TestScheduleCacheLRU(t *testing.T) {
	builds := 0
	build := func(n int) func() *Schedule {
		return func() *Schedule {
			builds++
			return Compile(plan.Balanced(n, plan.MaxLeafLog))
		}
	}
	c := NewScheduleCache(2)
	s4 := c.Get(4, build(4))
	if got := c.Get(4, build(4)); got != s4 {
		t.Fatal("second Get rebuilt the schedule")
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	c.Get(5, build(5))
	c.Get(4, build(4)) // touch 4 so 5 is now least recently used
	c.Get(6, build(6)) // evicts 5
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if builds != 3 {
		t.Fatalf("builds = %d, want 3", builds)
	}
	c.Get(5, build(5)) // miss again: 5 was evicted
	if builds != 4 {
		t.Fatalf("builds = %d, want 4 after eviction", builds)
	}
	c.Get(4, build(4)) // 4 was the LRU entry when 5 came back
	if builds != 5 {
		t.Fatalf("builds = %d, want 5", builds)
	}

	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d", c.Len())
	}
}

func TestScheduleCacheConcurrent(t *testing.T) {
	c := NewScheduleCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				n := 1 + (g+i)%10
				s := c.Get(n, func() *Schedule {
					return Compile(plan.Balanced(n, plan.MaxLeafLog))
				})
				if s.Log2Size() != n {
					t.Errorf("got schedule for %d, want %d", s.Log2Size(), n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache grew past its capacity: %d", c.Len())
	}
}

func TestForSizeCachesDefaultPlan(t *testing.T) {
	ResetTunedPlans()
	a := ForSize(10)
	b := ForSize(10)
	if a != b {
		t.Fatal("ForSize rebuilt the default schedule")
	}
	want := Compile(DefaultPlan(10, codelet.AutoBackend))
	if a.String() != want.String() || a.Size() != want.Size() {
		t.Fatalf("ForSize serves %s, want the default %s", a, want)
	}
}

func TestScheduleCacheStats(t *testing.T) {
	c := NewScheduleCache(2)
	build := func(n int) func() *Schedule {
		return func() *Schedule { return Compile(plan.Balanced(n, plan.MaxLeafLog)) }
	}
	c.Get(4, build(4)) // miss
	c.Get(4, build(4)) // hit
	c.Get(5, build(5)) // miss
	c.Get(6, build(6)) // miss, evicts 4 (LRU)
	c.Get(4, build(4)) // miss again, evicts 5
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want {Hits:1 Misses:4 Evictions:2}", st)
	}
	c.Purge()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("stats after Purge = %+v, want zero", st)
	}
}

// The concurrent-miss race path: two goroutines miss the same size, both
// build, one build wins.  Both lookups count as misses, exactly one entry
// exists, and later lookups hit it.
func TestScheduleCacheStatsConcurrentMiss(t *testing.T) {
	c := NewScheduleCache(4)
	inBuild := make(chan struct{}, 2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*Schedule, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Get(7, func() *Schedule {
				inBuild <- struct{}{}
				<-release // hold both goroutines inside build simultaneously
				return Compile(plan.Balanced(7, plan.MaxLeafLog))
			})
		}(i)
	}
	<-inBuild
	<-inBuild
	close(release)
	wg.Wait()
	if results[0] != results[1] {
		t.Fatal("racing builders got different schedules")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want {Hits:0 Misses:2}", st)
	}
	c.Get(7, func() *Schedule { t.Fatal("unexpected rebuild"); return nil })
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("hits after cached lookup = %d, want 1", st.Hits)
	}
}

func TestScheduleCacheWarm(t *testing.T) {
	c := NewScheduleCache(2)
	tuned := Compile(plan.MustParse("split[small[4],small[5]]"))
	c.Warm(9, tuned)
	got := c.Get(9, func() *Schedule { t.Fatal("Warm entry missed"); return nil })
	if got != tuned {
		t.Fatal("Get did not serve the warmed schedule")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want a pure hit", st)
	}
	// Warming an existing size replaces the schedule in place.
	tuned2 := Compile(plan.Balanced(9, 6))
	c.Warm(9, tuned2)
	if got := c.Get(9, func() *Schedule { return nil }); got != tuned2 {
		t.Fatal("re-Warm did not replace the schedule")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestScheduleCacheWarmRejectsMismatch is the regression test for the
// cache-poisoning bug: a Warm whose schedule size disagrees with the
// key used to permanently break ForSize/Transform at that size (every
// Get served a schedule that fails its length check).  Mismatched and
// nil warms must be rejected and leave the cache serving correctly.
func TestScheduleCacheWarmRejectsMismatch(t *testing.T) {
	c := NewScheduleCache(4)
	nine := Compile(plan.MustParse("split[small[4],small[5]]")) // 2^9
	if err := c.Warm(10, nine); err == nil {
		t.Fatal("size-10 warm with a 2^9 schedule accepted")
	}
	if err := c.Warm(9, nil); err == nil {
		t.Fatal("nil warm accepted")
	}
	if c.Len() != 0 {
		t.Fatalf("rejected warms left %d entries behind", c.Len())
	}
	// The poisoned-size lookup still builds (and serves) the right size.
	got := c.Get(10, func() *Schedule { return Compile(plan.Balanced(10, plan.MaxLeafLog)) })
	if got.Log2Size() != 10 {
		t.Fatalf("Get(10) served a 2^%d schedule", got.Log2Size())
	}
	if err := RunBatch(nil, got, [][]float64{make([]float64, 1<<10)}, 1); err != nil {
		t.Fatalf("serving path broken after rejected warm: %v", err)
	}
	// A matching warm still works.
	if err := c.Warm(9, nine); err != nil {
		t.Fatalf("valid warm rejected: %v", err)
	}
}

func TestForSizePrefersTunedPlan(t *testing.T) {
	ResetTunedPlans()
	defer ResetTunedPlans()
	tuned := plan.MustParse("split[small[4],small[6]]")
	if err := UseTunedPlanWith(tuned, TunedConfig{}); err != nil {
		t.Fatal(err)
	}
	if p, _, ok := TunedConfigFor(10); !ok || !p.Equal(tuned) {
		t.Fatalf("TunedConfigFor(10) plan = %v, %v", p, ok)
	}
	got := ForSize(10)
	want := Compile(tuned)
	if got.String() != want.String() {
		t.Fatalf("ForSize serves %s, want tuned %s", got, want)
	}
	// The registration outlives cache eviction: after a purge, ForSize
	// still rebuilds from the tuned plan, not the table's default.
	defaultCache.Purge()
	if got := ForSize(10); got.String() != want.String() {
		t.Fatalf("after eviction ForSize serves %s, want tuned %s", got, want)
	}
	ResetTunedPlans()
	def := Compile(DefaultPlan(10, codelet.AutoBackend))
	if got := ForSize(10); got.String() != def.String() {
		t.Fatalf("after reset ForSize serves %s, want the default %s", got, def)
	}
}

func TestUseTunedPlanRejectsInvalid(t *testing.T) {
	if err := UseTunedPlanWith(nil, TunedConfig{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	if err := UseTunedPlanWith(new(plan.Node), TunedConfig{}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

// TestUseTunedPlanWithStageBackends pins the per-stage backend half of
// the registration: the pins land on the warmed schedule, survive a
// post-eviction recompile, round-trip through TunedConfigFor, and a
// malformed vector rejects the registration without publishing anything.
func TestUseTunedPlanWithStageBackends(t *testing.T) {
	ResetTunedPlans()
	defer ResetTunedPlans()
	p := plan.MustParse("split[small[6],small[8]]")
	pins := []codelet.Backend{codelet.ScalarBackend, codelet.SIMDBackend}
	if err := UseTunedPlanWith(p, TunedConfig{StageBackends: pins}); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		got := ForSize(14).StageBackends()
		if len(got) != len(pins) {
			t.Fatalf("%s: stage backends %v, want %v", when, got, pins)
		}
		for i := range pins {
			if got[i] != pins[i] {
				t.Fatalf("%s: stage backends %v, want %v", when, got, pins)
			}
		}
	}
	check("warmed")
	defaultCache.Purge()
	check("recompiled")
	if _, cfg, ok := TunedConfigFor(14); !ok || len(cfg.StageBackends) != 2 ||
		cfg.StageBackends[0] != codelet.ScalarBackend || cfg.StageBackends[1] != codelet.SIMDBackend {
		t.Fatalf("TunedConfigFor = %+v, %v", cfg, ok)
	}

	// Wrong length and out-of-range values must reject before publication.
	if err := UseTunedPlanWith(p, TunedConfig{StageBackends: pins[:1]}); err == nil {
		t.Fatal("stage-count mismatch accepted")
	}
	if err := UseTunedPlanWith(p, TunedConfig{
		StageBackends: []codelet.Backend{codelet.Backend(99), codelet.ScalarBackend},
	}); err == nil {
		t.Fatal("out-of-range backend accepted")
	}
	check("after rejected registrations")
}
