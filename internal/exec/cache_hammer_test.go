package exec

import (
	"sync"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// The serve-path concurrency hammer: the daemon's access pattern is
// many goroutines calling ForSize per request while wisdom loading
// (UseTunedPlanWith), cache warming, stats scraping, and the occasional
// purge run concurrently.  Under -race this pins that the cache and the
// tuned-plan registry stay coherent — every schedule served is the
// right size and, once a tuned plan is registered and no purge follows,
// ForSize converges to the tuned plan, not a stale rebuild.

func TestScheduleCacheHammerServePattern(t *testing.T) {
	defer ResetTunedPlans()
	ResetTunedPlans()

	sizes := []int{8, 9, 10, 11, 12}
	const perWorker = 200
	var wg sync.WaitGroup

	// Request servers: hot ForSize traffic on every size.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := sizes[(seed+i)%len(sizes)]
				s := ForSize(n)
				if s.Log2Size() != n {
					t.Errorf("ForSize(%d) returned schedule of size %d", n, s.Log2Size())
					return
				}
			}
		}(w)
	}

	// Tuners: re-register tuned plans for the same sizes while requests
	// are in flight (the wisdom-load-at-boot / retune-at-runtime shape).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker/4; i++ {
				n := sizes[(seed+i)%len(sizes)]
				p := plan.Iterative(n)
				if err := UseTunedPlanWith(p, TunedConfig{Policy: codelet.Policy{ILFuse: true}}); err != nil {
					t.Errorf("UseTunedPlanWith(%d): %v", n, err)
					return
				}
			}
		}(w)
	}

	// Readers of the tuned registry and the stats counters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWorker; i++ {
			for _, n := range sizes {
				TunedConfigFor(n)
			}
			DefaultCacheStats()
		}
	}()

	wg.Wait()

	// Quiesced: every tuned size must now serve its tuned plan (the
	// registry-before-warm ordering in UseTunedPlanWith is what makes
	// this hold even when an LRU eviction races the registration).
	for _, n := range sizes {
		if _, _, ok := TunedConfigFor(n); !ok {
			t.Fatalf("size %d lost its tuned plan", n)
		}
		s := ForSize(n)
		if !s.Policy().ILFuse {
			t.Fatalf("ForSize(%d) serves a stale schedule: policy %+v", n, s.Policy())
		}
	}
}

// Purge racing Get/Warm on a private cache: entries and counters must
// stay internally consistent and every lookup must still return a
// correctly sized schedule.
func TestScheduleCachePurgeRace(t *testing.T) {
	c := NewScheduleCache(3) // tighter than the size set: constant eviction
	sizes := []int{6, 7, 8, 9, 10}
	build := func(n int) func() *Schedule {
		return func() *Schedule { return Compile(plan.Balanced(n, plan.MaxLeafLog)) }
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				n := sizes[(seed+i)%len(sizes)]
				switch i % 7 {
				case 5:
					if err := c.Warm(n, build(n)()); err != nil {
						t.Errorf("Warm(%d): %v", n, err)
						return
					}
				case 6:
					if seed == 0 {
						c.Purge()
					}
					c.Stats()
					c.Len()
				default:
					if s := c.Get(n, build(n)); s.Log2Size() != n {
						t.Errorf("Get(%d) returned size %d", n, s.Log2Size())
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 3 {
		t.Fatalf("cache exceeded its bound: %d entries", c.Len())
	}
}
