package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// ScheduleCache is a size-keyed LRU cache of compiled schedules — the
// in-memory half of the library's FFTW-"wisdom" story.  Transform/
// Transform32 answer repeated default-size traffic from it instead of
// reconstructing a plan and recompiling on every call.  Schedules are
// immutable, so a cached schedule is returned to concurrent callers
// without copying; one entry serves both the float64 and float32 engines.
type ScheduleCache struct {
	mu      sync.Mutex
	cap     int
	entries map[int]*cacheEntry // keyed by transform log-size
	head    *cacheEntry         // most recently used
	tail    *cacheEntry         // least recently used
	stats   CacheStats
}

// CacheStats counts cache traffic since construction (or the last Purge).
// A lookup that loses the concurrent-build race still counts as a single
// miss: the caller paid for a build even though another goroutine's
// schedule won.
type CacheStats struct {
	Hits      uint64 // lookups served from the cache
	Misses    uint64 // lookups that had to build
	Evictions uint64 // entries dropped by the LRU bound
}

type cacheEntry struct {
	n          int
	sched      *Schedule
	prev, next *cacheEntry
}

// NewScheduleCache returns an empty cache bounded to cap schedules
// (cap <= 0 selects a default of 32 sizes — enough for every power of two
// a 32-bit index space admits).
func NewScheduleCache(cap int) *ScheduleCache {
	if cap <= 0 {
		cap = 32
	}
	return &ScheduleCache{cap: cap, entries: make(map[int]*cacheEntry, cap)}
}

// Get returns the cached schedule for log-size n, building one with build
// on a miss.  The build runs outside the lock; if two goroutines miss the
// same size concurrently, one of the two identical schedules wins.
func (c *ScheduleCache) Get(n int, build func() *Schedule) *Schedule {
	c.mu.Lock()
	if e, ok := c.entries[n]; ok {
		c.stats.Hits++
		c.moveToFront(e)
		s := e.sched
		c.mu.Unlock()
		return s
	}
	c.stats.Misses++
	c.mu.Unlock()

	s := build()

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[n]; ok { // lost the race: keep the first build
		c.moveToFront(e)
		return e.sched
	}
	c.insert(n, s)
	return s
}

// Warm inserts a prebuilt schedule for log-size n as the most recently
// used entry, replacing any cached schedule of that size.  It is the
// seed-from-wisdom path: a tuner (or a loaded wisdom file) plants its
// schedule so the first Get at that size is already a hit.
//
// A schedule whose Log2Size disagrees with n is rejected: accepting it
// would permanently poison every Get/ForSize/Transform at that size
// (each serving call would fail its length check against the
// wrong-sized schedule until the entry is evicted or purged).
func (c *ScheduleCache) Warm(n int, s *Schedule) error {
	if s == nil {
		return fmt.Errorf("exec: cannot warm cache with nil schedule")
	}
	if s.Log2Size() != n {
		return fmt.Errorf("exec: cannot warm size %d with schedule of size %d", n, s.Log2Size())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[n]; ok {
		e.sched = s
		c.moveToFront(e)
		return nil
	}
	c.insert(n, s)
	return nil
}

// insert adds a new entry at the front and enforces the LRU bound.
// Callers hold c.mu.
func (c *ScheduleCache) insert(n int, s *Schedule) {
	e := &cacheEntry{n: n, sched: s}
	c.entries[n] = e
	c.pushFront(e)
	for len(c.entries) > c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.entries, evict.n)
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *ScheduleCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached schedules.
func (c *ScheduleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every cached schedule and resets the counters.
func (c *ScheduleCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop()
	c.stats = CacheStats{}
}

// drop empties the cache and keeps the counters.  Callers hold c.mu.
func (c *ScheduleCache) drop() {
	c.entries = make(map[int]*cacheEntry, c.cap)
	c.head, c.tail = nil, nil
}

func (c *ScheduleCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *ScheduleCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *ScheduleCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// defaultCache backs ForSize; 32 sizes cover every transform length the
// engine can address.
var defaultCache = NewScheduleCache(32)

// defaultRow is the backend tier defaultCache's untuned schedules were
// built for: 0 before the first ForSize, then 1 (scalar) or 2 (SIMD),
// the resolution of codelet.AutoBackend that picks DefaultPlan's row.
var defaultRow atomic.Uint32

// tunedPlans maps log-size to the plan (and variant policy) a tuner
// registered as preferred.  ForSize compiles from it instead of
// DefaultPlan, including when the LRU has evicted the compiled schedule
// — a tuned size stays tuned for the life of the process (or until
// ResetTunedPlans).
type tunedEntry struct {
	plan     *plan.Node
	policy   codelet.Policy
	backends []codelet.Backend // per-stage backend pins (see SetStageBackends), nil: policy backend
}

// TunedConfig carries every per-size decision a tuner registers alongside
// its winning plan: the variant policy the plan was measured under and
// the per-stage backend pins.  The zero value is the untuned default for
// every field.
type TunedConfig struct {
	Policy codelet.Policy
	// StageBackends, when non-nil, pins each compiled stage's codelet
	// backend (length must match the compiled stage count — compilation
	// is deterministic, so a tuner's recorded vector always does).  Nil
	// leaves every stage on the policy backend.
	StageBackends []codelet.Backend
}

var (
	tunedMu    sync.RWMutex
	tunedPlans = map[int]tunedEntry{}
)

// UseTunedPlanWith registers p as the preferred plan behind ForSize for
// its size, compiled under the full tuned configuration — variant
// policy and per-stage backend pins — and seeds
// the default cache with the compiled schedule, so the next Transform
// at that length is served from the tuned plan with zero build work.
// The plan is validated and compiled before anything is published.
// Every field is re-applied whenever ForSize recompiles the tuned plan
// after an LRU eviction, so the decisions survive for the life of the
// process.  The zero TunedConfig registers p under the default policy.
func UseTunedPlanWith(p *plan.Node, cfg TunedConfig) error {
	s, err := NewScheduleWith(p, cfg.Policy)
	if err != nil {
		return err
	}
	var backends []codelet.Backend
	if len(cfg.StageBackends) > 0 {
		// Validated before anything is published: a stage-count mismatch
		// or an unknown backend rejects the registration outright rather
		// than serving a half-applied tuning.
		if err := s.SetStageBackends(cfg.StageBackends); err != nil {
			return err
		}
		backends = append([]codelet.Backend(nil), cfg.StageBackends...)
	}
	// Publish the registry entry BEFORE warming the cache.  In the other
	// order there is a window where the warmed schedule has been inserted
	// (and can immediately be evicted under LRU pressure) while the
	// registry still holds the previous plan: a concurrent ForSize
	// rebuilding in that window caches a stale schedule that then serves
	// every call at this size until the next eviction.  Registry-first
	// closes the window — a rebuild racing the Warm compiles from the new
	// entry — and cannot publish a half-validated tuning, because every
	// failure path (compile, backends) has already returned above and
	// Warm with the schedule's own Log2Size cannot fail.
	tunedMu.Lock()
	tunedPlans[s.Log2Size()] = tunedEntry{
		plan: p, policy: cfg.Policy, backends: backends,
	}
	tunedMu.Unlock()
	if err := defaultCache.Warm(s.Log2Size(), s); err != nil {
		// Unreachable (s is non-nil and keyed by its own size), but if it
		// ever fires, withdraw the registration rather than leaving the
		// registry and cache disagreeing.
		tunedMu.Lock()
		delete(tunedPlans, s.Log2Size())
		tunedMu.Unlock()
		return err
	}
	return nil
}

// TunedConfigFor returns the plan and full tuned configuration
// registered for log-size n; ok is false (nil plan, zero config) when
// the size is untuned.
func TunedConfigFor(n int) (p *plan.Node, cfg TunedConfig, ok bool) {
	tunedMu.RLock()
	defer tunedMu.RUnlock()
	e, ok := tunedPlans[n]
	cfg = TunedConfig{Policy: e.policy}
	if len(e.backends) > 0 {
		cfg.StageBackends = append([]codelet.Backend(nil), e.backends...)
	}
	return e.plan, cfg, ok
}

// ResetTunedPlans drops every registered tuned plan and purges the
// default schedule cache, restoring the untuned defaults (DefaultPlan;
// used by tests and by benchmarks that need an untuned baseline).
func ResetTunedPlans() {
	tunedMu.Lock()
	tunedPlans = map[int]tunedEntry{}
	tunedMu.Unlock()
	defaultCache.Purge()
}

// DefaultCacheStats returns the traffic counters of the process-wide
// schedule cache behind Transform/Transform32/ForSize.
func DefaultCacheStats() CacheStats {
	return defaultCache.Stats()
}

// ForSize returns the process-wide cached schedule for WHT(2^n): the
// tuned plan compiled under its tuned variant policy when one has been
// registered (UseTunedPlanWith, typically via a wisdom file), otherwise
// DefaultPlan(n, codelet.AutoBackend) under the default policy — the
// exact stage-sequence DP's pick over the checked-in stage-cost table's
// row for the backend in effect when the schedule is built.  Building
// it looks the pick up and times nothing.  Hosts and backends without a
// measured row (NEON, riscv64) and sizes above StageTableMaxLog serve
// plan.Balanced(n, plan.MaxLeafLog).  Every plan computes the exact
// transform on integer inputs; on non-integer inputs plans differ at
// the rounding level, so results may change in the last bits when the
// table is regenerated.
//
// When the backend AutoBackend resolves to has changed since the cached
// schedules were built (codelet.SetBackend, wht.SetBackend), ForSize
// drops them, keeping the traffic counters, so the default follows the
// row in effect.  A switch racing a concurrent build may leave that one
// size on the previous row's plan until it is evicted; every plan is
// correct on either backend.
func ForSize(n int) *Schedule {
	row := uint32(1)
	if codelet.EffectiveSIMD(codelet.AutoBackend) {
		row = 2
	}
	if old := defaultRow.Load(); old != row && defaultRow.CompareAndSwap(old, row) && old != 0 {
		defaultCache.mu.Lock()
		defaultCache.drop()
		defaultCache.mu.Unlock()
	}
	return defaultCache.Get(n, func() *Schedule {
		tunedMu.RLock()
		e, ok := tunedPlans[n]
		tunedMu.RUnlock()
		if ok {
			s := CompileWith(e.plan, e.policy)
			if len(e.backends) > 0 {
				// Compilation is deterministic and the vector was validated
				// against this plan+policy at registration, so re-applying
				// after an LRU eviction cannot fail.
				if err := s.SetStageBackends(e.backends); err != nil {
					panic(err)
				}
			}
			return s
		}
		return Compile(DefaultPlan(n, codelet.AutoBackend))
	})
}
