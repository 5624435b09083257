package main

import (
	"math/rand/v2"
	"time"

	"repro/internal/exec"
	"repro/internal/wht"
	facade "repro/wht"
)

// call-small: a closed loop of one caller making sequential facade calls
// (wht.Transform / wht.Transform32) over a mix of small sizes on
// pre-filled buffers whose working set fits in L2.
const (
	smallMinLog = 6
	smallMaxLog = 14
	// smallCopies is how often each (size, type) pair occurs in the mix:
	// 2 × (2^6 + … + 2^14) elements × (8 + 4) bytes ≈ 767 KiB in all.
	smallCopies = 2
	// smallRounds is how often an op transforms every buffer.  It is odd,
	// so an op leaves 2^(n·(R-1)/2)·W·x, and small enough that float32 at
	// n = 14 stays exact (|W·x| ≤ 2^17, scaled by 2^(14·6)).
	smallRounds = 13
	smallSLOMs  = 50 // latency limit of one op for slo_share
)

type smallCall struct {
	n   int
	f32 bool
	in  []float64 // the seeded input, reloaded before every op
	ref []float64 // W·in by wht.Reference
	x64 []float64
	x32 []float32
}

func (c *smallCall) load() {
	if c.f32 {
		for i, v := range c.in {
			c.x32[i] = float32(v)
		}
	} else {
		copy(c.x64, c.in)
	}
}

func (c *smallCall) corrupt() {
	if c.f32 {
		c.x32[0] = -c.x32[0] - 1
	} else {
		c.x64[0] = -c.x64[0] - 1
	}
}

func (c *smallCall) wrong() int {
	shift := c.n * (smallRounds - 1) / 2
	if c.f32 {
		return countWrong(c.x32, c.ref, shift)
	}
	return countWrong(c.x64, c.ref, shift)
}

// call makes one facade call.  Traced, the call is split into its two
// layers — the schedule-cache lookup and the sequential executor — each
// in its own span under a "wht.call" span.
func (c *smallCall) call(tr *tracer, op uint64) error {
	if tr == nil {
		if c.f32 {
			return facade.Transform32(c.x32)
		}
		return facade.Transform(c.x64)
	}
	id := tr.id()
	t0 := time.Now()
	s := exec.ForSize(c.n)
	t1 := time.Now()
	var err error
	run := "exec.Run.f64"
	if c.f32 {
		run = "exec.Run.f32"
		err = exec.Run(s, c.x32)
	} else {
		err = exec.Run(s, c.x64)
	}
	t2 := time.Now()
	tr.record(id, op, "exec.ForSize", t0, t1)
	tr.record(id, op, run, t1, t2)
	tr.add(id, 0, op, "wht.call", t0, t2)
	return err
}

func callSmall(cfg config, tr *tracer) (*result, error) {
	maxLog, copies := smallMaxLog, smallCopies
	if cfg.tiny {
		maxLog, copies = 9, 1
	}
	var calls []*smallCall
	for n := smallMinLog; n <= maxLog; n++ {
		for k := 0; k < 2*copies; k++ {
			calls = append(calls, &smallCall{n: n, f32: k%2 == 1})
		}
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 1))
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	elemsPerOp := 0.0
	for i, c := range calls {
		c.in = seeded(newStream(cfg.seed, uint64(i)), 1<<c.n)
		c.ref = append([]float64(nil), c.in...)
		wht.Reference(c.ref)
		if c.f32 {
			c.x32 = make([]float32, 1<<c.n)
		} else {
			c.x64 = make([]float64, 1<<c.n)
		}
		elemsPerOp += float64(smallRounds * (int(1) << c.n))
	}

	r := newResult()
	var opID uint64
	// op runs one block: smallRounds passes over the mix, then checks
	// every buffer.  It returns the block's time and whether it was good.
	op := func() (time.Duration, bool) {
		opID++
		for _, c := range calls {
			c.load()
		}
		failed := false
		start := time.Now()
		for round := 0; round < smallRounds; round++ {
			for _, c := range calls {
				if err := c.call(tr, opID); err != nil {
					failed = true
				}
			}
		}
		d := time.Since(start)
		if cfg.corrupt && r.attempted == 0 {
			calls[0].corrupt()
		}
		r.attempted++
		for _, c := range calls {
			if c.wrong() > 0 {
				r.wrong++
				failed = true
				break
			}
		}
		if failed {
			r.failed++
		}
		return d, !failed
	}

	// Set-up: cold schedule compiles for every size, then one warm-up
	// op, which pays the executors' first-use costs.
	var setupS []float64
	compileMs := 0.0
	for rep := 0; rep < cfg.setupReps; rep++ {
		exec.ResetTunedPlans()
		start := time.Now()
		for n := smallMinLog; n <= maxLog; n++ {
			exec.ForSize(n)
		}
		compile := time.Since(start)
		compileMs = ms(compile)
		d, _ := op()
		setupS = append(setupS, (compile + d).Seconds())
	}

	var opMs []float64
	var ok []bool
	elems := 0.0
	for deadline := time.Now().Add(cfg.dur); len(opMs) == 0 || time.Now().Before(deadline); {
		d, good := op()
		opMs, ok = append(opMs, ms(d)), append(ok, good)
		elems += elemsPerOp
	}
	libraryMetrics(r, setupS, opMs, ok, elems, smallSLOMs)
	if tr == nil {
		return r, nil
	}

	// Per-layer metrics from the traced ops.
	callMs := tr.ms("wht.call")
	perElem := func(name string, f32 bool) float64 {
		e := 0.0
		for _, c := range calls {
			if f32 == c.f32 || name == "wht.call" {
				e += float64(smallRounds * (int(1) << c.n))
			}
		}
		return sum(tr.ms(name)) * 1e6 / (e * float64(len(opMs)+cfg.setupReps))
	}
	st := exec.DefaultCacheStats() // since the last set-up purged the cache
	r.layer("wht.call_ns_per_elem", perElem("wht.call", false), "ns/elem")
	r.layer("exec.cache.get_ns", quantile(tr.ms("exec.ForSize"), 0.5)*1e6, "ns")
	r.layer("exec.cache.hits", float64(st.Hits), "count")
	r.layer("exec.cache.misses", float64(st.Misses), "count")
	r.layer("exec.cache.evictions", float64(st.Evictions), "count")
	r.layer("plan.compile_ms", compileMs, "ms")
	r.layer("exec.seq.ns_per_elem_f64", perElem("exec.Run.f64", false), "ns/elem")
	r.layer("exec.seq.ns_per_elem_f32", perElem("exec.Run.f32", true), "ns/elem")
	memo64, memo32 := map[int]float64{}, map[int]float64{}
	kern, total := 0.0, 0.0
	for _, c := range calls {
		s := exec.ForSize(c.n)
		e := float64(int(1) << c.n)
		if c.f32 {
			kern += e * scheduleKernelNs[float32](s, memo32)
		} else {
			kern += e * scheduleKernelNs[float64](s, memo64)
		}
		total += e
	}
	r.layer("codelet.ns_per_elem", kern/total, "ns/elem")
	r.timed("wht.call", callMs)
	return r, nil
}
