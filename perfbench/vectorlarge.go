package main

import (
	"time"

	"repro/internal/exec"
	"repro/internal/wht"
	facade "repro/wht"
)

// vector-large: a closed loop transforming one n = 22 float64 vector
// (32 MiB, 16× L2) in place with wht.RunParallel on the default
// Balanced(22, MaxLeafLog) schedule and two workers.
const (
	largeLog     = 22
	largeWorkers = 2
	largeSLOMs   = 250
	// largeRefill bounds the in-place transforms before the vector is
	// reloaded: 2^(22·k/2)·8·2^22 must stay far below the float64 limit.
	largeRefill = 40
)

// largeOps are the executor tiers the traced run rotates through; the
// untraced run uses only the first, the facade's default.
var largeOps = []struct {
	span string
	run  func(s *exec.Schedule, x []float64) error
}{
	{"wht.RunParallel", func(s *exec.Schedule, x []float64) error { return facade.RunParallel(s, x, largeWorkers) }},
	{"exec.par.barrier", func(s *exec.Schedule, x []float64) error {
		return exec.RunParallelMode(s, x, largeWorkers, exec.BarrierParallel)
	}},
	{"exec.par.pipelined", func(s *exec.Schedule, x []float64) error {
		return exec.RunParallelMode(s, x, largeWorkers, exec.PipelinedParallel)
	}},
	{"exec.Run", func(s *exec.Schedule, x []float64) error { return exec.Run(s, x) }},
}

func vectorLarge(cfg config, tr *tracer) (*result, error) {
	n := largeLog
	if cfg.tiny {
		n = 14
	}
	in := seeded(newStream(cfg.seed, 0), 1<<n)
	ref := append([]float64(nil), in...)
	wht.Reference(ref)
	x := make([]float64, 1<<n)
	k := 0 // transforms applied to x since it was loaded
	load := func() {
		copy(x, in)
		k = 0
	}
	// wrong checks x after its k-th transform: W·x scaled for odd k,
	// the input scaled for even k (W·W = N·I).
	wrong := func() int {
		if k%2 == 1 {
			return countWrong(x, ref, n*(k-1)/2)
		}
		return countWrong(x, in, n*k/2)
	}

	r := newResult()
	var s *exec.Schedule
	var opID uint64
	op := func(kind int) (time.Duration, bool) {
		opID++
		if k >= largeRefill {
			load()
		}
		start := time.Now()
		err := largeOps[kind].run(s, x)
		end := time.Now()
		if tr != nil {
			tr.record(0, opID, largeOps[kind].span, start, end)
		}
		k++
		if cfg.corrupt && r.attempted == 0 {
			x[len(x)/2] = -x[len(x)/2] - 1
		}
		r.attempted++
		bad := wrong()
		if bad > 0 || err != nil {
			r.failed++
			if bad > 0 {
				r.wrong++
			}
			load()
		}
		return end.Sub(start), bad == 0 && err == nil
	}

	// Set-up: a cold compile of the default schedule and one warm-up
	// transform, which pays the worker pool's and the executor's
	// first-use costs.
	var setupS []float64
	compileMs := 0.0
	for rep := 0; rep < cfg.setupReps; rep++ {
		exec.ResetTunedPlans()
		load()
		start := time.Now()
		s = exec.ForSize(n)
		compile := time.Since(start)
		compileMs = ms(compile)
		d, _ := op(0)
		setupS = append(setupS, (compile + d).Seconds())
	}

	var opMs []float64
	var ok []bool
	elems := 0.0
	for i, deadline := 0, time.Now().Add(cfg.dur); len(opMs) == 0 || time.Now().Before(deadline); i++ {
		kind := 0
		if tr != nil {
			kind = i % len(largeOps)
		}
		d, good := op(kind)
		if kind == 0 {
			opMs, ok = append(opMs, ms(d)), append(ok, good)
			elems += float64(len(x))
		}
	}
	libraryMetrics(r, setupS, opMs, ok, elems, largeSLOMs)
	if tr == nil {
		return r, nil
	}

	par := quantile(tr.ms("wht.RunParallel"), 0.5)
	seq := quantile(tr.ms("exec.Run"), 0.5)
	r.layer("exec.par.op_ms", par, "ms")
	r.layer("exec.par.barrier_ms", quantile(tr.ms("exec.par.barrier"), 0.5), "ms")
	r.layer("exec.par.pipelined_ms", quantile(tr.ms("exec.par.pipelined"), 0.5), "ms")
	r.layer("exec.seq.op_ms", seq, "ms")
	r.layer("exec.par.speedup", seq/par, "ratio")
	r.layer("exec.stages", float64(s.NumStages()), "count")
	// Every stage reads and writes the whole vector once.
	moved := float64(s.NumStages()) * float64(len(x)) * 8 * 2
	r.layer("exec.gb_s_computed", moved/(par/1e3)/1e9, "GB/s")
	r.layer("plan.compile_ms", compileMs, "ms")
	r.layer("codelet.ns_per_elem", scheduleKernelNs[float64](s, map[int]float64{}), "ns/elem")
	for _, o := range largeOps {
		r.timed(o.span, tr.ms(o.span))
	}
	return r, nil
}
