package main

import (
	"time"

	"repro/internal/codelet"
	"repro/internal/exec"
	"repro/wht"
)

// kernelNsPerElem is the codelet layer's kernel-only time: ns per
// element of the contiguous WHT(2^m) codelet of the resolved backend,
// run over an L1-resident buffer (zeros, so nothing grows).
func kernelNsPerElem[T wht.Float](m int) float64 {
	x := make([]T, max(1<<12, 1<<m))
	var k func(base int)
	simd := codelet.EffectiveSIMD(codelet.AutoBackend)
	switch v := any(x).(type) {
	case []float64:
		k = func(base int) { codelet.GenericContig(v, base, m) }
		if c := codelet.ForContig(m); c != nil {
			k = func(base int) { c(v, base) }
		}
		if simd {
			k = func(base int) { codelet.SIMDContig(v, base, m) }
		}
	case []float32:
		k = func(base int) { codelet.GenericContig32(v, base, m) }
		if c := codelet.ForContig32(m); c != nil {
			k = func(base int) { c(v, base) }
		}
		if simd {
			k = func(base int) { codelet.SIMDContig32(v, base, m) }
		}
	}
	pass := func() {
		for base := 0; base < len(x); base += 1 << m {
			k(base)
		}
	}
	pass()
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		passes := 0
		start := time.Now()
		for time.Since(start) < time.Millisecond {
			for i := 0; i < 8; i++ {
				pass()
			}
			passes += 8
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(passes*len(x))
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// scheduleKernelNs is the kernel-only time per element of one transform
// with schedule s: every stage applies its WHT(2^M) codelet to all N
// elements, so the stage costs sum.
func scheduleKernelNs[T wht.Float](s *exec.Schedule, memo map[int]float64) float64 {
	total := 0.0
	for _, st := range s.Stages() {
		v, ok := memo[st.M]
		if !ok {
			v = kernelNsPerElem[T](st.M)
			memo[st.M] = v
		}
		total += v
	}
	return total
}
