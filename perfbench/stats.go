package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// timing is one named distribution of millisecond samples.
type timing struct {
	name string
	ms   []float64
}

// quantile returns the q-quantile of xs by the nearest-rank rule
// (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// tailQuantile is the highest of the percentiles 50, 90, 99, 99.9 and
// 99.99 that has at least ten samples beyond it, or 0 when even the
// median has fewer.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

func (t timing) String() string {
	s := fmt.Sprintf("timing %-24s n=%-7d p50=%.4f ms", t.name, len(t.ms), quantile(t.ms, 0.5))
	if q := tailQuantile(len(t.ms)); q > 0.5 {
		s += fmt.Sprintf("  p%g=%.4f ms", q*100, quantile(t.ms, q))
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// libraryMetrics sets the end-to-end metrics of a closed-loop library
// workload.  A closed loop issues each op when the previous one ends, so
// an op's due time is its start and req_p50_ms equals op_p50_ms;
// slo_share counts ops that were correct (ok) and within sloMs.
func libraryMetrics(r *result, setupS, opMs []float64, ok []bool, elems, sloMs float64) {
	good := 0
	for i, d := range opMs {
		if ok[i] && d <= sloMs {
			good++
		}
	}
	r.set("setup_s", quantile(setupS, 0.5), "s")
	r.set("melem_s", elems/(sum(opMs)/1e3)/1e6, "Melem/s")
	r.set("op_p50_ms", quantile(opMs, 0.5), "ms")
	r.set("req_p50_ms", quantile(opMs, 0.5), "ms")
	r.set("slo_share", float64(good)/float64(len(opMs)), "ratio")
	r.timed("op", opMs)
}
