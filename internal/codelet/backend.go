package codelet

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Backend selects the instruction tier a stage's kernels run on.  The
// vector tier covers every unrolled-tier stage shape: the loop-shaped
// streaming kernels — interleaved, fused interleaved and their range
// forms — whose unit-stride inner sweeps are exactly the shape a
// vector unit consumes, plus the vectorized
// strided form (rows with S >= the vector width load contiguous runs
// across the inner index, gather-free) and the vectorized contiguous
// form (an in-register head for the levels below four vectors, whole
// vector passes above).  Because WHT butterflies are exact IEEE add/sub
// and vectorizing a unit-stride sweep never reorders any element's
// operation DAG, SIMD results are bitwise-identical to scalar; the choice
// is purely a performance one, and the tuner's backend sweep measures it
// per stage shape — per stage, via exec.Schedule.SetStageBackends, when a
// mixed schedule wants a SIMD streaming pass next to a scalar strided one.
type Backend uint8

const (
	// AutoBackend defers to the process override (SetBackend / the
	// WHT_SIMD environment variable) and, absent one, runs SIMD whenever
	// the host supports it.
	AutoBackend Backend = iota
	// ScalarBackend pins the pure-Go kernels.
	ScalarBackend
	// SIMDBackend requests the vector kernels; on hosts without the
	// vector tier it degrades to scalar (never an error — the kernels
	// are bitwise-identical, so availability is the only gate).
	SIMDBackend

	numBackends
)

// String returns the wisdom-file spelling of the backend.
func (b Backend) String() string {
	switch b {
	case ScalarBackend:
		return "scalar"
	case SIMDBackend:
		return "simd"
	case AutoBackend:
		return "auto"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend maps a spelling back to a Backend.  The empty string is
// AutoBackend (the absent-field default in wisdom files); "off"/"0" and
// "on"/"1" are accepted as WHT_SIMD-style aliases for scalar and simd.
func ParseBackend(s string) (Backend, bool) {
	switch s {
	case "", "auto":
		return AutoBackend, true
	case "scalar", "off", "0":
		return ScalarBackend, true
	case "simd", "on", "1":
		return SIMDBackend, true
	}
	return AutoBackend, false
}

// SIMDAvailable reports whether the SIMD kernel tier exists on this
// host (amd64 with AVX2 and OS-enabled YMM state).
func SIMDAvailable() bool { return simdAvailable }

// processBackend is the process-wide override consulted by
// AutoBackend policies: AutoBackend unless SetBackend or the WHT_SIMD
// environment variable picked a side.
var processBackend atomic.Uint32

// SetBackend sets the process-wide backend override that AutoBackend
// policies resolve through — the programmatic form of the WHT_SIMD
// environment variable.  Passing AutoBackend restores the default
// (SIMD when available).  Safe for concurrent use; per-schedule
// choices via Policy.Backend take precedence.
func SetBackend(b Backend) {
	if b >= numBackends {
		b = AutoBackend
	}
	processBackend.Store(uint32(b))
}

// ActiveBackend returns the process-wide backend override (AutoBackend
// when none was set).
func ActiveBackend() Backend { return Backend(processBackend.Load()) }

// EffectiveSIMD resolves a policy's backend against the process
// override and host availability: an explicit policy choice wins, an
// AutoBackend policy follows the process override, and AutoBackend
// everywhere means SIMD exactly when the host tier exists.  A forced
// SIMDBackend on a host without the tier resolves to false — the
// scalar kernels compute bitwise the same results, so degrading is
// always correct.
func EffectiveSIMD(b Backend) bool {
	if b == AutoBackend {
		b = ActiveBackend()
	}
	if b == ScalarBackend {
		return false
	}
	return simdAvailable
}

// BackendResolution records how a requested backend resolved on this
// host: Requested is what was asked for (an AutoBackend request is
// first resolved through the process override), Effective is the tier
// that actually runs — always ScalarBackend or SIMDBackend.
type BackendResolution struct {
	Requested Backend
	Effective Backend
}

// Degraded reports whether an explicit SIMD request silently fell back
// to the scalar tier because the host has no vector unit.  An
// AutoBackend request resolving to scalar is not degradation — auto
// never promises the vector tier — but WHT_SIMD=simd (or a pinned
// SIMDBackend policy) on a scalar-only host is: the results are still
// bitwise-correct, yet tuned timings recorded under SIMD no longer
// describe what runs, which is why whttune and whtsearch warn on it.
func (r BackendResolution) Degraded() bool {
	return r.Requested == SIMDBackend && r.Effective != SIMDBackend
}

// String renders the resolution as "requested -> effective" (or just
// the backend name when they agree).
func (r BackendResolution) String() string {
	if r.Requested == r.Effective {
		return r.Effective.String()
	}
	return r.Requested.String() + " -> " + r.Effective.String()
}

// Resolve reports how backend b resolves on this host right now:
// against the process override (for AutoBackend) and the host's vector
// tier availability.
func Resolve(b Backend) BackendResolution {
	req := b
	if req == AutoBackend {
		req = ActiveBackend()
	}
	eff := ScalarBackend
	if EffectiveSIMD(b) {
		eff = SIMDBackend
	}
	return BackendResolution{Requested: req, Effective: eff}
}

func init() {
	// WHT_SIMD overrides the backend for the whole process without a
	// code change: "off"/"0"/"scalar" forces the pure-Go kernels,
	// "on"/"1"/"simd" requests the vector tier, "auto"/"" keeps the
	// default.  Unknown values are ignored (init cannot return an
	// error); both CLIs also expose the override as a -backend flag.
	if v, ok := os.LookupEnv("WHT_SIMD"); ok {
		if b, ok := ParseBackend(v); ok {
			SetBackend(b)
		}
	}
}
