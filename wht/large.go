package wht

// Out-of-core (segmented) transforms.
//
// A segmented schedule regroups a plan's butterfly DAG into the
// two-phase factorization WHT(2^(a+b)) =
// (WHT(2^a) (x) I(2^b)) · (I(2^a) (x) WHT(2^b)) — one stage run per
// phase, each acting on a range of index bits and executed over gather
// windows of strided rows — so a transform can stream through a bounded
// resident set, one read and one write pass per phase, while the bulk
// of the vector lives behind a BufStore (in RAM, or on disk via the
// striped shard store).  Segmented execution is bitwise-equal to the
// flat schedule of the same plan on every input.

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/tune"
)

// SegForm is a two-phase plan form: a plan regrouped into local phases,
// each fitting a resident budget.
// Build one with TwoPhase or parse the "phase[...]" grammar.
type SegForm = plan.SegNode

// Two-phase form construction and parsing.
var (
	// TwoPhase regroups a plan so no phase exceeds 2^budget resident
	// elements, recursing when a phase is still too large.
	TwoPhase = plan.TwoPhase
	// ParseSeg parses the "phase[hi,lo]" / plan grammar of SegForm.String.
	ParseSeg = plan.ParseSeg
	// MustParseSeg is ParseSeg panicking on error.
	MustParseSeg = plan.MustParseSeg
)

// Segment is one op of a segmented schedule: a window-local stage run
// acting on a range of index bits (see Schedule.Segments).
type Segment = exec.Segment

// BufStore abstracts the two-plane storage a segmented schedule streams
// through; the in-RAM SliceStore and the disk-backed shard store both
// implement it.
type BufStore[T Float] = exec.BufStore[T]

// SliceStore is the in-RAM BufStore over a caller's slice (flat
// schedules run on it in place).
type SliceStore[T Float] = exec.SliceStore[T]

// NewSliceStore wraps x as an in-RAM store; the transform result is
// written back into x.
func NewSliceStore[T Float](x []T) *SliceStore[T] { return exec.NewSliceStore(x) }

// ShardStore is the element-typed view of the striped, mmap-backed disk
// store (internal/shard): two full-length planes split into fixed-size
// stripe files under a directory, sealed with per-stripe checksums on
// Close and verified on Open.
type ShardStore[T Float] = shard.Typed[T]

// ShardOptions tunes shard-store creation.
type ShardOptions = shard.Options

// ShardCorruptError is the typed error a damaged or unsealed shard
// store surfaces at Open (errors.As).
type ShardCorruptError = shard.CorruptError

// CreateShardStore creates a shard store of n elements of T under dir
// (which must be empty or absent).  Close seals it; an unsealed store —
// a crash mid-run — is refused by OpenShardStore.
func CreateShardStore[T Float](dir string, n int, opts ShardOptions) (*ShardStore[T], error) {
	return shard.CreateTyped[T](dir, n, opts)
}

// OpenShardStore opens a sealed shard store, verifying manifest shape,
// stripe sizes, and per-stripe checksums before any data is served.
func OpenShardStore[T Float](dir string) (*ShardStore[T], error) {
	return shard.OpenTyped[T](dir)
}

// SegOptions tunes one RunSegmented call: the streaming worker count
// and the resident-memory cap (in elements) across all workers.
type SegOptions = exec.SegOptions

// CompileSegmented compiles a two-phase form into a segmented schedule
// under the default variant policy.  The schedule still carries the
// flat stage list of the form's flattened twin, so every in-RAM entry
// point (Run, RunParallel, the batch executors) accepts it unchanged;
// a fully-local form compiles to a plain flat schedule.
func CompileSegmented(g *SegForm) (*Schedule, error) { return exec.NewSegmentedSchedule(g) }

// CompileSegmentedWith is CompileSegmented under an explicit variant
// policy.
func CompileSegmentedWith(g *SegForm, pol VariantPolicy) (*Schedule, error) {
	return exec.NewSegmentedScheduleWith(g, pol)
}

// RunSegmented streams a segmented schedule through a store: gather
// windows flow through a bounded worker pool so store I/O overlaps
// compute, with the total resident footprint capped by
// opt.ResidentElems.  Cancellation is polled per window and
// kernel panics return as errors matching ErrKernelPanic.  A nil ctx is
// allowed.
func RunSegmented[T Float](ctx context.Context, s *Schedule, store BufStore[T], opt SegOptions) error {
	return exec.RunSegmented(ctx, s, store, opt)
}

// TimeSegmented measures the median per-run latency of a segmented
// schedule streamed over an in-RAM store — the timing primitive behind
// TuneSegmented's sweep.
var TimeSegmented = exec.TimeSegmented

// Out-of-core autotuning: TuneSegmented sweeps the resident budget and
// the phase-split point, records the measured-fastest form in the
// process wisdom store (the "segments"/"resident_budget" fields
// SaveWisdom persists), and LookupSegments serves it back — the form
// TransformLarge compiles when no explicit budget is given.
type (
	// SegTuneOptions bounds an out-of-core tuning sweep.
	SegTuneOptions = tune.SegmentedOptions
	// SegTuneResult is the outcome of one sweep.
	SegTuneResult = tune.SegResult
)

var (
	TuneSegmented  = tune.TuneSegmented
	LookupSegments = tune.LookupSegments
)

// LargeOptions tunes TransformLarge.  The zero value consults tuned
// wisdom for the store's size and falls back to a balanced two-phase
// form under a default budget.
type LargeOptions struct {
	// Form is an explicit two-phase plan form; nil selects the tuned
	// wisdom form for the size when one is recorded, else a balanced
	// default under ResidentLog.
	Form *SegForm

	// ResidentLog is the log2 resident-window budget (the largest
	// window any segment keeps resident).  <= 0 takes the wisdom
	// budget, else size-2.  With an explicit Form it must be at least
	// the form's MaxLocalLog.
	ResidentLog int

	// Workers bounds the streaming pool (<= 0 selects GOMAXPROCS).
	// The executor's resident footprint is about Workers << ResidentLog
	// elements.
	Workers int
}

// TransformLarge computes the WHT of the vector held in store, in
// place, streaming through a bounded resident set — the entry point for
// transforms larger than RAM.  The store's length must be a power of
// two >= 2; the result lands in the store's primary plane.  For repeated same-size calls,
// compile once (CompileSegmented) and reuse RunSegmented.
func TransformLarge(ctx context.Context, store BufStore[float64], opt LargeOptions) error {
	return transformLarge(ctx, store, opt)
}

// TransformLarge32 is TransformLarge for float32 stores.  The tuned
// form consulted for a nil opt.Form is the float64-recorded one: the
// segment shape is a layout decision, not an element-type one.
func TransformLarge32(ctx context.Context, store BufStore[float32], opt LargeOptions) error {
	return transformLarge(ctx, store, opt)
}

func transformLarge[T Float](ctx context.Context, store BufStore[T], opt LargeOptions) error {
	if store == nil {
		return fmt.Errorf("wht: nil store")
	}
	n, err := log2Len(store.Len())
	if err != nil {
		return err
	}
	g, budget := opt.Form, opt.ResidentLog
	if g == nil && budget <= 0 {
		if wg, wb, ok := tune.LookupSegments(n); ok {
			g, budget = wg, wb
		}
	}
	if g == nil {
		if budget <= 0 {
			budget = defaultResidentLog(n)
		}
		leaf := min(plan.MaxLeafLog, budget)
		g, err = plan.TwoPhase(plan.Balanced(n, leaf), budget)
		if err != nil {
			return fmt.Errorf("wht: %w", err)
		}
	} else {
		if g.Log2Size() != n {
			return fmt.Errorf("wht: form size 2^%d does not match store length %d", g.Log2Size(), store.Len())
		}
		if budget <= 0 {
			budget = g.MaxLocalLog()
		} else if got := g.MaxLocalLog(); got > budget {
			return fmt.Errorf("wht: form's working set 2^%d exceeds resident budget 2^%d", got, budget)
		}
	}
	s, err := exec.NewSegmentedSchedule(g)
	if err != nil {
		return fmt.Errorf("wht: %w", err)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	resident := 0
	if s.IsSegmented() {
		resident = workers << uint(budget)
	}
	return exec.RunSegmented(ctx, s, store, exec.SegOptions{Workers: workers, ResidentElems: resident})
}

// defaultResidentLog is the budget TransformLarge assumes when neither
// the caller nor wisdom names one: two log steps below the transform
// (a quarter of the vector resident per window), floored so tiny
// transforms simply run flat.
func defaultResidentLog(n int) int {
	b := n - 2
	if b < 1 {
		return n // compiles to a local (flat) form
	}
	return b
}

// log2Len mirrors the internal engine's length validation for store
// lengths.
func log2Len(n int) (int, error) {
	if n < 2 || n&(n-1) != 0 {
		return 0, fmt.Errorf("wht: length %d is not a power of two >= 2", n)
	}
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return lg, nil
}
