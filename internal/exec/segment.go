package exec

import (
	"fmt"

	"repro/internal/codelet"
	"repro/internal/plan"
)

// Segmented schedules.
//
// A flat schedule sweeps the whole 2^n vector once per stage.  A
// segmented schedule regroups the same butterfly DAG into an ordered
// list of stage-run segments, one per phase of the plan's two-phase
// form.  Serre & Püschel describe every split-tree algorithm as a
// sequence of butterfly arrays, each acting on a range of index bits;
// a segment is a run of such arrays acting on the bits [L, L+W) of the
// index.  Its stage list is window-local: a stage (M, R, S) with
// R*S*2^M == 2^W acts on the 2^W values that differ only in those bits,
// exactly as the flat stage (M, R<<(n-L-W), S<<L) does on the whole
// vector.
//
// The executor (segrun.go) runs each segment as gather windows of 2^W
// rows at stride 2^L, every row a contiguous run of 2^K elements.  The
// butterflies, and the add/sub order within each, are the flat
// schedule's; the stride scaling only changes which kernel variant runs
// them, and variants are bitwise-equal by the codelet contract.
// Segmented execution is therefore bitwise-equal to the flat schedule
// of the source plan on every input.

// SegmentKind discriminates segment forms.
type SegmentKind uint8

const (
	// StageRunSegment runs a window-local stage list across the index
	// bits [L, L+W); windows are independent, and the resident working
	// set is one window.
	StageRunSegment SegmentKind = iota
	// TransposeSegment is no longer emitted: gather windows reach every
	// phase in place, so segmented schedules carry no transposes.  The
	// kind is kept so code that counts transposes still compiles (and
	// counts zero).
	TransposeSegment
)

// Segment is one stage run of a segmented schedule; see the package
// comment above for its semantics.
type Segment struct {
	Kind SegmentKind

	// W is the log2 size of the phase: the segment's stages act on
	// 2^W rows of every window.
	W int

	// L is the lowest index bit the phase acts on: a window's rows lie
	// at stride 2^L.  Phases with L = 0 act on contiguous windows.
	L int

	// Stages is the window-local stage list (R*S*2^M == 2^W for every
	// stage), shaped as if the 2^W rows were contiguous elements.
	Stages []Stage
}

// Segments returns the compiled segment sequence, or nil for a flat
// (single-segment) schedule — flat schedules carry no segment list at
// all, so every pre-segmentation code path sees exactly the schedule it
// always did.  The slice is owned by the schedule and must not be
// modified.
func (s *Schedule) Segments() []Segment { return s.segments }

// IsSegmented reports whether the schedule carries a multi-segment
// (out-of-core) execution form alongside its flat stage list.
func (s *Schedule) IsSegmented() bool { return len(s.segments) > 0 }

// ResidentLog returns the log2 of the largest phase any segment runs
// (the compile-time budget), or the transform size for flat schedules.
func (s *Schedule) ResidentLog() int {
	if !s.IsSegmented() {
		return s.n
	}
	return s.residentLog
}

// SegPlan returns the two-phase plan form the schedule was compiled
// from (nil for flat schedules).
func (s *Schedule) SegPlan() *plan.SegNode { return s.segPlan }

// CompileSegmented compiles a two-phase plan form under the default
// variant policy, panicking on invalid input; see NewSegmentedSchedule.
func CompileSegmented(g *plan.SegNode) *Schedule {
	s, err := NewSegmentedSchedule(g)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSegmentedSchedule compiles a two-phase plan form (plan.TwoPhase /
// plan.ParseSeg) into a segmented schedule under the default variant
// policy.
func NewSegmentedSchedule(g *plan.SegNode) (*Schedule, error) {
	return NewSegmentedScheduleWith(g, codelet.DefaultPolicy())
}

// NewSegmentedScheduleWith compiles a two-phase plan form into a
// segmented schedule, selecting each stage's kernel variant with pol
// against its window-local shape (the executor re-selects it for the
// gathered shape it actually runs).
//
// The schedule's flat stage list is compiled from the form's flattened
// twin (SegNode.Flatten), so every in-RAM entry point — Run, the
// parallel tiers, the batch executors — executes a segmented schedule
// through its ordinary fast paths, bitwise-equal to the segmented
// streaming path.  A fully-local form compiles to a single stage-run
// segment and is returned as a plain flat schedule (Segments() == nil):
// its stage list is byte-for-byte the one NewScheduleWith builds from
// the same plan, so in-RAM behavior is unchanged by construction.
func NewSegmentedScheduleWith(g *plan.SegNode, pol codelet.Policy) (*Schedule, error) {
	if g == nil {
		return nil, fmt.Errorf("exec: nil segmented plan")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	s, err := NewScheduleWith(g.Flatten(), pol)
	if err != nil {
		return nil, err
	}
	var segs []Segment
	compileSeg(g, 0, pol, &segs)
	if len(segs) > 1 {
		s.segments = segs
		s.residentLog = g.MaxLocalLog()
		s.segPlan = g
	}
	return s, nil
}

// compileSeg emits the segments of one segment-tree node acting on the
// index bits [low, low+g.Log2Size()).  A phase node's lo phase takes
// the low bits and its hi phase the bits above them, and the lo phase
// runs first: exactly the factor order of
// WHT(2^(a+b)) = (WHT(2^a) (x) I(2^b)) · (I(2^a) (x) WHT(2^b)), and the
// order in which the flattened twin's split emits its children.
func compileSeg(g *plan.SegNode, low int, pol codelet.Policy, out *[]Segment) {
	if g.IsLocal() {
		var stages []Stage
		flatten(g.Local(), 1, 1, pol, &stages)
		*out = append(*out, Segment{Kind: StageRunSegment, W: g.Log2Size(), L: low, Stages: stages})
		return
	}
	compileSeg(g.Lo(), low, pol, out)
	compileSeg(g.Hi(), low+g.Lo().Log2Size(), pol, out)
}
