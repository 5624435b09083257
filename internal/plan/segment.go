package plan

import (
	"fmt"
	"strings"
)

// The two-phase (out-of-core) plan form.
//
// A split tree describes WHT(2^n) as nested factorizations, but its flat
// schedule still sweeps the whole 2^n vector once per stage — fine while
// the vector is RAM-resident, fatal beyond it.  The classical two-phase
// remedy applies the root factorization
//
//	WHT(2^n) = (WHT(2^a) (x) I(2^b)) · (I(2^a) (x) WHT(2^b))
//
// with an explicit blocked transpose between the factors: view x as a
// 2^a x 2^b row-major matrix, transform every row (contiguous, resident),
// transpose, transform every new row (the former columns, now contiguous),
// and transpose back.  Each phase touches only 2^b- (resp. 2^a-) element
// working sets, so the transform streams through a bounded resident
// budget; the transposes are the only all-to-all traffic.  Serre &
// Püschel's stage-sequence view says this is not a new algorithm, just a
// regrouping: the butterfly DAG is the split tree's, with permutations
// made explicit.
//
// SegNode is that regrouping as a tree: a node is either *local* — a plan
// subtree whose flat schedule runs inside the resident budget — or a
// *phase* pair (hi, lo) standing for the factorization above with
// a = hi.Log2Size(), b = lo.Log2Size(), either side recursing when it
// still exceeds the budget.  TwoPhase derives the form from an ordinary
// plan by splitting root children at a suffix boundary, which preserves
// the flattened stage sequence exactly (regrouping children of a split is
// associative under the flatten algebra), so segmented execution computes
// bitwise the same transform as the flat schedule of the source plan.
//
// The textual grammar extends the plan grammar with one production:
//
//	seg := plan | "phase" "[" seg "," seg "]"
//
// where phase[HI,LO] is the two-phase node (hi phase first, matching the
// factor order above; execution runs LO's stages first, exactly like
// split children).

// SegNode is one node of a two-phase plan: either a local plan subtree
// (IsLocal) or a hi/lo phase pair separated by blocked transposes.
// SegNodes are immutable after construction; build them with LocalSeg,
// PhaseSeg, TwoPhase, or ParseSeg.
type SegNode struct {
	n      int
	local  *Node    // non-nil for a local node
	hi, lo *SegNode // non-nil for a phase node
}

// LocalSeg wraps a plan subtree as a local (budget-resident) segment
// node.  It panics on a nil or invalid plan; use NewLocalSeg for errors.
func LocalSeg(p *Node) *SegNode {
	g, err := NewLocalSeg(p)
	if err != nil {
		panic(err)
	}
	return g
}

// NewLocalSeg wraps a plan subtree as a local segment node.
func NewLocalSeg(p *Node) (*SegNode, error) {
	if p == nil {
		return nil, fmt.Errorf("plan: nil local plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &SegNode{n: p.n, local: p}, nil
}

// PhaseSeg combines a hi and a lo segment node into a two-phase node of
// log-size hi.Log2Size()+lo.Log2Size().  It panics on nil children; use
// NewPhaseSeg for errors.
func PhaseSeg(hi, lo *SegNode) *SegNode {
	g, err := NewPhaseSeg(hi, lo)
	if err != nil {
		panic(err)
	}
	return g
}

// NewPhaseSeg combines a hi and a lo segment node into a two-phase node.
func NewPhaseSeg(hi, lo *SegNode) (*SegNode, error) {
	if hi == nil || lo == nil {
		return nil, fmt.Errorf("plan: nil phase child")
	}
	if hi.n+lo.n > MaxPlanLog {
		return nil, fmt.Errorf("plan: phase size %d above the limit %d", hi.n+lo.n, MaxPlanLog)
	}
	return &SegNode{n: hi.n + lo.n, hi: hi, lo: lo}, nil
}

// Log2Size returns n such that the node computes WHT(2^n).
func (g *SegNode) Log2Size() int { return g.n }

// Size returns the transform length 2^n computed by the node.
func (g *SegNode) Size() int { return 1 << g.n }

// IsLocal reports whether the node is a local plan subtree.
func (g *SegNode) IsLocal() bool { return g.local != nil }

// Local returns the local plan subtree (nil for a phase node).
func (g *SegNode) Local() *Node { return g.local }

// Hi returns the high phase (nil for a local node): the
// WHT(2^a) (x) I(2^b) factor, operating across rows.
func (g *SegNode) Hi() *SegNode { return g.hi }

// Lo returns the low phase (nil for a local node): the
// I(2^a) (x) WHT(2^b) factor, operating within contiguous rows.
func (g *SegNode) Lo() *SegNode { return g.lo }

// MaxLocalLog returns the largest local plan log-size anywhere in the
// tree — the working-set exponent segmented execution must keep
// resident.
func (g *SegNode) MaxLocalLog() int {
	if g.IsLocal() {
		return g.n
	}
	hi, lo := g.hi.MaxLocalLog(), g.lo.MaxLocalLog()
	if hi > lo {
		return hi
	}
	return lo
}

// Flatten returns the equivalent ordinary plan: each phase node becomes
// a binary split of its flattened children.  By the flatten algebra the
// result compiles to exactly the stage sequence segmented execution
// applies (with the transposes removed and stage shapes rebased), so it
// is the in-RAM twin of the segmented form.
func (g *SegNode) Flatten() *Node {
	if g.IsLocal() {
		return g.local
	}
	return &Node{n: g.n, children: []*Node{g.hi.Flatten(), g.lo.Flatten()}}
}

// Validate checks the structural invariants of the segment tree.
func (g *SegNode) Validate() error {
	if g == nil {
		return fmt.Errorf("plan: nil segment node")
	}
	if g.IsLocal() {
		if g.local.Log2Size() != g.n {
			return fmt.Errorf("plan: local segment size %d but plan size %d", g.n, g.local.Log2Size())
		}
		return g.local.Validate()
	}
	if g.hi == nil || g.lo == nil {
		return fmt.Errorf("plan: phase node of size %d missing a child", g.n)
	}
	if g.n > MaxPlanLog {
		return fmt.Errorf("plan: phase size %d above the limit %d", g.n, MaxPlanLog)
	}
	if g.hi.n+g.lo.n != g.n {
		return fmt.Errorf("plan: phase size %d but children sum to %d", g.n, g.hi.n+g.lo.n)
	}
	if err := g.hi.Validate(); err != nil {
		return err
	}
	return g.lo.Validate()
}

// String renders the segment tree in the extended grammar.
func (g *SegNode) String() string {
	var b strings.Builder
	g.write(&b)
	return b.String()
}

func (g *SegNode) write(b *strings.Builder) {
	if g.IsLocal() {
		g.local.write(b)
		return
	}
	b.WriteString("phase[")
	g.hi.write(b)
	b.WriteByte(',')
	g.lo.write(b)
	b.WriteByte(']')
}

// Equal reports whether two segment trees have identical structure.
func (g *SegNode) Equal(h *SegNode) bool {
	if g == nil || h == nil {
		return g == h
	}
	if g.n != h.n || g.IsLocal() != h.IsLocal() {
		return false
	}
	if g.IsLocal() {
		return g.local.Equal(h.local)
	}
	return g.hi.Equal(h.hi) && g.lo.Equal(h.lo)
}

// TwoPhase derives the two-phase form of p under a resident budget of
// 2^budgetLog elements: subtrees whose flat schedules fit the budget
// stay local, larger ones split their root children at the largest
// suffix boundary fitting the budget (the suffix becomes the lo phase),
// recursing into whichever side still exceeds it.  The regrouping
// preserves the flattened stage sequence of p exactly, so segmented
// execution of the result is bitwise-equal to the flat schedule of p.
//
// A leaf larger than the budget cannot be split (its kernel is atomic),
// so such plans are rejected; budget-aware callers should build plans
// whose leaves fit (e.g. Balanced(n, min(MaxLeafLog, budgetLog))).
func TwoPhase(p *Node, budgetLog int) (*SegNode, error) {
	if p == nil {
		return nil, fmt.Errorf("plan: nil plan")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if budgetLog < 1 {
		return nil, fmt.Errorf("plan: resident budget 2^%d is not positive", budgetLog)
	}
	return twoPhase(p, budgetLog)
}

func twoPhase(p *Node, budgetLog int) (*SegNode, error) {
	if p.n <= budgetLog {
		return &SegNode{n: p.n, local: p}, nil
	}
	if p.IsLeaf() {
		return nil, fmt.Errorf("plan: leaf of size 2^%d exceeds resident budget 2^%d and cannot be split", p.n, budgetLog)
	}
	kids := p.children
	// The lo phase takes the longest child suffix fitting the budget —
	// at least one child, so recursion always shrinks the node.
	cut, loLog := len(kids), 0
	for cut > 1 && loLog+kids[cut-1].n <= budgetLog {
		cut--
		loLog += kids[cut].n
	}
	if loLog == 0 {
		// The last child alone exceeds the budget: take it and let the
		// recursion split it further.
		cut = len(kids) - 1
		loLog = kids[cut].n
	}
	hi, err := twoPhase(regroup(kids[:cut]), budgetLog)
	if err != nil {
		return nil, err
	}
	lo, err := twoPhase(regroup(kids[cut:]), budgetLog)
	if err != nil {
		return nil, err
	}
	return &SegNode{n: p.n, hi: hi, lo: lo}, nil
}

// regroup wraps a run of sibling children as one node without changing
// the flattened stage sequence: a single child stands alone, several
// become a split.  (Flatten emits children of a split in suffix-to-
// prefix order with composed (R, S) contexts; grouping a contiguous run
// composes the same contexts, so the emitted stages are identical — the
// associativity the two-phase regrouping rests on.)
func regroup(kids []*Node) *Node {
	if len(kids) == 1 {
		return kids[0]
	}
	total := 0
	for _, c := range kids {
		total += c.n
	}
	return &Node{n: total, children: append([]*Node(nil), kids...)}
}

// ParseSeg reads a segment tree in the extended grammar:
//
//	seg := plan | "phase" "[" seg "," seg "]"
//
// Plain plans parse as local nodes, so every wisdom "plan" string is
// also a valid "segments" string.
func ParseSeg(s string) (*SegNode, error) {
	p := &parser{input: s}
	g, err := p.parseSeg()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("plan: trailing input at offset %d: %q", p.pos, p.input[p.pos:])
	}
	return g, nil
}

// MustParseSeg is ParseSeg for known-good literals; it panics on error.
func MustParseSeg(s string) *SegNode {
	g, err := ParseSeg(s)
	if err != nil {
		panic(err)
	}
	return g
}

func (p *parser) parseSeg() (*SegNode, error) {
	p.skipSpace()
	if strings.HasPrefix(p.input[p.pos:], "phase") {
		p.pos += len("phase")
		defer func() { p.depth-- }()
		if err := p.enter(); err != nil {
			return nil, err
		}
		if err := p.expect('['); err != nil {
			return nil, err
		}
		hi, err := p.parseSeg()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		lo, err := p.parseSeg()
		if err != nil {
			return nil, err
		}
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		return NewPhaseSeg(hi, lo)
	}
	node, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	return NewLocalSeg(node)
}
