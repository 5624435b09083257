// Package plan defines the split-tree representation of the WHT algorithm
// space studied by Andrews & Johnson (IPPS 2007).
//
// A plan is a rooted tree.  A leaf of log-size m stands for an unrolled
// ("small") codelet computing WHT(2^m) on a strided vector.  An internal
// node of log-size n with children of log-sizes n1, ..., nt (n = n1+...+nt,
// t >= 2) stands for one application of the factorization
//
//	WHT(2^n) = prod_i ( I(2^{n1+..+n(i-1)}) (x) WHT(2^{ni}) (x) I(2^{n(i+1)+..+nt}) )
//
// evaluated by the triple loop of the WHT package.  The textual grammar is
// the WHT package's: "small[3]", "split[small[1],split[small[2],small[1]]]".
package plan

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// MaxLeafLog is the largest log2 size for which an unrolled codelet exists
// (the WHT package unrolls base cases up to 2^8), and so the largest leaf
// a plan may carry.
const MaxLeafLog = 8

// MaxPlanLog is the largest total log2 size a plan may have.  A 2^48
// vector is beyond any machine's address space, and the bound keeps
// Size() and every byte count derived from it (2^n elements times the
// element width times small stage factors) far from int overflow: a
// crafted plan string of size 64 or more would otherwise parse into a
// plan whose Size() is 0.
const MaxPlanLog = 48

// Node is one node of a WHT plan.  Nodes are immutable after construction;
// build them with Leaf and Split so the structural invariants hold.
type Node struct {
	n        int     // log2 of the transform size computed by this node
	children []*Node // nil for a leaf
}

// Leaf returns a plan consisting of a single unrolled codelet of size 2^m.
// It panics unless 1 <= m <= MaxLeafLog; use NewLeaf to get an error
// instead.
func Leaf(m int) *Node {
	p, err := NewLeaf(m)
	if err != nil {
		panic(err)
	}
	return p
}

// NewLeaf returns a leaf plan of size 2^m, or an error if m is outside
// [1, MaxLeafLog].
func NewLeaf(m int) (*Node, error) {
	if m < 1 || m > MaxLeafLog {
		return nil, fmt.Errorf("plan: leaf size %d outside [1, %d]", m, MaxLeafLog)
	}
	return &Node{n: m}, nil
}

// Split returns an internal node combining the given children, whose
// log-sizes add up.  It panics on fewer than two children or a nil child;
// use NewSplit to get an error instead.
func Split(children ...*Node) *Node {
	p, err := NewSplit(children...)
	if err != nil {
		panic(err)
	}
	return p
}

// NewSplit returns an internal node combining the given children, or an
// error if their log-sizes sum above MaxPlanLog.
func NewSplit(children ...*Node) (*Node, error) {
	if len(children) < 2 {
		return nil, fmt.Errorf("plan: split needs at least 2 children, got %d", len(children))
	}
	total := 0
	kids := make([]*Node, len(children))
	for i, c := range children {
		if c == nil {
			return nil, fmt.Errorf("plan: child %d is nil", i)
		}
		total += c.n
		kids[i] = c
	}
	if total > MaxPlanLog {
		return nil, fmt.Errorf("plan: split size %d above the limit %d", total, MaxPlanLog)
	}
	return &Node{n: total, children: kids}, nil
}

// Log2Size returns n such that the node computes WHT(2^n).
func (p *Node) Log2Size() int { return p.n }

// Size returns the transform length 2^n computed by the node.
func (p *Node) Size() int { return 1 << p.n }

// IsLeaf reports whether the node is an unrolled codelet.
func (p *Node) IsLeaf() bool { return p.children == nil }

// Children returns the node's children (nil for a leaf).  The returned
// slice is owned by the node and must not be modified.
func (p *Node) Children() []*Node { return p.children }

// Arity returns the number of children (0 for a leaf).
func (p *Node) Arity() int { return len(p.children) }

// String renders the plan in the WHT package grammar.
func (p *Node) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (p *Node) write(b *strings.Builder) {
	if p.IsLeaf() {
		fmt.Fprintf(b, "small[%d]", p.n)
		return
	}
	b.WriteString("split[")
	for i, c := range p.children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.write(b)
	}
	b.WriteByte(']')
}

// Equal reports whether two plans have identical structure.
func (p *Node) Equal(q *Node) bool {
	if p == nil || q == nil {
		return p == q
	}
	if p.n != q.n || len(p.children) != len(q.children) {
		return false
	}
	for i := range p.children {
		if !p.children[i].Equal(q.children[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the plan.
func (p *Node) Clone() *Node {
	if p == nil {
		return nil
	}
	if p.IsLeaf() {
		return &Node{n: p.n}
	}
	kids := make([]*Node, len(p.children))
	for i, c := range p.children {
		kids[i] = c.Clone()
	}
	return &Node{n: p.n, children: kids}
}

// Hash returns a 64-bit structural hash of the plan (FNV-1a over the
// canonical string form).  It is stable across processes and releases of
// this package, so it may be used to key deterministic per-plan effects.
func (p *Node) Hash() uint64 {
	h := fnv.New64a()
	// The grammar string is injective over plans, so hashing it is sound.
	_, _ = h.Write([]byte(p.String()))
	return h.Sum64()
}

// Validate checks the structural invariants of the whole tree, including
// the MaxPlanLog bound on its total size.  Plans built with
// Leaf/Split/Parse are always valid; Validate guards plans assembled by
// other means (e.g. hand-constructed in tests).
func (p *Node) Validate() error {
	if p == nil {
		return fmt.Errorf("plan: nil node")
	}
	if p.n > MaxPlanLog {
		return fmt.Errorf("plan: size %d above the limit %d", p.n, MaxPlanLog)
	}
	if p.IsLeaf() {
		if p.n < 1 || p.n > MaxLeafLog {
			return fmt.Errorf("plan: leaf size %d outside [1, %d]", p.n, MaxLeafLog)
		}
		return nil
	}
	if len(p.children) < 2 {
		return fmt.Errorf("plan: split of size %d has %d children", p.n, len(p.children))
	}
	total := 0
	for _, c := range p.children {
		if err := c.Validate(); err != nil {
			return err
		}
		total += c.n
	}
	if total != p.n {
		return fmt.Errorf("plan: split size %d but children sum to %d", p.n, total)
	}
	return nil
}

// CountNodes returns the total number of nodes in the tree.
func (p *Node) CountNodes() int {
	if p.IsLeaf() {
		return 1
	}
	total := 1
	for _, c := range p.children {
		total += c.CountNodes()
	}
	return total
}

// CountLeaves returns the number of leaves (codelet instances) in the tree.
func (p *Node) CountLeaves() int {
	if p.IsLeaf() {
		return 1
	}
	total := 0
	for _, c := range p.children {
		total += c.CountLeaves()
	}
	return total
}

// Depth returns the height of the tree; a single leaf has depth 1.
func (p *Node) Depth() int {
	if p.IsLeaf() {
		return 1
	}
	max := 0
	for _, c := range p.children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// LeafSizes returns the multiset of leaf log-sizes in left-to-right order.
func (p *Node) LeafSizes() []int {
	var out []int
	var walk func(*Node)
	walk = func(q *Node) {
		if q.IsLeaf() {
			out = append(out, q.n)
			return
		}
		for _, c := range q.children {
			walk(c)
		}
	}
	walk(p)
	return out
}
