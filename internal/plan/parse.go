package plan

import (
	"fmt"
	"strings"
)

// Parse reads a plan in the WHT package grammar:
//
//	plan  := "small" "[" int "]" | "split" "[" plan ("," plan)* "]"
//
// Whitespace between tokens is ignored.  A split must have at least two
// children, leaf sizes must lie in [1, MaxLeafLog], and the total size
// may not exceed MaxPlanLog.
func Parse(s string) (*Node, error) {
	p := &parser{input: s}
	node, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("plan: trailing input at offset %d: %q", p.pos, p.input[p.pos:])
	}
	return node, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(s string) *Node {
	node, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return node
}

type parser struct {
	input string
	pos   int
	depth int // open split/phase brackets
}

// enter opens one split or phase bracket.  Every child of a split or
// phase is strictly smaller than its parent, so a valid tree nests at
// most MaxPlanLog deep; deeper input is rejected before the recursion
// goes further.  The caller defers p.depth--.
func (p *parser) enter() error {
	p.depth++
	if p.depth > MaxPlanLog {
		return fmt.Errorf("plan: nesting deeper than %d at offset %d", MaxPlanLog, p.pos)
	}
	return nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) {
		switch p.input[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != c {
		return fmt.Errorf("plan: expected %q at offset %d in %q", string(c), p.pos, p.input)
	}
	p.pos++
	return nil
}

func (p *parser) parseNode() (*Node, error) {
	p.skipSpace()
	switch {
	case strings.HasPrefix(p.input[p.pos:], "small"):
		p.pos += len("small")
		if err := p.expect('['); err != nil {
			return nil, err
		}
		m, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		return NewLeaf(m)
	case strings.HasPrefix(p.input[p.pos:], "split"):
		p.pos += len("split")
		defer func() { p.depth-- }()
		if err := p.enter(); err != nil {
			return nil, err
		}
		if err := p.expect('['); err != nil {
			return nil, err
		}
		var kids []*Node
		for {
			child, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			kids = append(kids, child)
			p.skipSpace()
			if p.pos < len(p.input) && p.input[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		return NewSplit(kids...)
	default:
		return nil, fmt.Errorf("plan: expected 'small' or 'split' at offset %d in %q", p.pos, p.input)
	}
}

func (p *parser) parseInt() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) && p.input[p.pos] >= '0' && p.input[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, fmt.Errorf("plan: expected integer at offset %d in %q", p.pos, p.input)
	}
	v := 0
	for _, c := range p.input[start:p.pos] {
		v = v*10 + int(c-'0')
		if v > 1<<20 {
			return 0, fmt.Errorf("plan: integer too large at offset %d", start)
		}
	}
	return v, nil
}
