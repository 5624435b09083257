package plan

import "testing"

// The fuzzers check the decoder contract every caller relies on: no
// input panics, whatever parses is valid (so Size() is a positive int),
// and printing a parsed tree parses back to an equal tree.  Seed inputs
// live in testdata/fuzz/Fuzz*/.

func FuzzParse(f *testing.F) {
	f.Add("split[small[4],small[4]]")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned an invalid plan: %v", s, err)
		}
		if p.Size() <= 0 {
			t.Fatalf("Parse(%q): Size() = %d", s, p.Size())
		}
		q, err := Parse(p.String())
		if err != nil || !q.Equal(p) {
			t.Fatalf("Parse(%q).String() = %q does not round-trip: %v", s, p.String(), err)
		}
	})
}

func FuzzParseSeg(f *testing.F) {
	f.Add("phase[small[4],split[small[2],small[2]]]")
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseSeg(s)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ParseSeg(%q) returned an invalid tree: %v", s, err)
		}
		if g.Size() <= 0 {
			t.Fatalf("ParseSeg(%q): Size() = %d", s, g.Size())
		}
		if err := g.Flatten().Validate(); err != nil {
			t.Fatalf("ParseSeg(%q).Flatten() invalid: %v", s, err)
		}
		h, err := ParseSeg(g.String())
		if err != nil || !h.Equal(g) {
			t.Fatalf("ParseSeg(%q).String() = %q does not round-trip: %v", s, g.String(), err)
		}
	})
}
