// Command whtgen generates the unrolled WHT codelets used as base cases by
// the transform engine, mirroring the code generation approach of the WHT
// package / SPIRAL: straight-line single-assignment butterflies with all
// loop and recursion overhead removed.
//
// Per log-size it emits five kernel variants (see internal/codelet):
//
//   - strided: the generic x[base + j*stride] kernel;
//   - contig: the stride-1 specialization, indexing a constant-length
//     subslice so the compiler proves every access in bounds;
//   - il: the interleaved kernel absorbing a stage's inner k-loop — one
//     call transforms S adjacent strided vectors with every inner loop
//     unit-stride (the WHT package's "IL" optimization);
//   - soa: the structure-of-arrays batch kernel — one call advances a
//     lane of B vectors (vector b at x[base+b+j*stride], lane <= stride)
//     through the whole base case, every butterfly level a sweep of
//     unit-stride lane runs; the IL kernel is the special case
//     lane == stride;
//   - ilf: the fused interleaved form — the radix-4 fused streaming
//     kernel (two butterfly levels per pass) — with the pass structure
//     unrolled: constant multiples of s everywhere, single-trip loops
//     dropped.
//
// Everything whtgen emits is scalar pure Go.  The SIMD backend
// (internal/codelet's AVX2 and NEON assembly) is not generated: it
// overlays the generated kernels at dispatch time — the vectorized
// strided, contiguous, streaming and SoA-lane forms replace the
// corresponding generated kernels per stage when a stage's backend pin
// resolves to SIMD and its shape vectorizes, and fall back to these
// tables everywhere else.  Generated codelets therefore stay the
// correctness reference (and the bitwise-equality baseline) for every
// backend.
//
// Usage:
//
//	whtgen -max 8 -out internal/codelet/codelets_gen.go
//	whtgen -max 8 -type float32 -out internal/codelet/codelets32_gen.go
//	whtgen -variants strided,contig -out ...   # subset for inspection
//
// The output is written atomically (a temp file in the destination
// directory renamed over the target), so a crash or an unwritable parent
// never leaves a truncated table behind.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whtgen: ")
	maxLog := flag.Int("max", 8, "largest log2 codelet size to generate")
	out := flag.String("out", "internal/codelet/codelets_gen.go", "output file")
	elem := flag.String("type", "float64", "element type: float64 or float32")
	variants := flag.String("variants", "strided,contig,il,soa,ilf",
		"comma-separated kernel variants to unroll (strided, contig, il, soa, ilf); omitted variants leave nil table entries that fall back to the generic loop kernels")
	flag.Parse()
	if *maxLog < 1 || *maxLog > 12 {
		log.Fatalf("-max %d outside [1, 12]", *maxLog)
	}
	suffix := ""
	if *elem == "float32" {
		suffix = "f"
	} else if *elem != "float64" {
		log.Fatalf("-type %q must be float64 or float32", *elem)
	}
	want := map[string]bool{}
	for _, v := range strings.Split(*variants, ",") {
		switch v = strings.TrimSpace(v); v {
		case "strided", "contig", "il", "soa", "ilf":
			want[v] = true
		case "":
		default:
			log.Fatalf("-variants %q: unknown variant %q (want strided, contig, il, soa, ilf)", *variants, v)
		}
	}
	if len(want) == 0 {
		log.Fatalf("-variants %q selects nothing", *variants)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by cmd/whtgen -max %d -type %s; DO NOT EDIT.\n\n", *maxLog, *elem)
	b.WriteString("package codelet\n\n")
	if suffix == "" {
		fmt.Fprintf(&b, "// GeneratedMaxLog is the largest log2 size with an unrolled kernel.\nconst GeneratedMaxLog = %d\n\n", *maxLog)
	}
	emitTable(&b, *maxLog, suffix, "", "Kernels", "Kernel", want["strided"])
	emitTable(&b, *maxLog, suffix, "c", "ContigKernels", "ContigKernel", want["contig"])
	emitTable(&b, *maxLog, suffix, "i", "ILKernels", "ILKernel", want["il"])
	emitTable(&b, *maxLog, suffix, "so", "SoAKernels", "SoAKernel", want["soa"])
	emitTable(&b, *maxLog, suffix, "fi", "ILFusedKernels", "ILKernel", want["ilf"])

	for m := 1; m <= *maxLog; m++ {
		if want["strided"] {
			emitCodelet(&b, m, *elem, suffix)
		}
		if want["contig"] {
			emitContigCodelet(&b, m, *elem, suffix)
		}
		if want["il"] {
			emitILCodelet(&b, m, *elem, suffix)
		}
		if want["soa"] {
			emitSoACodelet(&b, m, *elem, suffix)
		}
		if want["ilf"] {
			emitILFusedCodelet(&b, m, *elem, suffix)
		}
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("generated code does not format: %v", err)
	}
	if err := writeFileAtomic(*out, src); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d bytes)", *out, len(src))
}

// writeFileAtomic writes data to path via a temp file in the destination
// directory and an atomic rename, so readers never observe a partial
// table and an unwritable parent directory is reported instead of being
// silently accepted.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".whtgen-*")
	if err != nil {
		return fmt.Errorf("cannot create temp file in %s: %w", dir, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("close %s: %w", tmp.Name(), err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("chmod %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rename to %s: %w", path, err)
	}
	return nil
}

// emitTable writes the log-size -> kernel dispatch table for one variant.
// Disabled variants still get the table declaration (the registry in
// codelet.go references it) with all-nil entries.  name and typ are the
// float64 spellings; the float32 file appends "32" to both.
func emitTable(b *bytes.Buffer, maxLog int, suffix, vtag, name, typ string, enabled bool) {
	if suffix != "" {
		name += "32"
		typ += "32"
	}
	fmt.Fprintf(b, "// %s maps log2 size to the unrolled %s, index 0 unused.\n", name, typ)
	fmt.Fprintf(b, "var %s = [GeneratedMaxLog + 1]%s{\n", name, typ)
	if enabled {
		for m := 1; m <= maxLog; m++ {
			fmt.Fprintf(b, "\t%d: wht%d%s%s,\n", m, 1<<m, vtag, suffix)
		}
	}
	b.WriteString("}\n\n")
}

// emitButterflies writes the single-assignment butterfly levels shared by
// the strided and contiguous codelets: one set of temporaries per level,
// so the register pressure grows with the codelet size exactly as it does
// in the C codelets the paper's machine model charges spills for.  It
// returns the final level index.
func emitButterflies(b *bytes.Buffer, n int) int {
	level := 0
	for h := 1; h < n; h <<= 1 {
		for blk := 0; blk < n; blk += h << 1 {
			for j := blk; j < blk+h; j++ {
				fmt.Fprintf(b, "\tt%d_%d := t%d_%d + t%d_%d\n", level+1, j, level, j, level, j+h)
				fmt.Fprintf(b, "\tt%d_%d := t%d_%d - t%d_%d\n", level+1, j+h, level, j, level, j+h)
			}
		}
		level++
	}
	return level
}

// emitCodelet writes the unrolled in-place WHT of size 2^m on the strided
// vector x[base + j*stride], j = 0..2^m-1.
func emitCodelet(b *bytes.Buffer, m int, elem, suffix string) {
	n := 1 << m
	fmt.Fprintf(b, "// wht%d%s computes an in-place WHT(%d) on x[base+j*stride].\n", n, suffix, n)
	fmt.Fprintf(b, "func wht%d%s(x []%s, base, stride int) {\n", n, suffix, elem)

	// Incremental offset computation: one add per element beyond the first.
	fmt.Fprintf(b, "\to0 := base\n")
	for j := 1; j < n; j++ {
		fmt.Fprintf(b, "\to%d := o%d + stride\n", j, j-1)
	}
	for j := 0; j < n; j++ {
		fmt.Fprintf(b, "\tt0_%d := x[o%d]\n", j, j)
	}
	level := emitButterflies(b, n)
	for j := 0; j < n; j++ {
		fmt.Fprintf(b, "\tx[o%d] = t%d_%d\n", j, level, j)
	}
	b.WriteString("}\n\n")
}

// emitContigCodelet writes the stride-1 specialization: the same
// butterfly network indexing a constant-length subslice, so every access
// is a constant index the compiler proves in bounds (one bounds check at
// the slicing instead of 2^(m+1) strided checks).
func emitContigCodelet(b *bytes.Buffer, m int, elem, suffix string) {
	n := 1 << m
	fmt.Fprintf(b, "// wht%dc%s computes an in-place WHT(%d) on the contiguous x[base:base+%d].\n", n, suffix, n, n)
	fmt.Fprintf(b, "func wht%dc%s(x []%s, base int) {\n", n, suffix, elem)
	fmt.Fprintf(b, "\tv := x[base : base+%d : base+%d]\n", n, n)
	for j := 0; j < n; j++ {
		fmt.Fprintf(b, "\tt0_%d := v[%d]\n", j, j)
	}
	level := emitButterflies(b, n)
	for j := 0; j < n; j++ {
		fmt.Fprintf(b, "\tv[%d] = t%d_%d\n", j, level, j)
	}
	b.WriteString("}\n\n")
}

// emitSoACodelet writes the structure-of-arrays batch kernel: lane
// in-place WHT(2^m)s with vector b at x[base + b + j*stride]
// (lane <= stride).  The butterfly levels are unrolled with constant
// pair offsets in multiples of stride; each pair is one unit-stride
// sweep over the lane, so every memory touch carries a full lane of
// batch vectors regardless of the stage stride the kernel runs at.
func emitSoACodelet(b *bytes.Buffer, m int, elem, suffix string) {
	n := 1 << m
	fmt.Fprintf(b, "// wht%dso%s computes lane interleaved in-place WHT(%d)s in SoA layout\n", n, suffix, n)
	fmt.Fprintf(b, "// (vector b at x[base+b+j*stride], lane <= stride); every butterfly level\n")
	fmt.Fprintf(b, "// is a sweep of unit-stride lane runs.\n")
	fmt.Fprintf(b, "func wht%dso%s(x []%s, base, stride, lane int) {\n", n, suffix, elem)
	pair := func(indent string, jExpr string, h int) {
		fmt.Fprintf(b, "%sp := base + (%s)*stride\n", indent, jExpr)
		fmt.Fprintf(b, "%slo := x[p : p+lane]\n", indent)
		fmt.Fprintf(b, "%shi := x[p+%d*stride : p+%d*stride+lane]\n", indent, h, h)
		fmt.Fprintf(b, "%shi = hi[:len(lo)]\n", indent)
		fmt.Fprintf(b, "%sfor k := range lo {\n", indent)
		fmt.Fprintf(b, "%s\ta, b := lo[k], hi[k]\n", indent)
		fmt.Fprintf(b, "%s\tlo[k] = a + b\n", indent)
		fmt.Fprintf(b, "%s\thi[k] = a - b\n", indent)
		fmt.Fprintf(b, "%s}\n", indent)
	}
	for h := 1; h < n; h <<= 1 {
		if h == 1 {
			fmt.Fprintf(b, "\tfor j := 0; j < %d; j += 2 {\n", n)
			pair("\t\t", "j", 1)
			b.WriteString("\t}\n")
			continue
		}
		fmt.Fprintf(b, "\tfor blk := 0; blk < %d; blk += %d {\n", n, 2*h)
		fmt.Fprintf(b, "\t\tfor j := blk; j < blk+%d; j++ {\n", h)
		pair("\t\t\t", "j", h)
		b.WriteString("\t\t}\n\t}\n")
	}
	b.WriteString("}\n\n")
}

// emitILCodelet writes the interleaved kernel: s in-place WHT(2^m)s on the
// contiguous block x[base : base+s*2^m], vector k at x[base + k + j*s].
// At butterfly level h the pair (j, j+h) over all k is the contiguous run
// [j*s, (j+h)*s) against [(j+h)*s, (j+2h)*s), so the generated code is one
// unit-stride streaming pass per level — n*s elements touched per pass
// regardless of how large the stage stride s is.
// sTerm renders the constant multiple c of the runtime stride s as a Go
// expression ("s", "3*s", ...).
func sTerm(c int) string {
	if c == 1 {
		return "s"
	}
	return fmt.Sprintf("%d*s", c)
}

// emitILFusedCodelet writes the fused interleaved kernel: the radix-4
// streaming form of wht{n}i (two butterfly levels per pass, one radix-2
// pass first when the level count is odd) with the pass structure
// unrolled — every pass bound and subslice offset a constant multiple
// of s, and the single-trip final pass's block loop dropped.  Bitwise
// equal to GenericILFused by the fusing argument in variant.go.
func emitILFusedCodelet(b *bytes.Buffer, m int, elem, suffix string) {
	n := 1 << m
	fmt.Fprintf(b, "// wht%dfi%s computes s interleaved in-place WHT(%d)s on x[base:base+%d*s]\n", n, suffix, n, n)
	fmt.Fprintf(b, "// through radix-4 fused streaming passes (a radix-2 pass first when the\n")
	fmt.Fprintf(b, "// level count is odd); bitwise-equal to wht%di%s.\n", n, suffix)
	fmt.Fprintf(b, "func wht%dfi%s(x []%s, base, s int) {\n", n, suffix, elem)
	fmt.Fprintf(b, "\tv := x[base : base+%d*s : base+%d*s]\n", n, n)
	r2body := func(indent string) {
		fmt.Fprintf(b, "%shi = hi[:len(lo)]\n", indent)
		fmt.Fprintf(b, "%sfor k := range lo {\n", indent)
		fmt.Fprintf(b, "%s\ta, b := lo[k], hi[k]\n", indent)
		fmt.Fprintf(b, "%s\tlo[k] = a + b\n", indent)
		fmt.Fprintf(b, "%s\thi[k] = a - b\n", indent)
		fmt.Fprintf(b, "%s}\n", indent)
	}
	r4body := func(indent string) {
		fmt.Fprintf(b, "%sq1 = q1[:len(q0)]\n", indent)
		fmt.Fprintf(b, "%sq2 = q2[:len(q0)]\n", indent)
		fmt.Fprintf(b, "%sq3 = q3[:len(q0)]\n", indent)
		fmt.Fprintf(b, "%sfor k := range q0 {\n", indent)
		fmt.Fprintf(b, "%s\ta, b, c, d := q0[k], q1[k], q2[k], q3[k]\n", indent)
		fmt.Fprintf(b, "%s\te, f := a+b, a-b\n", indent)
		fmt.Fprintf(b, "%s\tg, hh := c+d, c-d\n", indent)
		fmt.Fprintf(b, "%s\tq0[k], q1[k] = e+g, f+hh\n", indent)
		fmt.Fprintf(b, "%s\tq2[k], q3[k] = e-g, f-hh\n", indent)
		fmt.Fprintf(b, "%s}\n", indent)
	}
	hu := 1
	if m&1 == 1 {
		if n == 2*hu {
			b.WriteString("\t{\n")
			fmt.Fprintf(b, "\t\tlo := v[0:%s]\n", sTerm(hu))
			fmt.Fprintf(b, "\t\thi := v[%s:%s]\n", sTerm(hu), sTerm(2*hu))
			r2body("\t\t")
			b.WriteString("\t}\n")
		} else {
			fmt.Fprintf(b, "\tfor blk := 0; blk < %d*s; blk += %s {\n", n, sTerm(2*hu))
			fmt.Fprintf(b, "\t\tlo := v[blk : blk+%s]\n", sTerm(hu))
			fmt.Fprintf(b, "\t\thi := v[blk+%s : blk+%s]\n", sTerm(hu), sTerm(2*hu))
			r2body("\t\t")
			b.WriteString("\t}\n")
		}
		hu <<= 1
	}
	for ; hu < n; hu <<= 2 {
		if n == 4*hu {
			b.WriteString("\t{\n")
			fmt.Fprintf(b, "\t\tq0 := v[0:%s]\n", sTerm(hu))
			fmt.Fprintf(b, "\t\tq1 := v[%s:%s]\n", sTerm(hu), sTerm(2*hu))
			fmt.Fprintf(b, "\t\tq2 := v[%s:%s]\n", sTerm(2*hu), sTerm(3*hu))
			fmt.Fprintf(b, "\t\tq3 := v[%s:%s]\n", sTerm(3*hu), sTerm(4*hu))
			r4body("\t\t")
			b.WriteString("\t}\n")
		} else {
			fmt.Fprintf(b, "\tfor blk := 0; blk < %d*s; blk += %s {\n", n, sTerm(4*hu))
			fmt.Fprintf(b, "\t\tq0 := v[blk : blk+%s]\n", sTerm(hu))
			fmt.Fprintf(b, "\t\tq1 := v[blk+%s : blk+%s]\n", sTerm(hu), sTerm(2*hu))
			fmt.Fprintf(b, "\t\tq2 := v[blk+%s : blk+%s]\n", sTerm(2*hu), sTerm(3*hu))
			fmt.Fprintf(b, "\t\tq3 := v[blk+%s : blk+%s]\n", sTerm(3*hu), sTerm(4*hu))
			r4body("\t\t")
			b.WriteString("\t}\n")
		}
	}
	b.WriteString("}\n\n")
}

func emitILCodelet(b *bytes.Buffer, m int, elem, suffix string) {
	n := 1 << m
	fmt.Fprintf(b, "// wht%di%s computes s interleaved in-place WHT(%d)s on x[base:base+%d*s]\n", n, suffix, n, n)
	fmt.Fprintf(b, "// (vector k at x[base+k+j*s]); every inner loop is unit-stride.\n")
	fmt.Fprintf(b, "func wht%di%s(x []%s, base, s int) {\n", n, suffix, elem)
	fmt.Fprintf(b, "\tv := x[base : base+%d*s : base+%d*s]\n", n, n)
	for h := 1; h < n; h <<= 1 {
		fmt.Fprintf(b, "\tfor blk := 0; blk < %d*s; blk += %d * s {\n", n, 2*h)
		fmt.Fprintf(b, "\t\tlo := v[blk : blk+%d*s]\n", h)
		fmt.Fprintf(b, "\t\thi := v[blk+%d*s : blk+%d*s]\n", h, 2*h)
		b.WriteString("\t\thi = hi[:len(lo)]\n")
		b.WriteString("\t\tfor k := range lo {\n")
		b.WriteString("\t\t\ta, b := lo[k], hi[k]\n")
		b.WriteString("\t\t\tlo[k] = a + b\n")
		b.WriteString("\t\t\thi[k] = a - b\n")
		b.WriteString("\t\t}\n\t}\n")
	}
	b.WriteString("}\n\n")
}
