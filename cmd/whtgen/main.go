// Command whtgen generates the unrolled WHT codelets used as base cases by
// the transform engine, mirroring the code generation approach of the WHT
// package / SPIRAL: straight-line single-assignment butterflies with all
// loop and recursion overhead removed.
//
// It unrolls only the kernel forms that beat their loop (see
// internal/codelet), once per element type:
//
//   - strided, m = 1..8: the generic x[base + j*stride] kernel, 1.6-4x
//     faster than the Generic loop for m <= 7 (BenchmarkKernelVsLoop);
//     at m = 8 it measured level with the loop or slower, and stays until
//     a re-measure at the strides the scalar default plans run;
//   - contig, m = 1..7: the stride-1 specialization, indexing a
//     constant-length subslice so the compiler proves every access in
//     bounds; 1.5-5.6x faster than GenericContig up to m = 7 and level
//     with it at m = 8, which therefore runs the loop.
//
// The interleaved and fused interleaved shapes tie or lose to their
// Generic* loops, so they run the loops and are not generated.
//
// Everything whtgen emits is scalar pure Go.  The SIMD backend
// (internal/codelet's AVX2 and NEON assembly) is not generated: it
// replaces the scalar kernels per stage when a stage's backend pin
// resolves to SIMD and its shape vectorizes.  Generated codelets are
// tested bitwise against the Generic loop, the reference of every tier.
//
// Usage:
//
//	whtgen -max 8 -out internal/codelet/codelets_gen.go
//	whtgen -max 8 -type float32 -out internal/codelet/codelets32_gen.go
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
)

// contigMaxLog is the largest log2 size of the contiguous codelets: at
// 2^8 the unrolled form measured level with GenericContig.
const contigMaxLog = 7

func main() {
	log.SetFlags(0)
	log.SetPrefix("whtgen: ")
	maxLog := flag.Int("max", 8, "largest log2 codelet size to generate")
	out := flag.String("out", "internal/codelet/codelets_gen.go", "output file")
	elem := flag.String("type", "float64", "element type: float64 or float32")
	flag.Parse()
	if *maxLog < 1 || *maxLog > 12 {
		log.Fatalf("-max %d outside [1, 12]", *maxLog)
	}
	contigMax := min(*maxLog, contigMaxLog)
	suffix := ""
	if *elem == "float32" {
		suffix = "f"
	} else if *elem != "float64" {
		log.Fatalf("-type %q must be float64 or float32", *elem)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by cmd/whtgen -max %d -type %s; DO NOT EDIT.\n\n", *maxLog, *elem)
	b.WriteString("package codelet\n\n")
	if suffix == "" {
		fmt.Fprintf(&b, "// GeneratedMaxLog is the largest log2 size with an unrolled strided kernel.\nconst GeneratedMaxLog = %d\n\n", *maxLog)
		fmt.Fprintf(&b, "// GeneratedContigMaxLog is the largest log2 size with an unrolled contiguous kernel.\nconst GeneratedContigMaxLog = %d\n\n", contigMax)
	}
	emitTable(&b, *maxLog, "GeneratedMaxLog", suffix, "", "Kernels", "Kernel")
	emitTable(&b, contigMax, "GeneratedContigMaxLog", suffix, "c", "ContigKernels", "ContigKernel")

	for m := 1; m <= *maxLog; m++ {
		emitCodelet(&b, m, *elem, suffix)
		if m <= contigMax {
			emitContigCodelet(&b, m, *elem, suffix)
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

// emitTable writes the log-size -> kernel dispatch table of one form,
// sized by the bound constant maxName.  name and typ are the float64
// spellings; the float32 file appends "32" to both.
func emitTable(b *bytes.Buffer, maxLog int, maxName, suffix, vtag, name, typ string) {
	if suffix != "" {
		name += "32"
		typ += "32"
	}
	fmt.Fprintf(b, "// %s maps log2 size to the unrolled %s, index 0 unused.\n", name, typ)
	fmt.Fprintf(b, "var %s = [%s + 1]%s{\n", name, maxName, typ)
	for m := 1; m <= maxLog; m++ {
		fmt.Fprintf(b, "\t%d: wht%d%s%s,\n", m, 1<<m, vtag, suffix)
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
