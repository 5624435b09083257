// Quickstart: compute a Walsh–Hadamard transform, verify the involution
// property, and look at a few algorithm plans from the paper's space.
package main

import (
	"fmt"
	"log"

	"repro/wht"
)

func main() {
	// Transform a small signal in place with the default plan.
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i % 4)
	}
	orig := append([]float64(nil), x...)
	if err := wht.Transform(x); err != nil {
		log.Fatal(err)
	}
	fmt.Println("WHT coefficients:", x)

	// The WHT is an involution up to scale: applying it twice returns
	// N times the input.
	if err := wht.Transform(x); err != nil {
		log.Fatal(err)
	}
	for i := range x {
		x[i] /= float64(len(x))
	}
	fmt.Println("recovered signal:", x)
	for i := range x {
		if diff := x[i] - orig[i]; diff > 1e-12 || diff < -1e-12 {
			log.Fatalf("round trip failed at %d", i)
		}
	}

	// Every plan in the ~O(7^n) algorithm space computes the same
	// transform; plans differ only in performance.
	for _, spec := range []string{
		"split[small[1],small[1],small[1],small[1]]",               // iterative
		"split[small[1],split[small[1],split[small[1],small[1]]]]", // right recursive
		"split[small[2],small[2]]",                                 // radix-4
		"small[4]",                                                 // one unrolled codelet
	} {
		p, err := wht.Parse(spec)
		if err != nil {
			log.Fatal(err)
		}
		y := append([]float64(nil), orig...)
		if err := wht.Apply(p, y); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-58s -> first coeff %.0f\n", spec, y[0])
	}

	// For repeated traffic, compile the plan once and replay the schedule:
	// the tree is flattened to a linear sequence of butterfly stages and
	// never walked again.
	p := wht.Balanced(4, wht.MaxLeafLog)
	sched, err := wht.Compile(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan %s compiles to %d stage(s): %s\n", p, sched.NumStages(), sched)
	y := append([]float64(nil), orig...)
	if err := wht.Run(sched, y); err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled run:  ", y)

	// A whole batch of vectors shares one schedule; RunBatch takes a
	// context (nil: not cancellable) and a worker count (1: the
	// caller's goroutine).
	batch := make([][]float64, 4)
	for i := range batch {
		batch[i] = append([]float64(nil), orig...)
	}
	if err := wht.RunBatch(nil, sched, batch, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("batch of", len(batch), "vectors transformed; first:", batch[0])

	fmt.Printf("\nalgorithm space size for 2^16: %s plans\n", wht.CountAlgorithms(16, wht.MaxLeafLog))
}
