package wht

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
)

// ApplyParallel evaluates the plan like Apply but distributes the
// independent kernel calls of each compiled stage across a worker pool.
// Within a stage all R*S calls touch pairwise disjoint strided vectors,
// so they can run concurrently; stages are separated by a barrier because
// stage i+1 reads what stage i wrote.
//
// Because the plan is compiled to a flat schedule first, every stage
// splits, wherever its leaf sat in the tree — not only the stages of the
// root node, as the old tree-walking evaluator was limited to.
// Above one cache block the leading stages whose rows fit a block run
// block by block instead, with no barrier between them.  Transforms
// below exec.ParallelMinElems (2^17 elements, the measured crossover at
// 2 workers) run inline through the same compiled executor, so
// sequential and parallel execution share one code path.
//
// workers <= 0 selects GOMAXPROCS.
func ApplyParallel(p *plan.Node, x []float64, workers int) error {
	sched, err := compileChecked(p, len(x))
	if err != nil {
		return err
	}
	return exec.RunParallel(sched, x, workers)
}

// ApplyBatchParallel transforms a batch of vectors with one compiled
// schedule, fanning out across vectors instead of within stages (no
// barriers; each worker streams whole transforms).  This is the
// throughput-oriented shape for serving many independent requests.
//
// workers <= 0 selects GOMAXPROCS.
func ApplyBatchParallel(p *plan.Node, xs [][]float64, workers int) error {
	if p == nil {
		return fmt.Errorf("wht: nil plan")
	}
	sched, err := exec.NewSchedule(p)
	if err != nil {
		return fmt.Errorf("wht: %w", err)
	}
	return exec.RunBatchParallel(sched, xs, workers)
}

// ApplyBatchSoA transforms the batch through the SoA tier explicitly:
// the vectors are transposed into structure-of-arrays layout, every
// stage of the compiled schedule runs once across the whole lane, and
// the results (bitwise identical to per-vector evaluation) are
// transposed back.  ApplyBatch selects this tier automatically when the
// batch width and schedule shape favor it; this entry point forces it.
func ApplyBatchSoA(p *plan.Node, xs [][]float64) error {
	if p == nil {
		return fmt.Errorf("wht: nil plan")
	}
	sched, err := exec.NewSchedule(p)
	if err != nil {
		return fmt.Errorf("wht: %w", err)
	}
	return exec.RunBatchSoA(sched, xs)
}

// ApplyBatchSoA32 is the float32 SoA batch entry point.
func ApplyBatchSoA32(p *plan.Node, xs [][]float32) error {
	if p == nil {
		return fmt.Errorf("wht: nil plan")
	}
	sched, err := exec.NewSchedule(p)
	if err != nil {
		return fmt.Errorf("wht: %w", err)
	}
	return exec.RunBatchSoA(sched, xs)
}
