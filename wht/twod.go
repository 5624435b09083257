package wht

import (
	"fmt"

	"repro/internal/exec"
)

// Inverse applies the inverse WHT in place: the WHT is self-inverse up to
// the factor 2^n, so this is Apply followed by the 1/N scale.
func Inverse(p *Plan, x []float64) error {
	if err := Apply(p, x); err != nil {
		return err
	}
	scale := 1 / float64(len(x))
	for i := range x {
		x[i] *= scale
	}
	return nil
}

// Apply2D computes the two-dimensional WHT of a rows x cols matrix stored
// row-major in x: rowPlan (size cols) transforms every row, then colPlan
// (size rows) transforms every column.  This computes (WHT_rows (x)
// WHT_cols) * vec(x), the separable 2-D transform used in image coding.
// Each plan is compiled once and its schedule reused across all rows
// (resp. columns).
func Apply2D(rowPlan, colPlan *Plan, x []float64) error {
	if rowPlan == nil || colPlan == nil {
		return fmt.Errorf("wht: nil plan")
	}
	cols := rowPlan.Size()
	rows := colPlan.Size()
	if len(x) != rows*cols {
		return fmt.Errorf("wht: buffer length %d does not match %dx%d", len(x), rows, cols)
	}
	rowSched, err := exec.NewSchedule(rowPlan)
	if err != nil {
		return fmt.Errorf("wht: %w", err)
	}
	colSched, err := exec.NewSchedule(colPlan)
	if err != nil {
		return fmt.Errorf("wht: %w", err)
	}
	return run2D(rowSched, colSched, x, rows, cols)
}

// run2D transforms every row with rowSched, then every column with
// colSched — the shared core of Apply2D and Transform2D.
func run2D(rowSched, colSched *exec.Schedule, x []float64, rows, cols int) error {
	for i := 0; i < rows; i++ {
		if err := exec.RunStrided(rowSched, x, i*cols, 1); err != nil {
			return err
		}
	}
	for j := 0; j < cols; j++ {
		if err := exec.RunStrided(colSched, x, j, cols); err != nil {
			return err
		}
	}
	return nil
}

// Transform2D computes the 2-D WHT with the default plans; rows and
// cols must be powers of two >= 2.  The schedules come from the same LRU
// cache as Transform.
func Transform2D(x []float64, rows, cols int) error {
	lr, err := log2Len(rows)
	if err != nil {
		return fmt.Errorf("wht: rows: %w", err)
	}
	lc, err := log2Len(cols)
	if err != nil {
		return fmt.Errorf("wht: cols: %w", err)
	}
	if len(x) != rows*cols {
		return fmt.Errorf("wht: buffer length %d does not match %dx%d", len(x), rows, cols)
	}
	// A row has cols elements and a column has rows elements.
	return run2D(exec.ForSize(lc), exec.ForSize(lr), x, rows, cols)
}
