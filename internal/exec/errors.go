package exec

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The executor's fault taxonomy.  RunCtx, RunBatch and RunSegmented
// contain the faults of the kernels they run on every tier (the barrier
// pool, the batch fan-out), nil ctx included: a panic on
// a worker goroutine is recovered where it happens, converted to a
// *PanicError carrying stage attribution and the panicking goroutine's
// stack, and returned as the call's error — the process stays up,
// sibling workers drain, and the pool is reusable for the next call.  Cancellation is reported as the context's own error
// (context.Canceled / context.DeadlineExceeded), never wrapped, so
// errors.Is works directly against the ctx.
//
// On any error return the vector (or batch) contents are unspecified —
// some stages may have run and others not — but every buffer is intact
// memory and every pool, cache, and schedule remains valid for reuse.

// ErrKernelPanic is the sentinel every *PanicError matches through
// errors.Is: callers that only care that a kernel panicked (the serving
// daemon's fault accounting) test against it instead of destructuring.
var ErrKernelPanic = errors.New("exec: kernel panic")

// PanicError is a panic recovered on an executor goroutine, converted
// to an error so one poisoned request cannot take down a worker pool or
// the process.
type PanicError struct {
	// Stage is the index of the schedule stage that was executing, -1
	// when the panic happened outside any stage.
	Stage int
	// Value is the recovered panic value.
	Value any
	// Stack is the stack of the panicking goroutine, captured at
	// recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	where := "stage ?"
	if e.Stage >= 0 {
		where = fmt.Sprintf("stage %d", e.Stage)
	}
	return fmt.Sprintf("exec: kernel panic at %s: %v", where, e.Value)
}

// Is matches ErrKernelPanic, so errors.Is(err, ErrKernelPanic) holds
// for every recovered kernel panic.
func (e *PanicError) Is(target error) bool { return target == ErrKernelPanic }

// newPanicError builds the typed error for a recovered panic value.  A
// panic value that already is a *PanicError passes through unchanged
// (nested recovery must not re-wrap the attribution).
func newPanicError(stage int, v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Stage: stage, Value: v, Stack: debug.Stack()}
}

// failure collects the first error of a multi-goroutine run and doubles
// as the abort signal: set closes done exactly once, and workers poll
// failed to stop picking up work.  The close/receive
// pair gives the reader of err a happens-before edge, so no lock is
// needed on the read side.
type failure struct {
	once    sync.Once
	aborted atomic.Bool
	e       error
	done    chan struct{}
}

func newFailure() *failure { return &failure{done: make(chan struct{})} }

// set records err as the run's error if it is the first, and signals
// abort.  nil errors are ignored.
func (f *failure) set(err error) {
	if err == nil {
		return
	}
	f.once.Do(func() {
		f.e = err
		f.aborted.Store(true)
		close(f.done)
	})
}

// failed is the cheap polling form of the abort signal.
func (f *failure) failed() bool { return f.aborted.Load() }

// err returns the recorded error, nil when the run completed clean.
func (f *failure) err() error {
	select {
	case <-f.done:
		return f.e
	default:
		return nil
	}
}
