// Package faultinject is the library's fault-injection harness: a
// registry of named hook points that production code fires at failure-
// containment boundaries (executor work chunks, batch vectors, the serving daemon's admission and execution seams) and that
// tests arm with panics, artificial latency, or any other misbehavior.
//
// The harness is hook-gated, not build-tag-gated, so the exact binaries
// that ship are the binaries under test: when no hook is armed a Fire
// site costs one atomic load and nothing else, and the hot kernel loops
// themselves carry no sites at all — instrumentation lives at chunk
// granularity, where a check is already amortized over thousands of
// butterflies.
//
// Typical use from a test:
//
//	defer faultinject.Reset()
//	faultinject.Set(faultinject.ExecChunk, faultinject.PanicAfter(3, "boom"))
//	err := exec.RunCtx(nil, sched, x, 4)   // returns *exec.PanicError
//
// The package also bundles the file corrupters the wisdom-hardening
// suite and the serving daemon's boot tests share (TruncateFile,
// AppendGarbage, ScrambleFile) so every corruption shape is produced
// the same way everywhere.
package faultinject

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The hook points instrumented across the library.  A point name is an
// API: tests arm it, production code fires it.
const (
	// ExecChunk fires before every executor work chunk: the sequential
	// context-aware tier's cancellation chunks and each barrier-pool
	// worker chunk.  A hook that panics here
	// lands inside the executor's per-worker recovery.
	ExecChunk = "exec.chunk"

	// ExecBatchVector fires before each per-vector transform of the
	// batch executors' per-vector path.
	ExecBatchVector = "exec.batch.vector"

	// ServeAdmit fires in the serving daemon when a decoded request is
	// about to be admitted to its size-class queue.
	ServeAdmit = "serve.admit"

	// ServeExec fires in the serving daemon immediately before a
	// coalesced batch executes.
	ServeExec = "serve.exec"
)

// armed is the fast-path gate: Fire is a single atomic load when no
// hook is registered anywhere.
var armed atomic.Bool

var (
	mu    sync.Mutex
	hooks = map[string]func(){}
)

// Enabled reports whether any hook is armed.
func Enabled() bool { return armed.Load() }

// Set arms point with hook f; a nil f clears the point.  The armed
// fast-path gate follows the registry: it turns off again when the last
// hook is cleared.
func Set(point string, f func()) {
	mu.Lock()
	defer mu.Unlock()
	if f == nil {
		delete(hooks, point)
	} else {
		hooks[point] = f
	}
	armed.Store(len(hooks) > 0)
}

// Reset clears every hook.  Tests that arm hooks must defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = map[string]func(){}
	armed.Store(false)
}

// Fire invokes the hook armed at point, if any.  With no hooks armed
// anywhere it is one atomic load.  Whatever the hook does — panic,
// sleep, nothing — happens on the calling goroutine, exactly where a
// real fault would.
func Fire(point string) {
	if !armed.Load() {
		return
	}
	mu.Lock()
	f := hooks[point]
	mu.Unlock()
	if f != nil {
		f()
	}
}

// PanicAfter returns a hook that panics with value v on its k-th call
// (k >= 1) and is inert before and after — one poisoned request in a
// stream of healthy ones.
func PanicAfter(k int, v any) func() {
	var calls atomic.Int64
	return func() {
		if calls.Add(1) == int64(k) {
			panic(v)
		}
	}
}

// PanicFirst returns a hook that panics with value v on each of its
// first k calls and heals afterwards — the repeated-fault shape that
// drives a degradation ladder.
func PanicFirst(k int, v any) func() {
	var calls atomic.Int64
	return func() {
		if calls.Add(1) <= int64(k) {
			panic(v)
		}
	}
}

// Sleep returns a hook that sleeps d on every call — artificial latency
// for deadline and backpressure tests.
func Sleep(d time.Duration) func() {
	return func() { time.Sleep(d) }
}

// Counter returns a hook that only counts its calls, and the loader for
// the count — for asserting that a point actually fires.
func Counter() (hook func(), count func() int64) {
	var calls atomic.Int64
	return func() { calls.Add(1) }, calls.Load
}

// TruncateFile cuts the file at path to half its length — the
// interrupted-write corruption shape.
func TruncateFile(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("faultinject: %w", err)
	}
	return os.Truncate(path, info.Size()/2)
}

// AppendGarbage appends non-JSON bytes to the file at path — the
// trailing-garbage corruption shape.
func AppendGarbage(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("faultinject: %w", err)
	}
	_, werr := f.WriteString("\x00{]garbage after the document")
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("faultinject: %w", werr)
	}
	return nil
}

// ScrambleFile overwrites the file at path with bytes that parse as
// nothing — the bit-rot corruption shape.
func ScrambleFile(path string) error {
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("faultinject: %w", err)
	}
	return os.WriteFile(path, []byte("\x7f\x03not json at all\x1c"), 0o644)
}
