package faultinject

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestDisabledFireIsInert(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("fresh registry reports enabled")
	}
	Fire(ExecChunk) // must not panic or block
}

func TestSetFireClear(t *testing.T) {
	defer Reset()
	hook, count := Counter()
	Set(ExecChunk, hook)
	if !Enabled() {
		t.Fatal("armed hook not reported enabled")
	}
	Fire(ExecChunk)
	Fire(ExecBatchVector) // different point: must not invoke the hook
	Fire(ExecChunk)
	if got := count(); got != 2 {
		t.Fatalf("hook fired %d times, want 2", got)
	}
	Set(ExecChunk, nil)
	if Enabled() {
		t.Fatal("cleared registry still enabled")
	}
	Fire(ExecChunk)
	if got := count(); got != 2 {
		t.Fatalf("cleared hook still fired: %d calls", got)
	}
}

func TestPanicAfter(t *testing.T) {
	hook := PanicAfter(3, "boom")
	hook()
	hook()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("3rd call did not panic")
			}
		}()
		hook()
	}()
	hook() // inert again after the k-th call
}

func TestPanicFirst(t *testing.T) {
	hook := PanicFirst(2, "boom")
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d did not panic", i+1)
				}
			}()
			hook()
		}()
	}
	hook() // healed
}

func TestSleepHook(t *testing.T) {
	start := time.Now()
	Sleep(10 * time.Millisecond)()
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("slept only %v", elapsed)
	}
}

func TestFileCorrupters(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(`{"version":1,"entries":[]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := write("trunc.json")
	if err := TruncateFile(p); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(p); len(data) != len(`{"version":1,"entries":[]}`)/2 {
		t.Fatalf("truncate left %d bytes", len(data))
	}

	p = write("trail.json")
	if err := AppendGarbage(p); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(p); len(data) <= len(`{"version":1,"entries":[]}`) {
		t.Fatal("append added nothing")
	}

	p = write("scramble.json")
	if err := ScrambleFile(p); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(p); data[0] == '{' {
		t.Fatal("scramble left JSON-looking content")
	}

	if err := TruncateFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("truncating a missing file did not error")
	}
	if err := ScrambleFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("scrambling a missing file did not error")
	}
}

func TestConcurrentFire(t *testing.T) {
	defer Reset()
	hook, count := Counter()
	Set(ExecChunk, hook)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				Fire(ExecChunk)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := count(); got != 400 {
		t.Fatalf("fired %d, want 400", got)
	}
}
