package wht_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/wht"
)

// The tune -> save -> load -> serve loop through the public facade: after
// tuning, a fresh schedule cache seeded from the wisdom file serves the
// tuned plan from the default Transform path.
func TestTuneSaveLoadServeEndToEnd(t *testing.T) {
	wht.ResetTuning()
	defer wht.ResetTuning()
	const n = 9
	opt := wht.TuneOptions{
		Timing: wht.TimingOptions{Warmup: 1, Repeat: 1, MinDuration: 100 * time.Microsecond},
	}
	untuned := wht.ScheduleForSize(n).String()
	res, err := wht.Tune(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Log2Size() != n {
		t.Fatalf("bad tuned plan %v", res.Plan)
	}
	tunedSched := wht.ScheduleForSize(n).String()

	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := wht.SaveWisdom(path); err != nil {
		t.Fatal(err)
	}

	// A "fresh process": tuned plans dropped, schedule cache purged.
	wht.ResetTuning()
	if got := wht.ScheduleForSize(n).String(); got != untuned {
		t.Fatalf("reset serves %s, want the untuned default %s", got, untuned)
	}
	wht.ResetTuning() // cold cache for the load below

	if err := wht.LoadWisdom(path); err != nil {
		t.Fatal(err)
	}
	if got := wht.ScheduleForSize(n).String(); got != tunedSched {
		t.Fatalf("wisdom-seeded cache serves %s, want tuned %s", got, tunedSched)
	}

	// And the tuned plan computes the same transform as the definition.
	x := make([]float64, 1<<n)
	x[3] = 1
	want := wht.Definition(x)
	if err := wht.Transform(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("tuned transform diverges from definition at %d: %g vs %g", i, x[i], want[i])
		}
	}
}

func TestLoadWisdomRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := wht.LoadWisdom(path); err == nil {
		t.Fatal("corrupt wisdom file accepted")
	}
	if err := wht.LoadWisdom(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing wisdom file accepted")
	}
}
