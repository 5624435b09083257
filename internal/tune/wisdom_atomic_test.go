package tune

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/exec"
	"repro/internal/wisdom"
)

// LoadWisdom must be all-or-nothing: a file whose second entry fails
// registration-time validation (a stage-backends vector of the wrong
// length — the one check wisdom.Load cannot perform, since it needs the
// compiled stage count) must leave the tuned-plan registry, the cache,
// and the process store exactly as they were — the first, valid entry
// must NOT have been registered on the way to the failure.
func TestLoadWisdomAtomic(t *testing.T) {
	Reset()
	defer Reset()

	fp := wisdom.CurrentFingerprint()
	doc := `{"version":1,"fingerprint":{"os":"` + fp.OS + `","arch":"` + fp.Arch +
		`","maxprocs":` + strconv.Itoa(fp.MaxProcs) + `,"isa":"` + fp.ISA + `"},"entries":[` +
		// Entry 1: perfectly valid.
		`{"n":8,"type":"float64","plan":"small[8]","ns_per_run":100},` +
		// Entry 2: parses and passes wisdom.Load's structural checks
		// (every spelling is legal) but cannot register: one pin for a
		// plan that compiles to a different stage count.
		`{"n":10,"type":"float64","plan":"split[small[5],small[5]]","ns_per_run":200,` +
		`"stage_backends":["scalar","scalar","scalar","scalar","scalar"]}` +
		`]}`
	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := LoadWisdom(path); err == nil {
		t.Fatal("LoadWisdom accepted a file with an unregistrable entry")
	}
	if _, _, ok := exec.TunedConfigFor(8); ok {
		t.Fatal("partial load: entry n=8 was registered before the failing entry rejected the file")
	}
	if _, _, ok := exec.TunedConfigFor(10); ok {
		t.Fatal("partial load: the failing entry itself was registered")
	}
	if got := Wisdom().Len(); got != 0 {
		t.Fatalf("partial load: %d entries merged into the process store", got)
	}

	// The same file minus the poison entry loads cleanly — proving the
	// rejection above came from the bad entry, not the fixture.
	doc2 := `{"version":1,"fingerprint":{"os":"` + fp.OS + `","arch":"` + fp.Arch +
		`","maxprocs":` + strconv.Itoa(fp.MaxProcs) + `,"isa":"` + fp.ISA + `"},"entries":[` +
		`{"n":8,"type":"float64","plan":"small[8]","ns_per_run":100}]}`
	if err := os.WriteFile(path, []byte(doc2), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadWisdom(path); err != nil {
		t.Fatalf("healthy file rejected: %v", err)
	}
	if _, _, ok := exec.TunedConfigFor(8); !ok {
		t.Fatal("healthy entry not registered")
	}
}
