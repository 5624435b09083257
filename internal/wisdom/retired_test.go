package wisdom

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/plan"
)

// fixtureFP is the fingerprint testdata/block_leaf_v1.json was written
// under.
var fixtureFP = Fingerprint{OS: "linux", Arch: "amd64", MaxProcs: 2, ISA: "avx2"}

// TestLoadSkipsBlockLeafEntry pins version-1 compatibility across the
// removal of the block-kernel tier: a file holding one entry whose plan
// has a block leaf (small[13], with its block_parts) and one ordinary
// entry loads without error, and only the ordinary entry survives.
func TestLoadSkipsBlockLeafEntry(t *testing.T) {
	w, err := LoadFor(filepath.Join("testdata", "block_leaf_v1.json"), fixtureFP)
	if err != nil {
		t.Fatalf("LoadFor: %v", err)
	}
	if w.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1", w.Len())
	}
	p, ns, ok := w.Lookup(10, Float64)
	if !ok || !p.Equal(plan.MustParse("split[small[5],small[5]]")) || ns != 2100.5 {
		t.Fatalf("ordinary entry = (%v, %g, %v)", p, ns, ok)
	}
	if _, _, ok := w.Lookup(18, Float64); ok {
		t.Fatal("block-leaf entry loaded")
	}
}

// Block leaves in (MaxLeafLog, 14] are skipped however the plan is
// spaced; leaves outside the version-1 range [1, 14], and block-leaf
// plans that are malformed in any other way, stay corrupt.
func TestLoadBlockLeafBounds(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "block_leaf_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	load := func(name, entry string) error {
		doc := strings.Replace(string(fixture), `"entries": [`, "\"entries\": [{"+entry+"},", 1)
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := LoadFor(path, fixtureFP)
		if err == nil && w.Len() != 1 {
			t.Errorf("%s: loaded %d entries, want only the ordinary one", name, w.Len())
		}
		return err
	}
	for name, entry := range map[string]string{
		"leaf9":  `"n":12,"type":"float32","plan":"split[small[3],small[9]]","ns_per_run":1`,
		"leaf14": `"n":14,"type":"float64","plan":"small[14]","ns_per_run":1`,
		"spaced": `"n":20,"type":"float64","plan":" split [ small [ 6 ] , small[ 14 ] ] ","ns_per_run":1`,
	} {
		if err := load(name, entry); err != nil {
			t.Errorf("%s: %v, want the entry skipped", name, err)
		}
	}
	for name, entry := range map[string]string{
		"leaf15":   `"n":20,"type":"float64","plan":"split[small[5],small[15]]","ns_per_run":1`,
		"leaf0":    `"n":13,"type":"float64","plan":"split[small[0],small[13]]","ns_per_run":1`,
		"mismatch": `"n":19,"type":"float64","plan":"split[small[5],small[13]]","ns_per_run":1`,
		"badmode":  `"n":18,"type":"float64","plan":"split[small[5],small[13]]","ns_per_run":1,"parallel_mode":"windowed"`,
	} {
		if err := load(name, entry); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// writeOnePlan writes a current-fingerprint file holding one entry.
func writeOnePlan(t *testing.T, n int, planStr string) string {
	t.Helper()
	doc := fmt.Sprintf(`{"version":1,"fingerprint":{"os":%q,"arch":%q,"maxprocs":%d,"isa":%q},`+
		`"entries":[{"n":%d,"type":"float64","plan":%q,"ns_per_run":100}]}`,
		CurrentFingerprint().OS, CurrentFingerprint().Arch, CurrentFingerprint().MaxProcs,
		CurrentFingerprint().ISA, n, planStr)
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// An entry whose plan sums to log-size 64 — eight small[8] leaves —
// once registered as a plan of Size() == 0; it is corrupt.
func TestLoadRejectsSize64Plan(t *testing.T) {
	pl := "split[" + strings.TrimSuffix(strings.Repeat("small[8],", 8), ",") + "]"
	assertCorrupt(t, writeOnePlan(t, 64, pl), "invalid entry")
}

// A 71-deep split[small[1],...] chain once loaded and then crashed the
// serving daemon's boot with a divide by zero while compiling; it is
// corrupt.
func TestLoadRejects71DeepChain(t *testing.T) {
	pl := strings.Repeat("split[small[1],", 71) + "small[1]" + strings.Repeat("]", 71)
	assertCorrupt(t, writeOnePlan(t, 72, pl), "invalid entry")
}
