package wisdom

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/codelet"
	"repro/internal/plan"
)

func TestRoundTripBothElementTypes(t *testing.T) {
	p64 := plan.MustParse("split[small[4],split[small[6],small[8]]]")
	p32 := plan.MustParse("split[small[8],small[8],small[2]]")
	w := New()
	if _, err := w.Record(Float64, p64, 1500); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Record(Float32, p32, 900); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "wisdom.json")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", loaded.Len())
	}
	got64, ns64, ok := loaded.Lookup(18, Float64)
	if !ok || !got64.Equal(p64) || ns64 != 1500 {
		t.Fatalf("float64 lookup = (%v, %g, %v)", got64, ns64, ok)
	}
	got32, ns32, ok := loaded.Lookup(18, Float32)
	if !ok || !got32.Equal(p32) || ns32 != 900 {
		t.Fatalf("float32 lookup = (%v, %g, %v)", got32, ns32, ok)
	}
	if _, _, ok := loaded.Lookup(7, Float64); ok {
		t.Fatal("lookup of untuned size succeeded")
	}
}

func TestRecordKeepsFasterEntry(t *testing.T) {
	w := New()
	fast := plan.MustParse("split[small[5],small[5]]")
	slow := plan.MustParse("split[small[2],small[8]]")
	if kept, _ := w.Record(Float64, fast, 100); !kept {
		t.Fatal("first record not kept")
	}
	if kept, _ := w.Record(Float64, slow, 200); kept {
		t.Fatal("slower record displaced a faster one")
	}
	if p, ns, _ := w.Lookup(10, Float64); !p.Equal(fast) || ns != 100 {
		t.Fatalf("lookup = (%v, %g), want the faster entry", p, ns)
	}
	if kept, _ := w.Record(Float64, slow, 50); !kept {
		t.Fatal("faster record rejected")
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
}

func TestRecordRejectsBadInput(t *testing.T) {
	w := New()
	good := plan.MustParse("small[3]")
	if _, err := w.Record("complex128", good, 10); err == nil {
		t.Fatal("unknown element type accepted")
	}
	if _, err := w.Record(Float64, nil, 10); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, err := w.Record(Float64, new(plan.Node), 10); err == nil {
		t.Fatal("invalid plan accepted")
	}
	if _, err := w.Record(Float64, good, 0); err == nil {
		t.Fatal("non-positive measurement accepted")
	}
}

func TestMergeKeepsFasterPerKeyAndUnionsKeys(t *testing.T) {
	a, b := New(), New()
	pa := plan.MustParse("split[small[4],small[4]]")
	pb := plan.MustParse("split[small[2],small[6]]")
	other := plan.MustParse("split[small[6],small[6]]")
	a.Record(Float64, pa, 100)
	b.Record(Float64, pb, 50) // same key, faster
	b.Record(Float64, other, 300)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if p, ns, _ := a.Lookup(8, Float64); !p.Equal(pb) || ns != 50 {
		t.Fatalf("merge kept (%v, %g), want the faster entry", p, ns)
	}
	if p, _, ok := a.Lookup(12, Float64); !ok || !p.Equal(other) {
		t.Fatal("merge dropped a disjoint key")
	}

	foreign := NewFor(Fingerprint{OS: "plan9", Arch: "mips", MaxProcs: 1})
	foreign.Record(Float64, pa, 10)
	if err := a.Merge(foreign); err == nil {
		t.Fatal("merge across fingerprints accepted")
	}
}

func TestLoadRejectsCorruptAndMismatchedFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	entry := func(n int, p, typ string, ns float64) string {
		e, _ := json.Marshal(Entry{N: n, Type: typ, Plan: p, NsPerRun: ns})
		return string(e)
	}
	fp, _ := json.Marshal(CurrentFingerprint())
	valid := func(entries ...string) string {
		return `{"version": 1, "fingerprint": ` + string(fp) + `, "entries": [` +
			strings.Join(entries, ",") + `]}`
	}

	cases := map[string]string{
		"garbage":      "not json at all{",
		"bad-version":  `{"version": 99, "fingerprint": ` + string(fp) + `, "entries": []}`,
		"bad-machine":  `{"version": 1, "fingerprint": {"os": "plan9", "arch": "mips", "maxprocs": 1}, "entries": []}`,
		"bad-plan":     valid(entry(4, "split[small[9000]]", Float64, 10)),
		"size-clash":   valid(entry(5, "split[small[2],small[2]]", Float64, 10)),
		"bad-type":     valid(entry(4, "split[small[2],small[2]]", "int8", 10)),
		"bad-ns":       valid(entry(4, "split[small[2],small[2]]", Float64, -1)),
		"missing-file": "", // never written; path below
	}
	for name, content := range cases {
		path := filepath.Join(dir, "missing.json")
		if content != "" {
			path = write(name+".json", content)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: Load accepted a bad file", name)
		}
	}

	// Sanity: the valid shape loads, and duplicate keys fold to faster.
	path := write("ok.json", valid(
		entry(4, "split[small[2],small[2]]", Float64, 100),
		entry(4, "split[small[1],small[3]]", Float64, 40),
	))
	w, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p, ns, _ := w.Lookup(4, Float64); ns != 40 || p.String() != "split[small[1],small[3]]" {
		t.Fatalf("duplicate fold kept (%v, %g)", p, ns)
	}
}

// The variant-policy fields must survive a save/load cycle, and entries
// without them (pre-variant files) must load as the default policy.
func TestPolicyRoundTrip(t *testing.T) {
	p := plan.MustParse("split[small[4],small[8]]")
	w := New()
	pol := codelet.Policy{ILMinS: 2, StridedOnly: false}
	if _, err := w.RecordPolicy(Float64, p, pol, 1000); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPol, ns, ok := loaded.LookupPolicy(12, Float64)
	if !ok || !got.Equal(p) || gotPol != pol || ns != 1000 {
		t.Fatalf("LookupPolicy = (%v, %+v, %g, %v), want (%v, %+v, 1000, true)", got, gotPol, ns, ok, p, pol)
	}
	// Plain Record stores the default policy.
	if _, err := w.Record(Float32, p, 500); err != nil {
		t.Fatal(err)
	}
	if _, gotPol, _, _ := w.LookupPolicy(12, Float32); gotPol != codelet.DefaultPolicy() {
		t.Fatalf("Record stored policy %+v, want default", gotPol)
	}
}

// The fused interleaved flag round-trips alongside the other policy
// fields (absent in older files, which still load as the default
// policy), while a block-leaf plan — first-class in version 1 until the
// block-kernel tier was removed — survives the same file only as a
// skipped entry: the file loads, the block plan does not.
func TestBlockPlanAndFusePolicyRoundTrip(t *testing.T) {
	p := plan.MustParse("split[small[6],small[8]]")
	w := New()
	pol := codelet.Policy{ILFuse: true}
	if _, err := w.RecordPolicy(Float64, p, pol, 2000); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	block := `"entries": [{"n":18,"type":"float32","plan":"split[small[4],small[14]]","ns_per_run":1500,"il_fuse":true},`
	data = []byte(strings.Replace(string(data), `"entries": [`, block, 1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPol, ns, ok := loaded.LookupPolicy(14, Float64)
	if !ok || !got.Equal(p) || gotPol != pol || ns != 2000 {
		t.Fatalf("LookupPolicy = (%v, %+v, %g, %v), want (%v, %+v, 2000, true)", got, gotPol, ns, ok, p, pol)
	}
	if _, _, ok := loaded.Lookup(18, Float32); ok || loaded.Len() != 1 {
		t.Fatalf("block-leaf entry loaded: %d entries", loaded.Len())
	}
}

// A version-1 file written while the engine had two parallel tiers and
// a structure-of-arrays batch tier loads with its "parallel_mode" pins
// and "soa_min_batch" crossovers ignored and every plan, policy and
// stage-backend pin intact, and re-saves without either field; a
// "block_parts" field left by the removed block-kernel tier is likewise
// read, ignored, and gone after the next save.
func TestRecordFullRoundTripsParallelMode(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parallel_mode_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"pipelined"`, `"barrier"`, `"soa_min_batch": 8`, `"soa_min_batch": -1`} {
		if !strings.Contains(string(fixture), want) {
			t.Fatalf("fixture lost its %s field", want)
		}
	}
	data := []byte(strings.Replace(string(fixture), `"parallel_mode"`, `"block_parts": {"13": [5, 8]}, "parallel_mode"`, 1))
	data = []byte(strings.Replace(string(data), `"soa_min_batch": -1`, `"stage_backends": ["scalar", "simd"], "soa_min_batch": -1`, 1))
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadFor(path, fixtureFP)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("loaded %d entries, want 3", r.Len())
	}
	byN := map[int]Entry{}
	for _, e := range r.Entries() {
		byN[e.N] = e
	}
	pins := []codelet.Backend{codelet.ScalarBackend, codelet.SIMDBackend}
	if e, got := byN[14], byN[14].Tuned(); e.Plan != "split[small[6],small[8]]" ||
		got.Policy != (codelet.Policy{ILMinS: 8, ILFuse: true}) || !slices.Equal(got.StageBackends, pins) {
		t.Fatalf("pipelined entry = %+v, tuning %+v", e, got)
	}
	if e, got := byN[12], byN[12].Tuned(); e.Plan != "split[small[6],small[6]]" ||
		got.Policy != codelet.DefaultPolicy() || got.StageBackends != nil {
		t.Fatalf("barrier entry = %+v, tuning %+v", e, got)
	}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"parallel_mode", "soa_min_batch", "block_parts"} {
		if strings.Contains(string(data), key) {
			t.Fatalf("re-saved file kept %s:\n%s", key, data)
		}
	}
	if !strings.Contains(string(data), `"stage_backends"`) {
		t.Fatalf("re-saved file lost the stage-backend pins:\n%s", data)
	}

	// Untuned entries omit the optional fields on disk (version-1 compat
	// in the other direction: files we write stay minimal).
	w2 := New()
	if _, err := w2.Record(Float64, plan.MustParse("split[small[5],small[5]]"), 100); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(t.TempDir(), "w2.json")
	if err := w2.Save(p2); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(p2); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"il_min_s", "strided_only", "il_fuse", "backend", "stage_backends", "segments", "resident_budget"} {
		if strings.Contains(string(data), key) {
			t.Fatalf("untuned entry serialized optional field %s:\n%s", key, data)
		}
	}
}

func TestRecordFullRejectsBadTuning(t *testing.T) {
	w := New()
	p := plan.MustParse("split[small[6],small[8]]")
	for _, tc := range []Tuned{
		{Policy: codelet.Policy{Backend: codelet.Backend(99)}}, // backend with no spelling
	} {
		if _, err := w.RecordFull(Float64, p, tc, 1000); err == nil {
			t.Fatalf("RecordFull accepted bad tuning %+v", tc)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("rejected records left %d entries", w.Len())
	}
}

// A bad spelling of the retired "parallel_mode" field, or a non-integer
// value of the retired "soa_min_batch" field, is corrupt; the values
// Save once wrote are ignored.  A "block_parts" field,
// whatever it holds, is a leftover of the removed block-kernel tier and
// is ignored.
func TestLoadRejectsBadParallelMode(t *testing.T) {
	dir := t.TempDir()
	base := `{"version":1,"fingerprint":%s,"entries":[{%s}]}`
	fp, err := json.Marshal(CurrentFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	write := func(name, entry string) string {
		path := filepath.Join(dir, name)
		content := fmt.Sprintf(base, fp, entry)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := `"n":10,"type":"float64","plan":"split[small[5],small[5]]","ns_per_run":100`
	if _, err := Load(write("mode.json", good+`,"parallel_mode":"windowed"`)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown parallel mode: err = %v, want ErrCorrupt", err)
	}
	for _, v := range []string{`"8"`, `1.5`, `true`, `[8]`} {
		if _, err := Load(write("soa.json", good+`,"soa_min_batch":`+v)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("soa_min_batch %s: err = %v, want ErrCorrupt", v, err)
		}
	}
	// The valid spellings, including explicit "auto", load fine; so do a
	// file without the new fields (a pre-parallel version-1 file) and
	// every block_parts shape the block tier's validation once rejected.
	for name, entry := range map[string]string{
		"auto.json":      good + `,"parallel_mode":"auto"`,
		"barrier.json":   good + `,"parallel_mode":"barrier"`,
		"pipelined.json": good + `,"parallel_mode":"pipelined","block_parts":{"13":[5,8]}`,
		"old.json":       good,
		"soa.json":       good + `,"soa_min_batch":8`,
		"soa-off.json":   good + `,"soa_min_batch":-1,"parallel_mode":"barrier"`,
		"tier.json":      good + `,"block_parts":{"8":[4,4]}`,
		"key.json":       good + `,"block_parts":{"thirteen":[5,8]}`,
		"empty.json":     good + `,"block_parts":{"13":[]}`,
	} {
		if _, err := Load(write(name, entry)); err != nil {
			t.Fatalf("%s: Load rejected valid entry: %v", name, err)
		}
	}
	// Backend spellings: the valid ones load, unknown ones are rejected.
	for name, entry := range map[string]string{
		"bauto.json":   good + `,"backend":"auto"`,
		"bscalar.json": good + `,"backend":"scalar"`,
		"bsimd.json":   good + `,"backend":"simd"`,
	} {
		if _, err := Load(write(name, entry)); err != nil {
			t.Fatalf("%s: Load rejected valid backend: %v", name, err)
		}
	}
	if _, err := Load(write("bbad.json", good+`,"backend":"avx9"`)); err == nil {
		t.Fatal("Load accepted an unknown backend spelling")
	}
}

// The backend field round-trips through save/load and back into the
// compiled policy; the Auto default stays off disk so pre-SIMD files
// re-save byte-compatibly.
func TestBackendPolicyRoundTrip(t *testing.T) {
	w := New()
	p := plan.MustParse("split[small[5],small[5]]")
	if _, err := w.RecordFull(Float64, p,
		Tuned{Policy: codelet.Policy{ILFuse: true, Backend: codelet.ScalarBackend}}, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RecordFull(Float32, p,
		Tuned{Policy: codelet.Policy{Backend: codelet.AutoBackend}}, 90); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"backend": "scalar"`) {
		t.Fatalf("scalar backend not serialized:\n%s", data)
	}
	if strings.Count(string(data), `"backend"`) != 1 {
		t.Fatalf("auto backend must stay off disk:\n%s", data)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, pol, _, ok := r.LookupPolicy(10, Float64); !ok || pol.Backend != codelet.ScalarBackend || !pol.ILFuse {
		t.Fatalf("float64 policy = %+v, want scalar backend with ILFuse", pol)
	}
	if _, pol, _, ok := r.LookupPolicy(10, Float32); !ok || pol.Backend != codelet.AutoBackend {
		t.Fatalf("float32 policy = %+v, want auto backend", pol)
	}

	// A backend value outside the declared constants has no valid
	// spelling and must be rejected before it poisons the file.
	if _, err := w.RecordFull(Float64, p,
		Tuned{Policy: codelet.Policy{Backend: codelet.Backend(99)}}, 50); err == nil {
		t.Fatal("RecordFull accepted an out-of-range backend")
	}
}

// The fingerprint's ISA field gates entries, not files: LoadFor on a
// host with a different vector ISA succeeds but keeps only entries
// whose timing cannot depend on the ISA — backend pinned to scalar at
// both the schedule and the stage level.  OS and MaxProcs mismatches
// still reject the whole file.
func TestFingerprintISACompat(t *testing.T) {
	dir := t.TempDir()
	write := func(name, fpJSON string, entries ...string) string {
		path := filepath.Join(dir, name)
		if entries == nil {
			entries = []string{`{"n":8,"type":"float64","plan":"split[small[4],small[4]]","ns_per_run":100}`}
		}
		content := `{"version":1,"fingerprint":` + fpJSON +
			`,"entries":[` + strings.Join(entries, ",") + `]}`
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scalarFP := Fingerprint{OS: "linux", Arch: "amd64", MaxProcs: 4}
	avx2FP := Fingerprint{OS: "linux", Arch: "amd64", MaxProcs: 4, ISA: "avx2"}
	neonFP := Fingerprint{OS: "linux", Arch: "arm64", MaxProcs: 4, ISA: "neon"}

	// A pre-SIMD file (no isa key, auto-backend entry) loads everywhere
	// on the same machine, but the auto entry — which would have run
	// vectorized on a vector host — only survives where the ISA matches.
	old := write("old.json", `{"os":"linux","arch":"amd64","maxprocs":4}`)
	if w, err := LoadFor(old, scalarFP); err != nil || w.Len() != 1 {
		t.Fatalf("pre-SIMD file on a scalar host: err=%v len=%d, want 1 entry", err, lenOf(w))
	}
	if w, err := LoadFor(old, avx2FP); err != nil || w.Len() != 0 {
		t.Fatalf("pre-SIMD file on an AVX2 host: err=%v len=%d, want 0 entries", err, lenOf(w))
	}

	// Same the other way: a SIMD-tuned file keeps its auto entry only
	// where the ISA matches.
	tuned := write("avx2.json", `{"os":"linux","arch":"amd64","maxprocs":4,"isa":"avx2"}`)
	if w, err := LoadFor(tuned, avx2FP); err != nil || w.Len() != 1 {
		t.Fatalf("AVX2 file on a matching host: err=%v len=%d, want 1 entry", err, lenOf(w))
	}
	if w, err := LoadFor(tuned, scalarFP); err != nil || w.Len() != 0 {
		t.Fatalf("AVX2 file on a scalar host: err=%v len=%d, want 0 entries", err, lenOf(w))
	}

	// Scalar-pinned entries are ISA-independent and survive the
	// mismatch; an explicit simd pin and a mixed stage vector do not.
	mixed := write("mixed.json", `{"os":"linux","arch":"amd64","maxprocs":4,"isa":"avx2"}`,
		`{"n":8,"type":"float64","plan":"split[small[4],small[4]]","ns_per_run":100,"backend":"scalar"}`,
		`{"n":9,"type":"float64","plan":"split[small[4],small[5]]","ns_per_run":110,"backend":"scalar","stage_backends":["scalar","scalar"]}`,
		`{"n":10,"type":"float64","plan":"split[small[5],small[5]]","ns_per_run":120,"backend":"simd"}`,
		`{"n":11,"type":"float64","plan":"split[small[5],small[6]]","ns_per_run":130,"backend":"scalar","stage_backends":["scalar","simd"]}`)
	w, err := LoadFor(mixed, scalarFP)
	if err != nil {
		t.Fatalf("mixed file rejected on a scalar host: %v", err)
	}
	if w.Len() != 2 {
		t.Fatalf("mixed file on a scalar host kept %d entries, want the 2 scalar-pinned ones", w.Len())
	}
	if _, _, ok := w.Lookup(8, Float64); !ok {
		t.Fatal("scalar-pinned entry dropped under ISA mismatch")
	}
	if _, _, ok := w.Lookup(9, Float64); !ok {
		t.Fatal("scalar-stage-pinned entry dropped under ISA mismatch")
	}
	if _, _, ok := w.Lookup(10, Float64); ok {
		t.Fatal("simd-pinned entry survived an ISA mismatch")
	}
	if _, _, ok := w.Lookup(11, Float64); ok {
		t.Fatal("mixed-stage entry survived an ISA mismatch")
	}
	// On the matching host everything loads.
	if w, err := LoadFor(mixed, avx2FP); err != nil || w.Len() != 4 {
		t.Fatalf("mixed file on its own host: err=%v len=%d, want 4 entries", err, lenOf(w))
	}

	// Across architectures even scalar pins are meaningless timings:
	// the file loads (it is structurally valid) but empty, both ways.
	if w, err := LoadFor(mixed, neonFP); err != nil || w.Len() != 0 {
		t.Fatalf("amd64 file on an arm64 host: err=%v len=%d, want 0 entries", err, lenOf(w))
	}
	neon := write("neon.json", `{"os":"linux","arch":"arm64","maxprocs":4,"isa":"neon"}`,
		`{"n":8,"type":"float64","plan":"split[small[4],small[4]]","ns_per_run":100,"backend":"scalar"}`)
	if w, err := LoadFor(neon, avx2FP); err != nil || w.Len() != 0 {
		t.Fatalf("arm64 file on an amd64 host: err=%v len=%d, want 0 entries", err, lenOf(w))
	}

	// OS or MaxProcs mismatches are a different machine outright: the
	// whole file still refuses to load.
	if _, err := LoadFor(old, Fingerprint{OS: "darwin", Arch: "amd64", MaxProcs: 4}); err == nil {
		t.Fatal("file accepted across an OS mismatch")
	}
	if _, err := LoadFor(old, Fingerprint{OS: "linux", Arch: "amd64", MaxProcs: 8}); err == nil {
		t.Fatal("file accepted across a MaxProcs mismatch")
	}

	// Structural validation is not relaxed by the leniency: a bad
	// stage-backend spelling fails the load even under an ISA mismatch.
	bad := write("bad.json", `{"os":"linux","arch":"amd64","maxprocs":4,"isa":"avx2"}`,
		`{"n":8,"type":"float64","plan":"split[small[4],small[4]]","ns_per_run":100,"backend":"scalar","stage_backends":["scalar","vliw"]}`)
	if _, err := LoadFor(bad, scalarFP); err == nil {
		t.Fatal("bad stage_backends spelling accepted under ISA mismatch")
	}
	if _, err := LoadFor(bad, avx2FP); err == nil {
		t.Fatal("bad stage_backends spelling accepted on the matching host")
	}

	// Saved files carry the current ISA and load back on the same host.
	saved := NewFor(avx2FP)
	if _, err := saved.Record(Float64, plan.MustParse("split[small[4],small[4]]"), 100); err != nil {
		t.Fatal(err)
	}
	savedPath := filepath.Join(dir, "saved.json")
	if err := saved.Save(savedPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(savedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"isa": "avx2"`) {
		t.Fatalf("saved file lost the ISA field:\n%s", data)
	}
	if _, err := LoadFor(savedPath, avx2FP); err != nil {
		t.Fatal(err)
	}
}

// lenOf reads a store's length for error messages without tripping on a
// nil store from a failed load.
func lenOf(w *Wisdom) int {
	if w == nil {
		return -1
	}
	return w.Len()
}

// Per-stage backend pins must survive a save/load cycle with their
// explicit spellings, and entries without them must come back with a
// nil stage vector.
func TestStageBackendsRoundTrip(t *testing.T) {
	p := plan.MustParse("split[small[4],small[8]]")
	w := New()
	tc := Tuned{
		Policy:        codelet.Policy{ILMinS: 2},
		StageBackends: []codelet.Backend{codelet.SIMDBackend, codelet.ScalarBackend},
	}
	if _, err := w.RecordFull(Float64, p, tc, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RecordFull(Float32, p, Tuned{}, 900); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "w.json")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"stage_backends"`) {
		t.Fatalf("saved file lost the stage backends:\n%s", data)
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range loaded.Entries() {
		got := e.Tuned()
		switch e.Type {
		case Float64:
			want := []codelet.Backend{codelet.SIMDBackend, codelet.ScalarBackend}
			if len(got.StageBackends) != len(want) {
				t.Fatalf("stage backends came back as %v, want %v", got.StageBackends, want)
			}
			for i := range want {
				if got.StageBackends[i] != want[i] {
					t.Fatalf("stage backends came back as %v, want %v", got.StageBackends, want)
				}
			}
		case Float32:
			if got.StageBackends != nil {
				t.Fatalf("pin-free entry decoded stage backends %v", got.StageBackends)
			}
		}
	}

	// An out-of-range stage backend has no spelling and must be
	// rejected at record time like the policy backend is.
	badTC := Tuned{StageBackends: []codelet.Backend{codelet.Backend(99)}}
	if _, err := w.RecordFull(Float64, plan.MustParse("split[small[2],small[2]]"), badTC, 50); err == nil {
		t.Fatal("RecordFull accepted an out-of-range stage backend")
	}
}
