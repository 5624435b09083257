// Package wisdom is the persistent plan registry of the library — the
// FFTW-wisdom analogue the measured-cost tuner feeds and the serving path
// loads.  A wisdom store maps (transform log-size, element type) to the
// fastest plan measured so far on one machine, identified by a runtime
// fingerprint; stores serialize to a small versioned JSON file so a
// tune-once/serve-forever deployment can carry its tuning results across
// process restarts.
//
// The file format (version 1):
//
//	{
//	  "version": 1,
//	  "fingerprint": {"os": "linux", "arch": "amd64", "maxprocs": 8},
//	  "entries": [
//	    {"n": 18, "type": "float64",
//	     "plan": "split[small[6],split[small[4],small[8]]]",
//	     "ns_per_run": 1234567.8,
//	     "il_min_s": 8}
//	  ]
//	}
//
// The optional "il_min_s" / "strided_only" / "il_fuse" / "backend"
// fields round-trip the kernel-variant selection policy (codelet.Policy)
// the plan was measured under; files without them load with the default
// policy, so pre-variant version-1 files remain valid.  Further
// optional per-entry fields: the out-of-core pair "segments" /
// "resident_budget" (the measured two-phase segmented form in the
// plan.ParseSeg grammar and the log2 resident-window budget it fits).  All are omitted when untuned, so
// older version-1 files keep loading.
//
// Version-1 files written while the engine had a looped block-kernel
// leaf tier may carry plans with leaves in (plan.MaxLeafLog,
// retiredLeafMax] and a "block_parts" field.  The decoder drops the
// unknown "block_parts" key, and LoadFor skips each such entry on its
// own (see parseRetiredPlan), so the rest of the file still loads.
// Files written while the engine had two parallel tiers may carry a
// "parallel_mode" field, and files written while it had a
// structure-of-arrays batch tier a "soa_min_batch" crossover; LoadFor
// checks both and drops them (see storedEntry), and Save never writes
// them.
//
// The optional "stage_backends" field records the tuner's per-stage
// backend pins (exec.Schedule.SetStageBackends): one spelling per
// compiled stage of the entry's plan, in schedule order.  Absent (the
// common case) means the uniform "backend" field governs every stage.
//
// The fingerprint carries an optional "isa" field naming the vector
// extensions the measuring process detected (codelet backend dispatch;
// "avx2", "neon", or "" on scalar-only hosts and omitted from the
// JSON).  Backend choices measured with a vector tier live do not
// transfer to a machine without it, but that is a per-entry property,
// not a per-file one: LoadFor on a host whose ISA differs from the
// file's keeps the scalar-pinned entries (their kernels are identical
// everywhere) and drops every entry whose backend — uniform or
// per-stage — could resolve to the vector tier.  A file from a
// different architecture altogether loads as an empty store: no
// measured timing transfers across instruction sets, but the file is
// not an error — retuning simply starts fresh.  Pre-SIMD files (no
// "isa" key) keep loading unchanged on scalar hosts, where the absent
// field matches the empty feature string.
//
// Every plan string must parse in the WHT package grammar, validate, and
// match its entry's log-size; Load rejects files that fail any of these
// checks, carry an unknown version, or were measured under a different
// OS or GOMAXPROCS shape (measured timings do not transfer across
// machines or worker counts).
package wisdom

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/codelet"
	"repro/internal/isa"
	"repro/internal/plan"
)

// FormatVersion is the serialization version this package reads and
// writes.
const FormatVersion = 1

// ErrCorrupt is the sentinel every *CorruptError matches through
// errors.Is: the file's content is damaged — truncated JSON, malformed
// bytes, garbage after the document, or a structurally invalid entry.
// It deliberately excludes version and fingerprint mismatches: those
// files are intact, just foreign, and a serving daemon should leave
// them on disk (another build may want them) where a corrupt file is
// quarantined.
var ErrCorrupt = errors.New("wisdom: corrupt file")

// ErrForeign is the sentinel the plain errors of intact files written
// elsewhere match through errors.Is: a different format version, OS or
// GOMAXPROCS shape.
var ErrForeign = errors.New("wisdom: foreign file")

// CorruptError reports a damaged wisdom file with the corruption shape
// spelled out, so operators (and the daemon's quarantine log line) can
// tell an interrupted write from bit rot from a buggy editor.
type CorruptError struct {
	Path   string // the file
	Reason string // "truncated", "malformed JSON", "trailing garbage", "invalid entry"
	Err    error  // underlying decode or validation error, when one exists
}

func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("wisdom: corrupt file %s: %s", e.Path, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is matches ErrCorrupt, so errors.Is(err, ErrCorrupt) identifies every
// corruption shape without destructuring.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// QuarantineSuffix is appended to a corrupt wisdom file's name by
// Quarantine.
const QuarantineSuffix = ".quarantined"

// Quarantine renames a corrupt wisdom file out of the load path
// (path -> path + ".quarantined", replacing any previous quarantine)
// and returns the new name.  The daemon calls it when Load reports
// ErrCorrupt, so the next boot does not trip over the same bytes while
// the evidence stays on disk for inspection; retuning then starts
// fresh and the next Save writes a clean file at the original path.
func Quarantine(path string) (string, error) {
	q := path + QuarantineSuffix
	if err := os.Rename(path, q); err != nil {
		return "", fmt.Errorf("wisdom: quarantine: %w", err)
	}
	return q, nil
}

// Element types an entry can be measured under.
const (
	Float64 = "float64"
	Float32 = "float32"
)

// Fingerprint identifies the machine and runtime shape a measurement was
// taken on.  Measured plan timings are only meaningful on a matching
// fingerprint.
type Fingerprint struct {
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	MaxProcs int    `json:"maxprocs"`

	// ISA names the detected vector extensions backend dispatch can use
	// ("avx2", or "" on scalar-only hosts).  Backend choices measured
	// with SIMD live are meaningless where the ISA differs, so it is
	// part of the identity LoadFor matches.  Pre-SIMD files omit the
	// field; it decodes as "" and matches scalar-only hosts.
	ISA string `json:"isa,omitempty"`
}

// CurrentFingerprint returns the fingerprint of the running process.
func CurrentFingerprint() Fingerprint {
	return Fingerprint{
		OS: runtime.GOOS, Arch: runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
		ISA:      isa.Features(),
	}
}

// Entry is one tuned-plan record.  The optional variant-policy fields
// round-trip the kernel-variant selection the tuner measured fastest
// alongside the plan; absent fields (the common case) mean the default
// policy, so version-1 files written before variants existed load
// unchanged.
type Entry struct {
	N        int     `json:"n"`          // transform log-size
	Type     string  `json:"type"`       // element type: "float64" or "float32"
	Plan     string  `json:"plan"`       // plan in the WHT package grammar
	NsPerRun float64 `json:"ns_per_run"` // measured median latency

	// Variant-selection policy (codelet.Policy) the measurement was taken
	// under and the serving path should compile with.
	ILMinS      int  `json:"il_min_s,omitempty"`
	StridedOnly bool `json:"strided_only,omitempty"`
	ILFuse      bool `json:"il_fuse,omitempty"`

	// Backend is the codelet backend the measurement was taken under:
	// "" or "auto" (absent) resolves per host, "scalar" pins the portable
	// kernels, "simd" requests the vector tier.  The spellings are
	// codelet.ParseBackend's.
	Backend string `json:"backend,omitempty"`

	// StageBackends records per-stage backend pins: one spelling per
	// compiled stage of the plan (in schedule order, under this entry's
	// policy), applied through exec.Schedule.SetStageBackends.  Absent
	// means every stage runs the uniform Backend field.
	StageBackends []string `json:"stage_backends,omitempty"`

	// Segments records the measured-fastest two-phase segmented form for
	// out-of-core execution of this size, in the plan.ParseSeg grammar
	// ("phase[...]").  Absent means no out-of-core tuning was run.  The
	// segmented form is an independent execution tier: it need not
	// factor the entry's Plan — its flat twin is bitwise-equal to any
	// plan of the same size — so it rides alongside the in-RAM record
	// rather than replacing it.
	Segments string `json:"segments,omitempty"`

	// ResidentBudget is the log2 resident-window budget the Segments
	// form was measured under (its MaxLocalLog fits inside it).  Present
	// exactly when Segments is.
	ResidentBudget int `json:"resident_budget,omitempty"`
}

// Policy returns the variant-selection policy recorded with the entry.
// Entries are validated on the way in, so the backend spelling parses;
// an absent field is AutoBackend.
func (e Entry) Policy() codelet.Policy {
	b, _ := codelet.ParseBackend(e.Backend)
	return codelet.Policy{ILMinS: e.ILMinS, StridedOnly: e.StridedOnly, ILFuse: e.ILFuse, Backend: b}
}

// Tuned returns every tuning knob recorded with the entry as a Tuned
// carrier.  Entries are validated on the way in (Record* and LoadFor),
// so the backend spellings decode without error.
func (e Entry) Tuned() Tuned {
	return Tuned{
		Policy:        e.Policy(),
		StageBackends: decodeStageBackends(e.StageBackends),
	}
}

// Tuned bundles the tuning knobs beyond the plan itself that a
// measurement was taken under: the kernel-variant policy and the
// per-stage backend pins (nil when the uniform policy backend governs).
type Tuned struct {
	Policy        codelet.Policy
	StageBackends []codelet.Backend
}

// encodeStageBackends serializes a per-stage backend vector.  Every
// spelling is explicit (including "auto") so a recorded vector always
// has one readable entry per stage; nil/empty encodes to nil so untuned
// entries omit the field.
func encodeStageBackends(bs []codelet.Backend) []string {
	if len(bs) == 0 {
		return nil
	}
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.String()
	}
	return out
}

// decodeStageBackends converts the serialized spellings back to
// backends.  Spellings must already be validated (validStageBackends).
func decodeStageBackends(ss []string) []codelet.Backend {
	if len(ss) == 0 {
		return nil
	}
	out := make([]codelet.Backend, len(ss))
	for i, s := range ss {
		out[i], _ = codelet.ParseBackend(s)
	}
	return out
}

// validStageBackends accepts vectors whose every spelling parses and,
// when present, that hold one pin per compiled stage of p — one per
// leaf, under every policy.
func validStageBackends(ss []string, p *plan.Node) error {
	if len(ss) > 0 && len(ss) != p.CountLeaves() {
		return fmt.Errorf("wisdom: %d stage backends for a plan of %d stages", len(ss), p.CountLeaves())
	}
	for i, s := range ss {
		if _, ok := codelet.ParseBackend(s); !ok {
			return fmt.Errorf("wisdom: stage backend %d: unknown backend %q", i, s)
		}
	}
	return nil
}

// encodeBackend serializes a policy backend, omitting the default:
// AutoBackend encodes as "" so untuned entries skip the field and
// pre-SIMD files stay byte-identical on re-save.
func encodeBackend(b codelet.Backend) string {
	if b == codelet.AutoBackend {
		return ""
	}
	return b.String()
}

// validBackend accepts the spellings codelet.ParseBackend does.
func validBackend(s string) error {
	if _, ok := codelet.ParseBackend(s); !ok {
		return fmt.Errorf("wisdom: unknown backend %q", s)
	}
	return nil
}

// storedEntry is an Entry as a version-1 file may hold it.  Files
// written while the engine had a second parallel tier carry a
// "parallel_mode" pin per entry, and files written while it had a
// structure-of-arrays batch tier an integer "soa_min_batch" crossover.
// Neither tier exists any more, so LoadFor ignores both; it still
// rejects a spelling or a type no healthy Save ever wrote.
type storedEntry struct {
	Entry
	ParallelMode string `json:"parallel_mode"`
	SoAMinBatch  int    `json:"soa_min_batch"`
}

// validParallelMode accepts the spellings Save once wrote for the
// retired "parallel_mode" field.
func validParallelMode(s string) error {
	switch s {
	case "", "auto", "barrier", "pipelined":
		return nil
	}
	return fmt.Errorf("wisdom: unknown parallel mode %q", s)
}

// validSegments checks an entry's out-of-core fields: an absent form
// must carry no budget, and a present one must parse in the segmented
// grammar, validate, match the entry's size, and fit its recorded
// resident budget.
func validSegments(e Entry) error {
	if e.Segments == "" {
		if e.ResidentBudget != 0 {
			return fmt.Errorf("wisdom: resident_budget %d without a segmented form", e.ResidentBudget)
		}
		return nil
	}
	g, err := plan.ParseSeg(e.Segments)
	if err != nil {
		return fmt.Errorf("wisdom: %w", err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("wisdom: %w", err)
	}
	if g.Log2Size() != e.N {
		return fmt.Errorf("wisdom: segmented form size 2^%d does not match n=%d", g.Log2Size(), e.N)
	}
	if e.ResidentBudget < 1 || g.MaxLocalLog() > e.ResidentBudget {
		return fmt.Errorf("wisdom: segmented form's local working set 2^%d exceeds budget 2^%d", g.MaxLocalLog(), e.ResidentBudget)
	}
	return nil
}

// retiredLeafMax is the largest leaf format version 1 admitted: leaves
// in (plan.MaxLeafLog, retiredLeafMax] ran looped block kernels, a tier
// the engine no longer has.
const retiredLeafMax = 14

// parseRetiredPlan reports whether s, which plan.Parse rejected, is a
// plan that was valid under format version 1 because of leaves in
// (plan.MaxLeafLog, retiredLeafMax].  It returns the plan with each such
// leaf replaced by split[small[MaxLeafLog],small[m-MaxLeafLog]], a
// stand-in of the same size, so the entry's other fields are validated
// exactly as for a current plan.
func parseRetiredPlan(s string) (*plan.Node, bool) {
	var b strings.Builder
	retired := false
	for {
		i := strings.Index(s, "small")
		if i < 0 {
			break
		}
		b.WriteString(s[:i])
		s = s[i+len("small"):]
		m, rest, ok := leafSize(s)
		if !ok || m <= plan.MaxLeafLog || m > retiredLeafMax {
			b.WriteString("small")
			continue
		}
		fmt.Fprintf(&b, "split[small[%d],small[%d]]", plan.MaxLeafLog, m-plan.MaxLeafLog)
		s, retired = rest, true
	}
	b.WriteString(s)
	if !retired {
		return nil, false
	}
	p, err := plan.Parse(b.String())
	return p, err == nil
}

// leafSize reads the "[ m ]" that follows "small" in the plan grammar
// (whitespace allowed between tokens, as plan.Parse allows it) and
// returns m and the input after the closing bracket.
func leafSize(s string) (m int, rest string, ok bool) {
	const space = " \t\n\r"
	s = strings.TrimLeft(s, space)
	if !strings.HasPrefix(s, "[") {
		return 0, "", false
	}
	s = strings.TrimLeft(s[1:], space)
	j := 0
	for j < len(s) && s[j] >= '0' && s[j] <= '9' {
		j++
	}
	m, err := strconv.Atoi(s[:j])
	if err != nil {
		return 0, "", false
	}
	s = strings.TrimLeft(s[j:], space)
	if !strings.HasPrefix(s, "]") {
		return 0, "", false
	}
	return m, s[1:], true
}

// Key identifies an entry: one tuned plan per (size, element type).
type Key struct {
	N    int
	Type string
}

// Wisdom is an in-memory store of tuned plans for one fingerprint.  It is
// safe for concurrent use.
type Wisdom struct {
	mu      sync.Mutex
	fp      Fingerprint
	entries map[Key]Entry
}

// New returns an empty store fingerprinted for the running process.
func New() *Wisdom { return NewFor(CurrentFingerprint()) }

// NewFor returns an empty store for an explicit fingerprint (tests,
// cross-machine tooling).
func NewFor(fp Fingerprint) *Wisdom {
	return &Wisdom{fp: fp, entries: make(map[Key]Entry)}
}

// Fingerprint returns the store's machine fingerprint.
func (w *Wisdom) Fingerprint() Fingerprint { return w.fp }

// Len returns the number of entries.
func (w *Wisdom) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// Record stores a measured plan under the default variant policy; see
// RecordPolicy.
func (w *Wisdom) Record(typ string, p *plan.Node, nsPerRun float64) (bool, error) {
	return w.RecordPolicy(typ, p, codelet.DefaultPolicy(), nsPerRun)
}

// RecordPolicy stores a measured plan together with the variant-selection
// policy it was measured under; see RecordFull.
func (w *Wisdom) RecordPolicy(typ string, p *plan.Node, pol codelet.Policy, nsPerRun float64) (bool, error) {
	return w.RecordFull(typ, p, Tuned{Policy: pol}, nsPerRun)
}

// RecordFull stores a measured plan together with every tuning knob it
// was measured under (see Tuned), keeping the faster of the new and any
// existing entry for the same (size, type) key.  It reports whether the
// new measurement became (or stayed) the stored one.
func (w *Wisdom) RecordFull(typ string, p *plan.Node, tc Tuned, nsPerRun float64) (bool, error) {
	if err := validType(typ); err != nil {
		return false, err
	}
	if p == nil {
		return false, fmt.Errorf("wisdom: nil plan")
	}
	if err := p.Validate(); err != nil {
		return false, fmt.Errorf("wisdom: %w", err)
	}
	if nsPerRun <= 0 {
		return false, fmt.Errorf("wisdom: non-positive measurement %g", nsPerRun)
	}
	// A Backend outside the declared constants has no spelling and would
	// poison the file on save.
	if err := validBackend(encodeBackend(tc.Policy.Backend)); err != nil {
		return false, err
	}
	sb := encodeStageBackends(tc.StageBackends)
	if err := validStageBackends(sb, p); err != nil {
		return false, err
	}
	e := Entry{
		N: p.Log2Size(), Type: typ, Plan: p.String(), NsPerRun: nsPerRun,
		ILMinS: tc.Policy.ILMinS, StridedOnly: tc.Policy.StridedOnly, ILFuse: tc.Policy.ILFuse,
		Backend:       encodeBackend(tc.Policy.Backend),
		StageBackends: sb,
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.keepFaster(e), nil
}

// keepFaster installs e unless a strictly faster entry already holds its
// key.  A recorded segmented form survives the in-RAM entry being
// displaced: the out-of-core tier is tuned on an independent axis, so a
// faster flat plan must not silently discard it.  Callers hold w.mu.
func (w *Wisdom) keepFaster(e Entry) bool {
	k := Key{N: e.N, Type: e.Type}
	if old, ok := w.entries[k]; ok {
		if old.NsPerRun <= e.NsPerRun {
			return false
		}
		if e.Segments == "" && old.Segments != "" {
			e.Segments, e.ResidentBudget = old.Segments, old.ResidentBudget
		}
	}
	w.entries[k] = e
	return true
}

// RecordSegments attaches a measured out-of-core segmented form to the
// entry for (size, typ), overwriting any previous form — the segmented
// sweep compares its own candidates, so the latest recording is the
// measured winner.  When no in-RAM entry exists yet, one is created
// from the form's flat twin with the provided measurement, so a
// segments-only tuning run still persists.
func (w *Wisdom) RecordSegments(typ string, g *plan.SegNode, residentLog int, nsPerRun float64) error {
	if err := validType(typ); err != nil {
		return err
	}
	if g == nil {
		return fmt.Errorf("wisdom: nil segmented form")
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("wisdom: %w", err)
	}
	if residentLog < 1 || g.MaxLocalLog() > residentLog {
		return fmt.Errorf("wisdom: segmented form's local working set 2^%d exceeds budget 2^%d", g.MaxLocalLog(), residentLog)
	}
	if nsPerRun <= 0 {
		return fmt.Errorf("wisdom: non-positive measurement %g", nsPerRun)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	k := Key{N: g.Log2Size(), Type: typ}
	e, ok := w.entries[k]
	if !ok {
		flat := g.Flatten()
		e = Entry{N: flat.Log2Size(), Type: typ, Plan: flat.String(), NsPerRun: nsPerRun}
	}
	e.Segments = g.String()
	e.ResidentBudget = residentLog
	w.entries[k] = e
	return nil
}

// LookupSegments returns the recorded out-of-core segmented form and
// its resident budget for (n, typ).
func (w *Wisdom) LookupSegments(n int, typ string) (*plan.SegNode, int, bool) {
	e, ok := w.lookupEntry(n, typ)
	if !ok || e.Segments == "" {
		return nil, 0, false
	}
	// Entries are validated on the way in, so the stored string parses.
	return plan.MustParseSeg(e.Segments), e.ResidentBudget, true
}

// Lookup returns the stored plan and measured ns/run for (n, typ).
func (w *Wisdom) Lookup(n int, typ string) (*plan.Node, float64, bool) {
	e, ok := w.lookupEntry(n, typ)
	if !ok {
		return nil, 0, false
	}
	// Entries are validated on the way in, so the stored string parses.
	return plan.MustParse(e.Plan), e.NsPerRun, true
}

// LookupPolicy is Lookup returning the recorded variant policy as well.
func (w *Wisdom) LookupPolicy(n int, typ string) (*plan.Node, codelet.Policy, float64, bool) {
	e, ok := w.lookupEntry(n, typ)
	if !ok {
		return nil, codelet.Policy{}, 0, false
	}
	return plan.MustParse(e.Plan), e.Policy(), e.NsPerRun, true
}

func (w *Wisdom) lookupEntry(n int, typ string) (Entry, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[Key{N: n, Type: typ}]
	return e, ok
}

// Entries returns the records sorted by (size, type) — a deterministic
// order for serialization and display.
func (w *Wisdom) Entries() []Entry {
	w.mu.Lock()
	out := make([]Entry, 0, len(w.entries))
	for _, e := range w.entries {
		out = append(out, e)
	}
	w.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].N != out[b].N {
			return out[a].N < out[b].N
		}
		return out[a].Type < out[b].Type
	})
	return out
}

// Merge folds other into w, keeping the faster entry per key.  The
// fingerprints must match: timings from a different machine shape are not
// comparable.
func (w *Wisdom) Merge(other *Wisdom) error {
	if other == nil {
		return nil
	}
	if other.fp != w.fp {
		return fmt.Errorf("wisdom: cannot merge fingerprint %+v into %+v", other.fp, w.fp)
	}
	for _, e := range other.Entries() {
		w.mu.Lock()
		w.keepFaster(e)
		w.mu.Unlock()
	}
	return nil
}

// file is the serialized form: Save writes file[Entry], LoadFor reads
// file[storedEntry].
type file[E any] struct {
	Version     int         `json:"version"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Entries     []E         `json:"entries"`
}

// Save writes the store to path as versioned JSON (atomically: a temp
// file in the same directory renamed over the target).
func (w *Wisdom) Save(path string) error {
	f := file[Entry]{Version: FormatVersion, Fingerprint: w.fp, Entries: w.Entries()}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("wisdom: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".wisdom-*")
	if err != nil {
		return fmt.Errorf("wisdom: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wisdom: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wisdom: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wisdom: %w", err)
	}
	return nil
}

// Load reads a wisdom file for the running process: LoadFor with the
// current fingerprint.
func Load(path string) (*Wisdom, error) {
	return LoadFor(path, CurrentFingerprint())
}

// LoadFor reads and validates a wisdom file, rejecting unknown versions,
// files measured under a different OS or GOMAXPROCS shape, and any
// structurally invalid entry (a plan that fails to parse or validate, a
// size mismatch, an unknown element type, a bad backend spelling, or a
// non-positive measurement).  Duplicate keys in the file fold to the
// faster entry.
//
// Damage is typed: truncated documents, malformed JSON, bytes trailing
// the document, and structurally invalid entries all return a
// *CorruptError matching ErrCorrupt through errors.Is — the signal the
// serving daemon quarantines on.  Version and fingerprint mismatches
// return plain errors matching ErrForeign: those files are intact,
// merely foreign.
//
// ISA and architecture differences are per-entry, not per-file: on a
// host whose vector ISA differs from the file's, entries that are
// scalar-pinned everywhere (uniform backend "scalar" and, if present,
// every per-stage backend "scalar") still load — the scalar kernels are
// identical on every host — while entries whose backend could resolve
// to the measuring host's vector tier are silently dropped.  A file
// from a different architecture loads as an empty store: no timing
// transfers across instruction sets, so every entry is dropped, but
// structural validation still runs — a corrupt file is an error, a
// foreign one is merely useless.
//
// Entries whose plan has a leaf in (plan.MaxLeafLog, retiredLeafMax] —
// legal in version 1 while the block-kernel tier existed — are dropped
// the same way, one by one: the file is intact, the entry merely names
// kernels this engine no longer has.  Leaves outside [1,
// retiredLeafMax] and plans above plan.MaxPlanLog stay corrupt.
func LoadFor(path string, fp Fingerprint) (*Wisdom, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wisdom: %w", err)
	}
	// Decode through a Decoder rather than Unmarshal so the three
	// corruption shapes come back distinguishable: a truncated document
	// (interrupted write), malformed bytes (bit rot), and bytes after
	// the document (a partial overwrite or concatenated writes — content
	// Unmarshal would reject with the same opaque SyntaxError).
	dec := json.NewDecoder(bytes.NewReader(data))
	var f file[storedEntry]
	if err := dec.Decode(&f); err != nil {
		reason := "malformed JSON"
		var syn *json.SyntaxError
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) ||
			(errors.As(err, &syn) && syn.Offset >= int64(len(data))) {
			reason = "truncated"
		}
		return nil, &CorruptError{Path: path, Reason: reason, Err: err}
	}
	if tok, terr := dec.Token(); terr != io.EOF {
		if terr == nil {
			terr = fmt.Errorf("unexpected %v after document", tok)
		}
		return nil, &CorruptError{Path: path, Reason: "trailing garbage", Err: terr}
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("%w: %s has format version %d, want %d", ErrForeign, path, f.Version, FormatVersion)
	}
	if f.Fingerprint.OS != fp.OS || f.Fingerprint.MaxProcs != fp.MaxProcs {
		return nil, fmt.Errorf("%w: %s was measured on %+v, this process is %+v", ErrForeign, path, f.Fingerprint, fp)
	}
	sameArch := f.Fingerprint.Arch == fp.Arch
	sameISA := sameArch && f.Fingerprint.ISA == fp.ISA
	w := NewFor(fp)
	for i, se := range f.Entries {
		e := se.Entry
		if err := validType(e.Type); err != nil {
			return nil, corruptEntry(path, i, err)
		}
		if e.NsPerRun <= 0 {
			return nil, corruptEntry(path, i, fmt.Errorf("non-positive measurement %g", e.NsPerRun))
		}
		p, err := plan.Parse(e.Plan)
		retired := false
		if err != nil {
			if p, retired = parseRetiredPlan(e.Plan); !retired {
				return nil, corruptEntry(path, i, err)
			}
		}
		if err := p.Validate(); err != nil {
			return nil, corruptEntry(path, i, err)
		}
		if p.Log2Size() != e.N {
			return nil, corruptEntry(path, i, fmt.Errorf("plan size 2^%d does not match n=%d", p.Log2Size(), e.N))
		}
		if err := validParallelMode(se.ParallelMode); err != nil {
			return nil, corruptEntry(path, i, err)
		}
		if err := validBackend(e.Backend); err != nil {
			return nil, corruptEntry(path, i, err)
		}
		if err := validStageBackends(e.StageBackends, p); err != nil {
			return nil, corruptEntry(path, i, err)
		}
		if err := validSegments(e); err != nil {
			return nil, corruptEntry(path, i, err)
		}
		if retired || !sameArch || (!sameISA && !entryScalarPinned(e)) {
			// Per-entry rejection of an entry that is structurally fine:
			// a retired block-leaf plan has no kernels to run on, and a
			// cross-arch timing or a backend choice for a vector tier the
			// host lacks (or lacks identically) does not transfer.
			continue
		}
		w.mu.Lock()
		w.keepFaster(e)
		w.mu.Unlock()
	}
	return w, nil
}

// corruptEntry wraps a structural per-entry failure as a CorruptError:
// the document parsed but its content cannot have been written by a
// healthy Save, so the daemon treats it like any other damaged file.
func corruptEntry(path string, i int, err error) error {
	return &CorruptError{Path: path, Reason: fmt.Sprintf("invalid entry %d", i), Err: err}
}

// entryScalarPinned reports whether every backend the entry records —
// the uniform policy field and any per-stage pins — is explicitly
// scalar, making its measurement ISA-independent.  Auto counts as not
// pinned: an auto entry measured on a vector host ran the vector tier.
func entryScalarPinned(e Entry) bool {
	if b, _ := codelet.ParseBackend(e.Backend); b != codelet.ScalarBackend {
		return false
	}
	for _, s := range e.StageBackends {
		if b, _ := codelet.ParseBackend(s); b != codelet.ScalarBackend {
			return false
		}
	}
	return true
}

func validType(typ string) error {
	if typ != Float64 && typ != Float32 {
		return fmt.Errorf("wisdom: unknown element type %q", typ)
	}
	return nil
}
