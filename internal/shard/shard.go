// Package shard implements the on-disk BufStore backing out-of-core
// segmented transforms: two full-length planes of the logical vector,
// each striped across fixed-size files in a directory, memory-mapped
// where the platform allows and accessed through plain file I/O where
// it does not.  The segmented executor reads and writes the primary
// plane only, in gathered rows; the auxiliary plane is created as a
// sparse file and stays unwritten unless a caller uses WriteAux, so the
// on-disk format is unchanged and older stores keep opening.
//
// The store is deliberately byte-level — it knows element size, not
// element type — so one implementation serves both f64 and f32
// transforms; the typed view in typed.go adapts it to exec.BufStore[T].
//
// Durability contract: a store directory is either sealed or open.
// Create writes an "open" manifest before any data lands; Close
// checksums every stripe of both planes, then atomically rewrites the
// manifest as "sealed".  Open refuses anything but a sealed, fully
// intact directory — a crash mid-run (manifest still "open"), a
// truncated stripe, or a scrambled stripe all surface as a clean
// *CorruptError on reopen, never as silently wrong transform output.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// metaFile is the manifest name inside a store directory.
const metaFile = "meta.json"

// Manifest states.
const (
	stateOpen   = "open"
	stateSealed = "sealed"
)

// DefaultStripeLog is the default log2 stripe size in bytes (4 MiB):
// large enough that contiguous windows and gathered rows rarely
// straddle a boundary, small enough that a store stripes across several
// files at the sizes out-of-core runs care about.
const DefaultStripeLog = 22

// CorruptError reports a store directory that failed integrity
// verification on Open: an unsealed (crashed) manifest, a missing or
// missized stripe, or a stripe whose content no longer matches its
// sealed checksum.
type CorruptError struct {
	Dir    string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("shard: store %s is corrupt: %s", e.Dir, e.Reason)
}

// meta is the JSON manifest of a store directory.
type meta struct {
	Version   int    `json:"version"`
	ElemSize  int    `json:"elem_size"`
	Elems     int    `json:"elems"`
	StripeLog int    `json:"stripe_log"` // log2 stripe size in bytes
	Stripes   int    `json:"stripes"`    // per plane
	Primary   int    `json:"primary"`    // plane index holding the result
	State     string `json:"state"`
	// Checksums holds the FNV-1a hash of every stripe at seal time,
	// indexed [plane][stripe].
	Checksums [2][]uint64 `json:"checksums,omitempty"`
}

// stripe is one mapped (or plainly opened) file of a plane.
type stripe struct {
	f *os.File
	m []byte // mmap'd content; nil when the platform fallback is active
}

func (s *stripe) readAt(dst []byte, off int64) error {
	if s.m != nil {
		copy(dst, s.m[off:off+int64(len(dst))])
		return nil
	}
	_, err := s.f.ReadAt(dst, off)
	return err
}

func (s *stripe) writeAt(src []byte, off int64) error {
	if s.m != nil {
		copy(s.m[off:off+int64(len(src))], src)
		return nil
	}
	_, err := s.f.WriteAt(src, off)
	return err
}

func (s *stripe) close() error {
	var err error
	if s.m != nil {
		err = unmapStripe(s.m)
		s.m = nil
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Store is a two-plane striped file store; see the package comment for
// the durability contract.  Concurrent Read/Write/WriteAux calls on
// disjoint ranges are safe (they address disjoint bytes of mapped or
// pwrite-accessed files); Flip, Seal, and Close are not concurrent with
// anything.
type Store struct {
	dir         string
	elemSize    int
	elems       int
	stripeLog   int
	stripeBytes int64
	planes      [2][]stripe
	primary     int
	sealed      bool
}

// Options tunes store creation.
type Options struct {
	// StripeLog is the log2 stripe size in bytes (0 selects
	// DefaultStripeLog).  Transform sizes smaller than one stripe get a
	// single stripe per plane.
	StripeLog int
}

func stripeName(plane, idx int) string {
	return fmt.Sprintf("p%d-s%04d.bin", plane, idx)
}

// Create initialises dir (which must be empty or absent) as a store of
// elems elements of elemSize bytes, writes the "open" manifest, and
// returns the store ready for writing.  The planes are zero-filled.
func Create(dir string, elems, elemSize int, opts Options) (*Store, error) {
	if elems <= 0 || elemSize <= 0 {
		return nil, fmt.Errorf("shard: invalid store shape %d x %d bytes", elems, elemSize)
	}
	stripeLog := opts.StripeLog
	if stripeLog == 0 {
		stripeLog = DefaultStripeLog
	}
	if stripeLog < 6 || stripeLog > 34 {
		return nil, fmt.Errorf("shard: stripe log %d out of range", stripeLog)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if ents, err := os.ReadDir(dir); err != nil {
		return nil, err
	} else if len(ents) > 0 {
		return nil, fmt.Errorf("shard: refusing to create store in non-empty directory %s", dir)
	}

	planeBytes := int64(elems) * int64(elemSize)
	stripeBytes := int64(1) << uint(stripeLog)
	stripes := int((planeBytes + stripeBytes - 1) / stripeBytes)
	if stripes == 0 {
		stripes = 1
	}

	st := &Store{
		dir:         dir,
		elemSize:    elemSize,
		elems:       elems,
		stripeLog:   stripeLog,
		stripeBytes: stripeBytes,
	}
	m := meta{
		Version:   1,
		ElemSize:  elemSize,
		Elems:     elems,
		StripeLog: stripeLog,
		Stripes:   stripes,
		State:     stateOpen,
	}
	if err := writeMeta(dir, &m); err != nil {
		return nil, err
	}
	for p := 0; p < 2; p++ {
		for i := 0; i < stripes; i++ {
			size := st.stripeSize(i, planeBytes)
			f, err := os.OpenFile(filepath.Join(dir, stripeName(p, i)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				st.closeFiles()
				return nil, err
			}
			if err := f.Truncate(size); err != nil {
				f.Close()
				st.closeFiles()
				return nil, err
			}
			mm, err := mapStripe(f, int(size))
			if err != nil {
				f.Close()
				st.closeFiles()
				return nil, err
			}
			st.planes[p] = append(st.planes[p], stripe{f: f, m: mm})
		}
	}
	return st, nil
}

// Open loads a sealed store directory, verifying the manifest state and
// every stripe's size and checksum before returning.  Any integrity
// failure returns a *CorruptError.  The store is re-marked "open" for
// the duration of use; Close reseals it.
func Open(dir string) (*Store, error) {
	m, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("shard: unsupported store version %d", m.Version)
	}
	if m.State != stateSealed {
		return nil, &CorruptError{Dir: dir, Reason: fmt.Sprintf("manifest state %q (crashed before seal?)", m.State)}
	}
	if m.ElemSize <= 0 || m.Elems <= 0 || m.Stripes <= 0 || m.StripeLog < 6 || m.StripeLog > 34 || m.Primary < 0 || m.Primary > 1 {
		return nil, &CorruptError{Dir: dir, Reason: "manifest fields out of range"}
	}
	st := &Store{
		dir:         dir,
		elemSize:    m.ElemSize,
		elems:       m.Elems,
		stripeLog:   m.StripeLog,
		stripeBytes: int64(1) << uint(m.StripeLog),
		primary:     m.Primary,
	}
	planeBytes := int64(m.Elems) * int64(m.ElemSize)
	for p := 0; p < 2; p++ {
		if len(m.Checksums[p]) != m.Stripes {
			st.closeFiles()
			return nil, &CorruptError{Dir: dir, Reason: fmt.Sprintf("plane %d has %d checksums for %d stripes", p, len(m.Checksums[p]), m.Stripes)}
		}
		for i := 0; i < m.Stripes; i++ {
			want := st.stripeSize(i, planeBytes)
			path := filepath.Join(dir, stripeName(p, i))
			fi, err := os.Stat(path)
			if err != nil {
				st.closeFiles()
				return nil, &CorruptError{Dir: dir, Reason: fmt.Sprintf("stripe %s missing: %v", stripeName(p, i), err)}
			}
			if fi.Size() != want {
				st.closeFiles()
				return nil, &CorruptError{Dir: dir, Reason: fmt.Sprintf("stripe %s is %d bytes, want %d", stripeName(p, i), fi.Size(), want)}
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				st.closeFiles()
				return nil, err
			}
			mm, err := mapStripe(f, int(want))
			if err != nil {
				f.Close()
				st.closeFiles()
				return nil, err
			}
			sp := stripe{f: f, m: mm}
			if got := checksumStripe(&sp, want); got != m.Checksums[p][i] {
				sp.close()
				st.closeFiles()
				return nil, &CorruptError{Dir: dir, Reason: fmt.Sprintf("stripe %s checksum mismatch", stripeName(p, i))}
			}
			st.planes[p] = append(st.planes[p], sp)
		}
	}
	// In use again: a crash from here on must invalidate the seal.
	m.State = stateOpen
	m.Checksums = [2][]uint64{}
	if err := writeMeta(dir, m); err != nil {
		st.closeFiles()
		return nil, err
	}
	return st, nil
}

// Len returns the logical vector length in elements.
func (st *Store) Len() int { return st.elems }

// ElemSize returns the element width in bytes.
func (st *Store) ElemSize() int { return st.elemSize }

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// Stripes returns the per-plane stripe count.
func (st *Store) Stripes() int { return len(st.planes[0]) }

// StripeLog returns the log2 stripe size in bytes.
func (st *Store) StripeLog() int { return st.stripeLog }

// stripeSize returns the byte size of stripe i of a plane.
func (st *Store) stripeSize(i int, planeBytes int64) int64 {
	off := int64(i) * st.stripeBytes
	if rem := planeBytes - off; rem < st.stripeBytes {
		return rem
	}
	return st.stripeBytes
}

func (st *Store) checkRange(n, off int) error {
	if off < 0 || n < 0 || off+n > st.elems {
		return fmt.Errorf("shard: access [%d, %d) outside vector of %d elements", off, off+n, st.elems)
	}
	return nil
}

// planeIO walks the stripes of plane p covering the element range
// [off, off+n) and invokes fn for each (stripe, byte offset, span)
// piece; runs that straddle a stripe boundary split transparently.
func (st *Store) planeIO(p, off int, b []byte, fn func(s *stripe, stripeOff int64, chunk []byte) error) error {
	byteOff := int64(off) * int64(st.elemSize)
	for len(b) > 0 {
		idx := int(byteOff >> uint(st.stripeLog))
		inOff := byteOff & (st.stripeBytes - 1)
		span := st.stripeBytes - inOff
		if span > int64(len(b)) {
			span = int64(len(b))
		}
		if err := fn(&st.planes[p][idx], inOff, b[:span]); err != nil {
			return err
		}
		b = b[span:]
		byteOff += span
	}
	return nil
}

// ReadBytes copies n elements starting at element off from the primary
// plane into dst (which must be n*ElemSize bytes).
func (st *Store) ReadBytes(dst []byte, off int) error {
	n := len(dst) / st.elemSize
	if err := st.checkRange(n, off); err != nil {
		return err
	}
	return st.planeIO(st.primary, off, dst, func(s *stripe, so int64, chunk []byte) error {
		return s.readAt(chunk, so)
	})
}

// WriteBytes copies src into the primary plane at element offset off.
func (st *Store) WriteBytes(src []byte, off int) error {
	n := len(src) / st.elemSize
	if err := st.checkRange(n, off); err != nil {
		return err
	}
	return st.planeIO(st.primary, off, src, func(s *stripe, so int64, chunk []byte) error {
		return s.writeAt(chunk, so)
	})
}

// WriteAuxBytes copies src into the auxiliary plane at element offset
// off.
func (st *Store) WriteAuxBytes(src []byte, off int) error {
	n := len(src) / st.elemSize
	if err := st.checkRange(n, off); err != nil {
		return err
	}
	return st.planeIO(1-st.primary, off, src, func(s *stripe, so int64, chunk []byte) error {
		return s.writeAt(chunk, so)
	})
}

// Flip exchanges the primary and auxiliary planes.
func (st *Store) Flip() error {
	st.primary = 1 - st.primary
	return nil
}

// checksumStripe hashes a stripe's full content with FNV-1a.  It reads
// through the file, never the mapping: hashing through the mapping
// would fault every page of both planes into the process, the
// never-written auxiliary plane included.
func checksumStripe(s *stripe, size int64) uint64 {
	h := fnv.New64a()
	buf := make([]byte, min(size, 1<<20))
	for off := int64(0); off < size; {
		n := min(size-off, int64(len(buf)))
		if _, err := s.f.ReadAt(buf[:n], off); err != nil {
			return 0 // size was verified at open; treat as mismatch
		}
		h.Write(buf[:n])
		off += n
	}
	return h.Sum64()
}

// Close syncs and checksums every stripe, seals the manifest, and
// releases all file resources.  A store that is not Closed (process
// crash) stays in the "open" state and will be rejected by Open.
func (st *Store) Close() error {
	if st.sealed {
		return nil
	}
	planeBytes := int64(st.elems) * int64(st.elemSize)
	m := meta{
		Version:   1,
		ElemSize:  st.elemSize,
		Elems:     st.elems,
		StripeLog: st.stripeLog,
		Stripes:   len(st.planes[0]),
		Primary:   st.primary,
		State:     stateSealed,
	}
	for p := 0; p < 2; p++ {
		for i := range st.planes[p] {
			s := &st.planes[p][i]
			if err := syncStripe(s); err != nil {
				st.closeFiles()
				return err
			}
			m.Checksums[p] = append(m.Checksums[p], checksumStripe(s, st.stripeSize(i, planeBytes)))
		}
	}
	if err := st.closeFiles(); err != nil {
		return err
	}
	if err := writeMeta(st.dir, &m); err != nil {
		return err
	}
	st.sealed = true
	return nil
}

func syncStripe(s *stripe) error {
	if s.m != nil {
		if err := flushStripe(s.m); err != nil {
			return err
		}
	}
	return s.f.Sync()
}

func (st *Store) closeFiles() error {
	var err error
	for p := 0; p < 2; p++ {
		for i := range st.planes[p] {
			if cerr := st.planes[p][i].close(); err == nil {
				err = cerr
			}
		}
		st.planes[p] = nil
	}
	return err
}

// writeMeta atomically replaces the manifest (write temp, fsync,
// rename) so a crash never leaves a half-written manifest that could
// parse as sealed.
func writeMeta(dir string, m *meta) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, metaFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, metaFile))
}

func readMeta(dir string) (*meta, error) {
	b, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return nil, err
	}
	var m meta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, &CorruptError{Dir: dir, Reason: fmt.Sprintf("unparseable manifest: %v", err)}
	}
	return &m, nil
}
