package exec

import (
	"fmt"
	"sync"
)

// BufStore abstracts the storage a segmented schedule streams through.
// The store holds two full-length planes of the logical vector: the
// primary plane, which the segmented executor reads and writes in
// gathered rows, and an auxiliary plane that Flip exchanges with it.
// No executor writes the auxiliary plane or flips any more — gather
// windows reach every phase in place — but the methods stay part of the
// contract, so stores and the wrappers built on them keep their shape.
//
// Implementations must support concurrent calls on disjoint ranges:
// the segmented executor streams windows through a bounded worker pool,
// and two workers never touch overlapping offsets within one segment.
type BufStore[T Float] interface {
	// Len returns the logical vector length (the schedule size).
	Len() int

	// Read copies len(dst) elements starting at element offset off from
	// the primary plane into dst.
	Read(dst []T, off int) error

	// Write copies src into the primary plane at element offset off.
	Write(src []T, off int) error

	// WriteAux copies src into the auxiliary plane at element offset
	// off.
	WriteAux(src []T, off int) error

	// Flip exchanges the primary and auxiliary planes.  It must not run
	// concurrently with Read/Write.
	Flip() error

	// Close releases the store's resources.  Stores that persist (the
	// shard store) seal their contents; the in-RAM store verifies the
	// plane parity so a result stranded in the scratch plane is an
	// error, not silent data loss.
	Close() error
}

// SliceStore is the in-RAM BufStore: the caller's slice is the primary
// plane and the auxiliary plane is allocated on the first WriteAux or
// Flip, so transforms never pay for it.  A flat schedule runs directly
// on the primary plane; a segmented one gathers its windows through
// Read and Write like any other store.
type SliceStore[T Float] struct {
	primary []T
	aux     []T
	orig    []T // the caller's slice; Close checks the result ended here
	auxOnce sync.Once
}

// NewSliceStore wraps x as an in-RAM store.  The transform result is
// written back into x (BufStore's even-flip guarantee).
func NewSliceStore[T Float](x []T) *SliceStore[T] {
	return &SliceStore[T]{primary: x, orig: x}
}

// Len returns the logical vector length.
func (st *SliceStore[T]) Len() int { return len(st.orig) }

func (st *SliceStore[T]) check(n, off int) error {
	if off < 0 || off+n > len(st.orig) {
		return fmt.Errorf("exec: store access [%d, %d) outside vector of length %d", off, off+n, len(st.orig))
	}
	return nil
}

// ensureAux allocates the scratch plane once; safe under concurrent
// WriteAux calls.
func (st *SliceStore[T]) ensureAux() {
	st.auxOnce.Do(func() {
		if st.aux == nil {
			st.aux = make([]T, len(st.orig))
		}
	})
}

// Read copies out of the primary plane.
func (st *SliceStore[T]) Read(dst []T, off int) error {
	if err := st.check(len(dst), off); err != nil {
		return err
	}
	copy(dst, st.primary[off:off+len(dst)])
	return nil
}

// Write copies into the primary plane.
func (st *SliceStore[T]) Write(src []T, off int) error {
	if err := st.check(len(src), off); err != nil {
		return err
	}
	copy(st.primary[off:off+len(src)], src)
	return nil
}

// WriteAux copies into the auxiliary plane.
func (st *SliceStore[T]) WriteAux(src []T, off int) error {
	if err := st.check(len(src), off); err != nil {
		return err
	}
	st.ensureAux()
	copy(st.aux[off:off+len(src)], src)
	return nil
}

// Flip exchanges the planes.
func (st *SliceStore[T]) Flip() error {
	st.ensureAux()
	st.primary, st.aux = st.aux, st.primary
	return nil
}

// Close verifies the planes ended in their original parity: an odd
// number of flips would leave the result in the scratch plane instead
// of the caller's slice, which must surface as an error rather than a
// silently untouched input.
func (st *SliceStore[T]) Close() error {
	if len(st.aux) > 0 && &st.primary[0] != &st.orig[0] {
		return fmt.Errorf("exec: store closed after an odd number of plane flips; result is not in the caller's slice")
	}
	return nil
}
