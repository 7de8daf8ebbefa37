package des

import "fmt"

// Slots is an engine-owned table of the records typed events name: an
// engine stores a record with Put, schedules events whose operand is
// the returned index, and frees the index once no pending event names
// it. Freed indices are reused, so the table stops growing at the run's
// peak occupancy and allocates nothing afterwards. Reading or freeing
// an index that is not in use panics, which turns an event that
// outlived its record into a loud failure instead of a silent read.
type Slots[T any] struct {
	recs []slotRec[T]
	free []int
}

type slotRec[T any] struct {
	v    T
	used bool
}

// Put stores v and returns its index.
func (s *Slots[T]) Put(v T) int {
	var i int
	if n := len(s.free) - 1; n >= 0 {
		i = s.free[n]
		s.free = s.free[:n]
	} else {
		i = len(s.recs)
		s.recs = append(s.recs, slotRec[T]{})
	}
	s.recs[i] = slotRec[T]{v: v, used: true}
	return i
}

// At returns the record at index i. The pointer is valid until the next
// Put.
func (s *Slots[T]) At(i int) *T {
	r := &s.recs[i]
	if !r.used {
		panic(fmt.Sprintf("des: slot %d is not in use", i))
	}
	return &r.v
}

// Free clears the record at index i and returns the index to the free
// list.
func (s *Slots[T]) Free(i int) {
	s.At(i)
	s.recs[i] = slotRec[T]{}
	s.free = append(s.free, i)
}

// Take returns the record at index i and frees the index: the operand
// of an event that fires exactly once.
func (s *Slots[T]) Take(i int) T {
	v := *s.At(i)
	s.Free(i)
	return v
}

// Len returns the number of records in use.
func (s *Slots[T]) Len() int { return len(s.recs) - len(s.free) }
