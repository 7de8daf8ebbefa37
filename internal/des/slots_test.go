package des

import "testing"

// Slots reuses freed indices, so a table's size tracks its peak
// occupancy, and refuses an index that is not in use: an event that
// outlived its record fails loudly.
func TestSlotsReuseAndRefuseStaleIndex(t *testing.T) {
	var s Slots[string]
	a, b := s.Put("a"), s.Put("b")
	if got := s.Take(a); got != "a" {
		t.Fatalf("Take(%d) = %q, want a", a, got)
	}
	c := s.Put("c")
	if c != a {
		t.Errorf("Put after Take used index %d, want the freed %d", c, a)
	}
	if *s.At(b) != "b" || *s.At(c) != "c" || s.Len() != 2 {
		t.Errorf("records %q %q, len %d; want b c 2", *s.At(b), *s.At(c), s.Len())
	}
	s.Free(b)
	for name, f := range map[string]func(){
		"At":   func() { s.At(b) },
		"Free": func() { s.Free(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a freed index did not panic", name)
				}
			}()
			f()
		}()
	}
	if s.Len() != 1 {
		t.Errorf("len %d after freeing one of two, want 1", s.Len())
	}
}

// Once a table has reached its peak occupancy, a Put/Take cycle
// allocates nothing.
func TestSlotsSteadyStateAllocs(t *testing.T) {
	var s Slots[[4]int]
	s.Take(s.Put([4]int{}))
	avg := testing.AllocsPerRun(1000, func() {
		s.Take(s.Put([4]int{1, 2, 3, 4}))
	})
	if avg != 0 {
		t.Errorf("Put/Take allocates %.2f objects; want 0", avg)
	}
}
