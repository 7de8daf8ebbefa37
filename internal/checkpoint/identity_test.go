package checkpoint

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestIdentityStability(t *testing.T) {
	a := Identity("name", 1, 2.5, struct{ X int }{7})
	b := Identity("name", 1, 2.5, struct{ X int }{7})
	if a != b {
		t.Fatal("identity is not deterministic")
	}
	if a == Identity("name", 1, 2.5, struct{ X int }{8}) {
		t.Fatal("identity ignores parameters")
	}
	// Concatenation must not collide: ("ab", "c") vs ("a", "bc").
	if Identity("ab", "c") == Identity("a", "bc") {
		t.Fatal("identity concatenation collision")
	}
}

type expDist struct{ mean float64 }
type detDist struct{ value float64 }

// TestIdentityEncoding pins the canonical encoding's edge cases.
func TestIdentityEncoding(t *testing.T) {
	type config struct {
		Xs   []float64
		P    *int
		D    any
		rate float64
	}
	one, another := 1, 1
	zero := 0
	cases := []struct {
		name string
		a, b config
		same bool
	}{
		// Both mean "no items"; configs build either.
		{"nil and empty slices", config{}, config{Xs: []float64{}}, true},
		{"slice elements", config{Xs: []float64{1}}, config{Xs: []float64{2}}, false},
		{"slice length", config{Xs: []float64{0}}, config{}, false},
		{"nil and non-nil pointers", config{}, config{P: &zero}, false},
		{"pointees", config{P: &zero}, config{P: &one}, false},
		{"equal pointees at different addresses", config{P: &one}, config{P: &another}, true},
		{"nil and non-nil interfaces", config{}, config{D: expDist{15}}, false},
		{"dynamic types", config{D: expDist{15}}, config{D: detDist{15}}, false},
		{"unexported fields", config{rate: 1}, config{rate: 2}, false},
		{"float bit patterns", config{rate: 0}, config{rate: math.Copysign(0, -1)}, false},
	}
	for _, c := range cases {
		if got := Identity(c.a) == Identity(c.b); got != c.same {
			t.Errorf("%s: equal identities = %t, want %t", c.name, got, c.same)
		}
	}
}

// TestIdentityPanicsOnUnencodableKinds: a map, func, channel or uintptr
// in a hashed value is a programming error, reported by name.
func TestIdentityPanicsOnUnencodableKinds(t *testing.T) {
	for _, part := range []any{
		struct{ F func() }{},
		struct{ M map[string]int }{},
		struct{ C chan int }{},
		struct{ U uintptr }{},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "checkpoint: Identity cannot encode a") {
					t.Errorf("%T: panic %q, want a clear message", part, msg)
				}
			}()
			Identity("sweep", part)
		}()
	}
}
