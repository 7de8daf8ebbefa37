package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestParseGrayFaults(t *testing.T) {
	got, err := ParseGrayFaults("slow:node0@300-700:12, jitter:node1@50:0.8, brownout:node2@400-800:0.4")
	if err != nil {
		t.Fatalf("ParseGrayFaults: %v", err)
	}
	want := []GrayFault{
		{Kind: GraySlow, Node: "node0", At: 300, Until: 700, Factor: 12},
		{Kind: GrayJitter, Node: "node1", At: 50, Factor: 0.8},
		{Kind: GrayBrownout, Node: "node2", At: 400, Until: 800, Factor: 0.4},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[0].String() != "slow:node0@300-700:12" {
		t.Errorf("String = %q", got[0].String())
	}
	if got[1].String() != "jitter:node1@50:0.8" {
		t.Errorf("String = %q", got[1].String())
	}
}

// TestParseGrayFaultsDisk pins the disk-scoped spec form: ":dN" after
// the node name targets one disk, survives a String round-trip, and
// validates only against nodes that actually have that many disks.
func TestParseGrayFaultsDisk(t *testing.T) {
	got, err := ParseGrayFaults("slow:node1:d1@300-700:12, brownout:node2:d0@400:0.4")
	if err != nil {
		t.Fatalf("ParseGrayFaults: %v", err)
	}
	want := []GrayFault{
		{Kind: GraySlow, Node: "node1", Disk: 2, At: 300, Until: 700, Factor: 12},
		{Kind: GrayBrownout, Node: "node2", Disk: 1, At: 400, Factor: 0.4},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, got[i], want[i])
		}
		if d, ok := got[i].DiskIndex(); !ok || d != want[i].Disk-1 {
			t.Errorf("fault %d DiskIndex = %d, %v", i, d, ok)
		}
	}
	if s := got[0].String(); s != "slow:node1:d1@300-700:12" {
		t.Errorf("String = %q", s)
	}
	known := map[string]int{"node1": 2, "node2": 4}
	for i, g := range got {
		if err := g.Validate(known); err != nil {
			t.Errorf("fault %d: Validate: %v", i, err)
		}
	}
	// Whole-node faults still report no disk.
	whole := GrayFault{Kind: GraySlow, Node: "node1", At: 5, Factor: 2}
	if _, ok := whole.DiskIndex(); ok {
		t.Errorf("whole-node fault claims a disk")
	}
}

func TestParseGrayFaultsRoundTrip(t *testing.T) {
	faults := []GrayFault{
		{Kind: GraySlow, Node: "n-a", At: 1e-05, Until: 2.5, Factor: 3},
		{Kind: GrayJitter, Node: "x", At: 0, Factor: 1.25},
		{Kind: GrayBrownout, Node: "node9", At: 100, Until: 1e6, Factor: 0.125},
	}
	for _, f := range faults {
		back, err := ParseGrayFaults(f.String())
		if err != nil {
			t.Fatalf("round-trip %q: %v", f.String(), err)
		}
		if len(back) != 1 || back[0] != f {
			t.Errorf("round-trip %q = %+v, want %+v", f.String(), back, f)
		}
	}
}

func TestParseGrayFaultsRejects(t *testing.T) {
	for _, spec := range []string{
		"slow",                     // no colon structure
		"slow:node0",               // no @
		"slow:node0@5",             // no factor
		"slow:@5:2",                // empty node
		"warp:node0@5:2",           // unknown kind
		"slow:node0@x:2",           // bad time
		"slow:node0@5-x:2",         // bad end time
		"slow:node0@5:x",           // bad factor
		"slow:node0@NaN:2",         // NaN parses; Validate rejects (below)
		"brownout:node0@5:1.5",     // fraction > 1 (Validate)
		"jitter:node0@5:-1",        // negative (Validate)
		"slow:node0@inf:2",         // Inf time (Validate)
		"slow:node0@10-5:2",        // empty interval (Validate)
		"slow:nowhere@5:2",         // unknown node (Validate)
		"jitter:node0@5:NaN",       // NaN factor (Validate)
		"brownout:node0@5:0",       // zero factor (Validate)
		"slow:node0@5:+Inf",        // Inf factor (Validate)
		"slow:node0@-3:2",          // negative time (Validate)
		"brownout:node0@5--10:0.5", // negative end time (Validate)
		"slow:node0:d1@5:2",        // disk beyond the node's 1 disk (Validate)
		"slow:node0:d4096@5:2",     // disk index over the spec cap (Validate)
		"slow:node0:dx@5:2",        // non-numeric disk → unknown node (Validate)
		"slow::d0@5:2",             // disk on an empty node name
	} {
		fs, err := ParseGrayFaults(spec)
		if err == nil {
			known := map[string]int{"node0": 1}
			for _, f := range fs {
				if verr := f.Validate(known); verr != nil {
					err = verr
					break
				}
			}
		}
		if err == nil {
			t.Errorf("spec %q: parsed and validated, want rejection (got %+v)", spec, fs)
			continue
		}
		if !errors.Is(err, ErrBadCluster) {
			t.Errorf("spec %q: error %v is not ErrBadCluster", spec, err)
		}
	}
}

func TestParseGrayFaultsEmpty(t *testing.T) {
	for _, spec := range []string{"", "   ", " , "} {
		fs, err := ParseGrayFaults(spec)
		if err != nil || len(fs) != 0 {
			t.Errorf("spec %q: got %v, %v; want empty, nil", spec, fs, err)
		}
	}
}

func TestHealthConfigValidate(t *testing.T) {
	if err := (HealthConfig{}).Validate(); err != nil {
		t.Errorf("zero config (all defaults): %v", err)
	}
	bad := []HealthConfig{
		{HedgeBudget: -1},
		{HedgeBudget: math.NaN()},
		{HedgeBudget: math.Inf(1)},
	}
	for i, hc := range bad {
		if err := hc.Validate(); err == nil {
			t.Errorf("bad config %d (%+v): validated", i, hc)
		} else if !errors.Is(err, ErrBadCluster) {
			t.Errorf("bad config %d: error %v is not ErrBadCluster", i, err)
		}
	}
}

func TestParseRoutePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RoutePolicy
	}{{"", PolicyBlind}, {"blind", PolicyBlind}, {"health", PolicyHealth}, {"hedge", PolicyHedge}} {
		got, err := ParseRoutePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRoutePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("String(%v) = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseRoutePolicy("fastest"); !errors.Is(err, ErrBadCluster) {
		t.Errorf("ParseRoutePolicy(fastest) error = %v, want ErrBadCluster", err)
	}
}

// FuzzParseGrayFaults pins the gray spec parser: arbitrary input never
// panics, and anything that parses AND validates against a fixed node
// set round-trips through String — in particular NaN and negative
// factors can never survive validation.
func FuzzParseGrayFaults(f *testing.F) {
	f.Add("slow:node0@300-700:12")
	f.Add("jitter:node1@50:0.8,brownout:node2@400-800:0.4")
	f.Add("slow:node0@1e-05-2.5:3")
	f.Add("brownout:n@0:1")
	f.Add("")
	f.Add("slow:node0@NaN:2")
	f.Add("jitter:node0@5:-1")
	f.Add(strings.Repeat("slow:node0@1:2,", 20))
	f.Add("slow:node1:d1@300-700:12")
	f.Add("slow:node0:d9@5:2,brownout:node2:d3@400-800:0.4")
	f.Add("jitter:node2:d0@50:0.8,slow:node1@10:3")
	f.Add("slow:node0:dx@5:2,slow:node0:d@5:2,slow:node0:d00@5:2")
	known := map[string]int{"node0": 1, "node1": 2, "node2": 4, "n": 1}
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseGrayFaults(spec)
		if err != nil {
			if !errors.Is(err, ErrBadCluster) {
				t.Fatalf("parse error %v is not ErrBadCluster", err)
			}
			return
		}
		for _, g := range fs {
			if err := g.Validate(known); err != nil {
				if !errors.Is(err, ErrBadCluster) {
					t.Fatalf("validate error %v is not ErrBadCluster", err)
				}
				continue
			}
			if math.IsNaN(g.Factor) || g.Factor <= 0 || math.IsInf(g.Factor, 0) {
				t.Fatalf("validated fault has bad factor: %+v", g)
			}
			if d, onDisk := g.DiskIndex(); onDisk && (d < 0 || d >= known[g.Node]) {
				t.Fatalf("validated fault targets disk %d outside node %s's %d disks", d, g.Node, known[g.Node])
			}
			back, err := ParseGrayFaults(g.String())
			if err != nil || len(back) != 1 || back[0] != g {
				t.Fatalf("validated fault %+v does not round-trip: %v %v", g, back, err)
			}
		}
	})
}
