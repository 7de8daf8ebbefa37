package faults

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "fail@300:d0,repair@500:d0,glitch@600:5,bufloss@700:movie1,bufloss@800"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("parsed %d events, want 5", len(s))
	}
	want := Schedule{
		{At: 300, Kind: DiskFail, Disk: 0},
		{At: 500, Kind: DiskRepair, Disk: 0},
		{At: 600, Kind: AllocGlitch, Count: 5},
		{At: 700, Kind: BufferLoss, Movie: "movie1"},
		{At: 800, Kind: BufferLoss},
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("parsed %v want %v", s, want)
	}
	again, err := Parse(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, s) {
		t.Errorf("round trip %v != %v", again, s)
	}
}

func TestParseSortsByTime(t *testing.T) {
	s, err := Parse("repair@500:d1,fail@100:d1")
	if err != nil {
		t.Fatal(err)
	}
	if s[0].Kind != DiskFail || s[1].Kind != DiskRepair {
		t.Errorf("events not time-ordered: %v", s)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"fail@300",      // missing disk
		"fail@300:x0",   // malformed disk
		"fail@abc:d0",   // malformed time
		"fail@-5:d0",    // negative time
		"glitch@10",     // missing count
		"glitch@10:0",   // zero count
		"glitch@10:x",   // malformed count
		"explode@10:d0", // unknown kind
		"fail:300:d0",   // missing @
		"fail@NaN:d0",   // non-finite time
		"fail@+Inf:d0",  // non-finite time
		"fail@300:d-2",  // negative disk
		// The disk-level gray kinds are retired; gray faults live in
		// the cluster layer (cluster.ParseGrayFaults).
		"slow@300-700:d0:12",
		"jitter@50:d1:0.8",
		"brownout@400-800:d2:0.4",
	} {
		if _, err := Parse(spec); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("Parse(%q): want ErrBadSchedule, got %v", spec, err)
		}
	}
}

func TestParseEmptyIsEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ",,"} {
		s, err := Parse(spec)
		if err != nil || len(s) != 0 {
			t.Errorf("Parse(%q) = %v, %v; want empty", spec, s, err)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(7, 5000, 800, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(7, 5000, 800, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	c, err := Random(8, 5000, 800, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave identical schedules (suspicious)")
	}
	if len(a) == 0 {
		t.Error("mtbf far below horizon should produce failures")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated schedule invalid: %v", err)
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	// Per-disk alternation: fail, repair, fail, ...
	seq := map[int][]Kind{}
	for _, e := range a {
		seq[e.Disk] = append(seq[e.Disk], e.Kind)
	}
	for d, ks := range seq {
		for i, k := range ks {
			want := DiskFail
			if i%2 == 1 {
				want = DiskRepair
			}
			if k != want {
				t.Errorf("disk %d event %d: %v want %v", d, i, k, want)
			}
		}
	}
}

func TestRandomPermanentFailures(t *testing.T) {
	s, err := Random(3, 10000, 500, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	perDisk := map[int]int{}
	for _, e := range s {
		if e.Kind != DiskFail {
			t.Errorf("mttr=0 must only fail, got %v", e)
		}
		perDisk[e.Disk]++
	}
	for d, n := range perDisk {
		if n > 1 {
			t.Errorf("disk %d failed %d times with mttr=0", d, n)
		}
	}
}

func TestRandomValidation(t *testing.T) {
	cases := []struct {
		horizon, mtbf, mttr float64
		disks               int
	}{
		{0, 100, 10, 2},
		{1000, 0, 10, 2},
		{1000, 100, -1, 2},
		{1000, 100, 10, 0},
		{math.Inf(1), 100, 10, 2},
	}
	for _, c := range cases {
		if _, err := Random(1, c.horizon, c.mtbf, c.mttr, c.disks); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("Random(%+v): want ErrBadSchedule, got %v", c, err)
		}
	}
}

func TestParseRandom(t *testing.T) {
	s, err := ParseSchedule("rand:7:800:120:4", 5000)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Random(7, 5000, 800, 120, 4)
	if !reflect.DeepEqual(s, want) {
		t.Error("ParseSchedule disagrees with Random")
	}
	for _, bad := range []string{"rand:7:800:120", "rnd:7:800:120:4", "rand:x:800:120:4"} {
		if _, err := parseRandom(bad, 5000); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("parseRandom(%q): want ErrBadSchedule, got %v", bad, err)
		}
	}
}

// FuzzParseFaultSpec: Parse never panics, fails only with
// ErrBadSchedule, and everything it accepts survives a String
// round-trip (sorted order included). The seeds in the retired gray
// syntax (slow, jitter, brownout) exercise the rejection path.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("fail@300:d0,repair@500:d0")
	f.Add("glitch@600:5,bufloss@700:movie")
	f.Add("slow@300-700:d0:12")
	f.Add("jitter@50:d1:0.8,brownout@400-800:d2:0.4")
	f.Add("slow@1e-05-2.5:d3:1e-05")
	f.Add("bufloss@700")
	f.Add("slow@300:d0:NaN")
	f.Add("brownout@300:d0:1.5")
	f.Add("")
	f.Add(strings.Repeat("fail@1:d0,", 30))
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			if !errors.Is(err, ErrBadSchedule) {
				t.Fatalf("error %v is not ErrBadSchedule", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed schedule fails validation: %v", err)
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("round-trip of %q (%q) failed: %v", spec, s.String(), err)
		}
		if len(back) != len(s) {
			t.Fatalf("round-trip length %d != %d", len(back), len(s))
		}
		for i := range s {
			if back[i] != s[i] {
				t.Fatalf("round-trip event %d: %+v != %+v", i, back[i], s[i])
			}
		}
	})
}
