// Package faults provides deterministic, seedable fault schedules for
// the VOD server simulator. A Schedule is a list of timestamped fault
// events — whole-disk failures and repairs, transient allocation
// glitches, and buffer-partition losses — that the simulator injects as
// ordinary DES events, so any run can be replayed bit-for-bit under the
// same failures (same seed ⇒ same schedule ⇒ same metrics).
//
// Schedules come from three places: literal construction in tests, the
// compact Parse syntax used by vodsim's -faults flag
// ("fail@300:d0,repair@500:d0,glitch@600:5,bufloss@700:movie"), and the
// Random generator, which draws independent exponential
// failure/repair processes per disk from a private seeded RNG.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// ErrBadSchedule reports an invalid schedule or spec.
var ErrBadSchedule = errors.New("faults: invalid schedule")

// Kind classifies a fault event.
type Kind int

// The injectable faults.
const (
	// DiskFail takes one disk out of service: its stream slots leave the
	// provisioned pool and every stream it carried is orphaned.
	DiskFail Kind = iota
	// DiskRepair returns a failed disk to service.
	DiskRepair
	// AllocGlitch makes the next Count stream allocations fail
	// transiently (a controller hiccup rather than a dead spindle).
	AllocGlitch
	// BufferLoss destroys one live buffer partition (the oldest, or the
	// oldest of Movie when set): its viewers lose their memory feed.
	BufferLoss
	// SlowDisk is the classic gray failure: the disk still answers every
	// request, but Factor times slower, over [At, Until) (Until 0 =
	// permanent). Overlapping slow faults on one disk do not stack; the
	// latest sets the multiplier.
	SlowDisk
	// DiskJitter inflates the disk's service latency by a seeded
	// lognormal factor with sigma Factor (mean-one, so the expected
	// latency is unchanged but the tail stretches) over [At, Until).
	DiskJitter
	// Brownout reduces the disk's effective throughput to fraction
	// Factor of nominal over [At, Until): per-op service time inflates
	// by 1/Factor while the disk stays formally in service.
	Brownout
)

// String names the kind as in the Parse syntax.
func (k Kind) String() string {
	switch k {
	case DiskFail:
		return "fail"
	case DiskRepair:
		return "repair"
	case AllocGlitch:
		return "glitch"
	case BufferLoss:
		return "bufloss"
	case SlowDisk:
		return "slow"
	case DiskJitter:
		return "jitter"
	case Brownout:
		return "brownout"
	default:
		return "unknown"
	}
}

// Gray reports whether the kind is a gray (degraded-but-alive) failure.
func (k Kind) Gray() bool { return k >= SlowDisk && k <= Brownout }

// Event is one scheduled fault.
type Event struct {
	// At is the injection time in simulated minutes.
	At float64
	// Kind selects the fault.
	Kind Kind
	// Disk targets DiskFail/DiskRepair.
	Disk int
	// Count is the number of failing allocations for AllocGlitch.
	Count int
	// Movie optionally scopes BufferLoss to one movie's partitions.
	Movie string
	// Until ends a gray-fault interval (SlowDisk/DiskJitter/Brownout);
	// 0 means the fault holds to the end of the run.
	Until float64
	// Factor parameterizes gray faults: the latency multiplier for
	// SlowDisk, the lognormal sigma for DiskJitter, and the remaining
	// throughput fraction (0, 1] for Brownout.
	Factor float64
}

// String renders the event in the Parse syntax.
func (e Event) String() string {
	switch e.Kind {
	case DiskFail, DiskRepair:
		return fmt.Sprintf("%s@%g:d%d", e.Kind, e.At, e.Disk)
	case AllocGlitch:
		return fmt.Sprintf("%s@%g:%d", e.Kind, e.At, e.Count)
	case BufferLoss:
		if e.Movie != "" {
			return fmt.Sprintf("%s@%g:%s", e.Kind, e.At, e.Movie)
		}
		return fmt.Sprintf("%s@%g", e.Kind, e.At)
	case SlowDisk, DiskJitter, Brownout:
		if e.Until > 0 {
			return fmt.Sprintf("%s@%g-%g:d%d:%g", e.Kind, e.At, e.Until, e.Disk, e.Factor)
		}
		return fmt.Sprintf("%s@%g:d%d:%g", e.Kind, e.At, e.Disk, e.Factor)
	default:
		return fmt.Sprintf("unknown@%g", e.At)
	}
}

// Validate checks the event.
func (e Event) Validate() error {
	switch {
	case math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0:
		return fmt.Errorf("%w: event time %v", ErrBadSchedule, e.At)
	case (e.Kind == DiskFail || e.Kind == DiskRepair) && e.Disk < 0:
		return fmt.Errorf("%w: disk %d", ErrBadSchedule, e.Disk)
	case e.Kind == AllocGlitch && e.Count < 1:
		return fmt.Errorf("%w: glitch count %d", ErrBadSchedule, e.Count)
	case e.Kind < DiskFail || e.Kind > Brownout:
		return fmt.Errorf("%w: kind %d", ErrBadSchedule, int(e.Kind))
	case e.Kind.Gray() && e.Disk < 0:
		return fmt.Errorf("%w: disk %d", ErrBadSchedule, e.Disk)
	case e.Kind.Gray() && !(e.Factor > 0 && !math.IsInf(e.Factor, 0)):
		return fmt.Errorf("%w: %s factor %v (want a positive finite value)", ErrBadSchedule, e.Kind, e.Factor)
	case e.Kind == Brownout && e.Factor > 1:
		return fmt.Errorf("%w: brownout fraction %v outside (0, 1]", ErrBadSchedule, e.Factor)
	case e.Kind.Gray() && (math.IsNaN(e.Until) || math.IsInf(e.Until, 0) || e.Until < 0):
		return fmt.Errorf("%w: until %v", ErrBadSchedule, e.Until)
	case e.Kind.Gray() && e.Until != 0 && e.Until <= e.At:
		return fmt.Errorf("%w: empty interval [%v, %v)", ErrBadSchedule, e.At, e.Until)
	}
	return nil
}

// Schedule is a fault timeline. The simulator injects events in At
// order; equal timestamps fire in slice order.
type Schedule []Event

// Validate checks every event.
func (s Schedule) Validate() error {
	for i, e := range s {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d (%s): %w", i, e, err)
		}
	}
	return nil
}

// Sorted returns a copy ordered by injection time (stable, so equal
// times keep their relative order).
func (s Schedule) Sorted() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the schedule in the Parse syntax.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Parse builds a schedule from a comma-separated event list:
//
//	fail@T:dD         disk D fails at time T
//	repair@T:dD       disk D returns to service at time T
//	glitch@T:N        the next N allocations after T fail transiently
//	bufloss@T         the oldest buffer partition is lost at time T
//	bufloss@T:M       the oldest partition of movie M is lost at time T
//	slow@T[-T2]:dD:F  disk D serves at F× latency over [T, T2)
//	jitter@T[-T2]:dD:S  disk D latency jitters (lognormal sigma S)
//	brownout@T[-T2]:dD:F  disk D throughput browns out to fraction F
//
// Gray faults without -T2 hold to the end of the run.
// Parse(Schedule.String()) round-trips.
func Parse(spec string) (Schedule, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out Schedule
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		kind, rest, ok := strings.Cut(tok, "@")
		if !ok {
			return nil, fmt.Errorf("%w: %q wants kind@time[:arg]", ErrBadSchedule, tok)
		}
		atStr, arg, hasArg := strings.Cut(rest, ":")
		fromStr, toStr := atStr, ""
		ranged := false
		switch kind {
		case "slow", "jitter", "brownout":
			fromStr, toStr, ranged = CutTimeRange(atStr)
		}
		at, err := strconv.ParseFloat(fromStr, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: time in %q: %v", ErrBadSchedule, tok, err)
		}
		e := Event{At: at}
		if ranged {
			until, err := strconv.ParseFloat(toStr, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: end time in %q: %v", ErrBadSchedule, tok, err)
			}
			e.Until = until
		}
		switch kind {
		case "fail", "repair":
			e.Kind = DiskFail
			if kind == "repair" {
				e.Kind = DiskRepair
			}
			if !hasArg || !strings.HasPrefix(arg, "d") {
				return nil, fmt.Errorf("%w: %q wants %s@T:dN", ErrBadSchedule, tok, kind)
			}
			d, err := strconv.Atoi(arg[1:])
			if err != nil {
				return nil, fmt.Errorf("%w: disk in %q: %v", ErrBadSchedule, tok, err)
			}
			e.Disk = d
		case "glitch":
			e.Kind = AllocGlitch
			if !hasArg {
				return nil, fmt.Errorf("%w: %q wants glitch@T:count", ErrBadSchedule, tok)
			}
			n, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("%w: count in %q: %v", ErrBadSchedule, tok, err)
			}
			e.Count = n
		case "bufloss":
			e.Kind = BufferLoss
			if hasArg {
				e.Movie = arg
			}
		case "slow", "jitter", "brownout":
			switch kind {
			case "slow":
				e.Kind = SlowDisk
			case "jitter":
				e.Kind = DiskJitter
			default:
				e.Kind = Brownout
			}
			dStr, fStr, okF := strings.Cut(arg, ":")
			if !hasArg || !okF || !strings.HasPrefix(dStr, "d") {
				return nil, fmt.Errorf("%w: %q wants %s@T[-T2]:dN:factor", ErrBadSchedule, tok, kind)
			}
			d, err := strconv.Atoi(dStr[1:])
			if err != nil {
				return nil, fmt.Errorf("%w: disk in %q: %v", ErrBadSchedule, tok, err)
			}
			e.Disk = d
			f, err := strconv.ParseFloat(fStr, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: factor in %q: %v", ErrBadSchedule, tok, err)
			}
			e.Factor = f
		default:
			return nil, fmt.Errorf("%w: unknown fault kind %q in %q", ErrBadSchedule, kind, tok)
		}
		if err := e.Validate(); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out.Sorted(), nil
}

// CutTimeRange splits "T-T2" into its endpoints, leaving exponent
// notation like 1e-3 intact: the separator is the first '-' that is
// neither leading nor preceded by an exponent marker. The node, gray
// and disk fault parsers all split their time ranges here.
func CutTimeRange(s string) (from, to string, ranged bool) {
	for i := 1; i < len(s); i++ {
		if s[i] == '-' && s[i-1] != 'e' && s[i-1] != 'E' {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// Random draws a fail/repair timeline for disks 0..disks-1 over
// [0, horizon): each disk alternates up-times ~ Exp(mtbf) and
// down-times ~ Exp(mttr), all from one RNG seeded with seed, so the
// schedule is a pure function of its arguments.
func Random(seed int64, horizon, mtbf, mttr float64, disks int) (Schedule, error) {
	switch {
	case !(horizon > 0) || math.IsInf(horizon, 0):
		return nil, fmt.Errorf("%w: horizon %v", ErrBadSchedule, horizon)
	case !(mtbf > 0) || !(mttr >= 0):
		return nil, fmt.Errorf("%w: mtbf %v mttr %v", ErrBadSchedule, mtbf, mttr)
	case disks < 1:
		return nil, fmt.Errorf("%w: disks %d", ErrBadSchedule, disks)
	}
	rng := rand.New(rand.NewSource(seed))
	var out Schedule
	for d := 0; d < disks; d++ {
		t := rng.ExpFloat64() * mtbf
		for t < horizon {
			out = append(out, Event{At: t, Kind: DiskFail, Disk: d})
			if mttr == 0 {
				break // failures are permanent
			}
			t += rng.ExpFloat64() * mttr
			if t >= horizon {
				break
			}
			out = append(out, Event{At: t, Kind: DiskRepair, Disk: d})
			t += rng.ExpFloat64() * mtbf
		}
	}
	return out.Sorted(), nil
}

// ParseSchedule parses either form of a fault spec: a
// "rand:seed:mtbf:mttr:disks" spec draws a Random schedule over
// [0, horizon); anything else is Parse syntax.
func ParseSchedule(spec string, horizon float64) (Schedule, error) {
	if strings.HasPrefix(spec, "rand:") {
		return parseRandom(spec, horizon)
	}
	return Parse(spec)
}

// parseRandom builds a Random schedule from a "rand:seed:mtbf:mttr:disks"
// spec, using horizon as the timeline length.
func parseRandom(spec string, horizon float64) (Schedule, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 5 || parts[0] != "rand" {
		return nil, fmt.Errorf("%w: %q wants rand:seed:mtbf:mttr:disks", ErrBadSchedule, spec)
	}
	seed, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: seed: %v", ErrBadSchedule, err)
	}
	mtbf, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("%w: mtbf: %v", ErrBadSchedule, err)
	}
	mttr, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return nil, fmt.Errorf("%w: mttr: %v", ErrBadSchedule, err)
	}
	disks, err := strconv.Atoi(parts[4])
	if err != nil {
		return nil, fmt.Errorf("%w: disks: %v", ErrBadSchedule, err)
	}
	return Random(seed, horizon, mtbf, mttr, disks)
}
