package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Node-level gray failures for the churn simulator, the repository's
// one gray-failure model. Unlike a NodeFault outage, a gray-faulted
// node (or one of its disks) stays formally in service — it just
// serves late. GraySlow multiplies its service latency, GrayJitter
// stretches the latency tail with a seeded mean-one lognormal, and
// GrayBrownout cuts its effective throughput so load piles into
// queueing delay. All three are injected as typed DES events (a set
// event at At, a clear event at Until), so gray runs replay and
// checkpoint-resume exactly like outage runs.

// GrayKind classifies a node-level gray fault.
type GrayKind int8

// The gray fault kinds.
const (
	// GraySlow serves every request Factor times slower.
	GraySlow GrayKind = iota
	// GrayJitter inflates latency by a mean-one lognormal with sigma
	// Factor, drawn from a dedicated seeded stream.
	GrayJitter
	// GrayBrownout reduces effective throughput to fraction Factor of
	// nominal: the router still believes full capacity, so load beyond
	// the browned-out ceiling turns into queueing delay.
	GrayBrownout
)

// String names the kind as in the ParseGrayFaults syntax.
func (k GrayKind) String() string {
	switch k {
	case GraySlow:
		return "slow"
	case GrayJitter:
		return "jitter"
	case GrayBrownout:
		return "brownout"
	default:
		return "unknown"
	}
}

// GrayFault degrades one node — or one disk of a node — over
// [At, Until) (Until 0 = permanent).
type GrayFault struct {
	Kind   GrayKind
	Node   string
	At     float64
	Until  float64
	Factor float64
	// Disk selects a single disk of the node: 0 targets the whole node
	// (every disk), d+1 targets disk d. The spec syntax writes disk d as
	// a ":dN" suffix on the node, e.g. "slow:node0:d1@300-700:12".
	Disk int
}

// DiskIndex reports the targeted disk (and true), or false when the
// fault targets the whole node.
func (f GrayFault) DiskIndex() (int, bool) {
	if f.Disk > 0 {
		return f.Disk - 1, true
	}
	return 0, false
}

// String renders the fault in the ParseGrayFaults syntax.
func (f GrayFault) String() string {
	node := f.Node
	if d, ok := f.DiskIndex(); ok {
		node = fmt.Sprintf("%s:d%d", f.Node, d)
	}
	if f.Until > 0 {
		return fmt.Sprintf("%s:%s@%g-%g:%g", f.Kind, node, f.At, f.Until, f.Factor)
	}
	return fmt.Sprintf("%s:%s@%g:%g", f.Kind, node, f.At, f.Factor)
}

// Validate checks the fault against the cluster's node IDs and their
// disk counts (disks maps node ID → disk count; presence means the node
// exists). NaN, infinite, and non-positive factors are rejected with
// typed errors, as are disk selectors outside the node's disk range.
func (f GrayFault) Validate(disks map[string]int) error {
	nd, knownNode := disks[f.Node]
	switch {
	case f.Kind < GraySlow || f.Kind > GrayBrownout:
		return fmt.Errorf("%w: gray kind %d", ErrBadCluster, int(f.Kind))
	case !knownNode:
		return fmt.Errorf("%w: gray fault targets unknown node %q", ErrBadCluster, f.Node)
	case f.Disk < 0:
		return fmt.Errorf("%w: gray fault disk selector %d", ErrBadCluster, f.Disk)
	case f.Disk > max(nd, 1):
		return fmt.Errorf("%w: gray fault targets disk %d of node %q (%d disks)",
			ErrBadCluster, f.Disk-1, f.Node, max(nd, 1))
	case math.IsNaN(f.At) || math.IsInf(f.At, 0) || f.At < 0:
		return fmt.Errorf("%w: gray fault time %v", ErrBadCluster, f.At)
	case math.IsNaN(f.Until) || math.IsInf(f.Until, 0) || f.Until < 0:
		return fmt.Errorf("%w: gray fault end time %v", ErrBadCluster, f.Until)
	case f.Until != 0 && f.Until <= f.At:
		return fmt.Errorf("%w: empty gray interval [%v, %v)", ErrBadCluster, f.At, f.Until)
	case !(f.Factor > 0 && !math.IsInf(f.Factor, 0)):
		return fmt.Errorf("%w: %s factor %v (want a positive finite value)", ErrBadCluster, f.Kind, f.Factor)
	case f.Kind == GrayBrownout && f.Factor > 1:
		return fmt.Errorf("%w: brownout fraction %v outside (0, 1]", ErrBadCluster, f.Factor)
	}
	return nil
}

// ParseGrayFaults parses a comma-separated gray-failure spec:
//
//	slow:NODE@T[-T2]:F      node serves at F× latency over [T, T2)
//	jitter:NODE@T[-T2]:S    latency jitters (lognormal sigma S)
//	brownout:NODE@T[-T2]:F  throughput browns out to fraction F
//
// NODE may carry a ":dN" suffix addressing a single disk of the node
// (slow:node0:d1@300-700:12 slows only disk 1); without it the fault
// covers every disk. Omitting -T2 holds the fault to the end of the
// run. An empty spec is an empty schedule.
// ParseGrayFaults(GrayFault.String()) round-trips.
func ParseGrayFaults(spec string) ([]GrayFault, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []GrayFault
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("%w: gray fault %q wants kind:node@start[-end]:factor", ErrBadCluster, tok)
		}
		var f GrayFault
		switch kindStr {
		case "slow":
			f.Kind = GraySlow
		case "jitter":
			f.Kind = GrayJitter
		case "brownout":
			f.Kind = GrayBrownout
		default:
			return nil, fmt.Errorf("%w: unknown gray kind %q in %q", ErrBadCluster, kindStr, tok)
		}
		node, timesFactor, ok := strings.Cut(rest, "@")
		if !ok || node == "" {
			return nil, fmt.Errorf("%w: gray fault %q wants kind:node[:dN]@start[-end]:factor", ErrBadCluster, tok)
		}
		if base, dStr, hasDisk := cutDiskSuffix(node); hasDisk {
			d, err := strconv.Atoi(dStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("%w: gray fault %q: bad disk selector %q", ErrBadCluster, tok, "d"+dStr)
			}
			node = base
			f.Disk = d + 1
		}
		if node == "" {
			return nil, fmt.Errorf("%w: gray fault %q wants kind:node[:dN]@start[-end]:factor", ErrBadCluster, tok)
		}
		f.Node = node
		times, factorStr, ok := strings.Cut(timesFactor, ":")
		if !ok {
			return nil, fmt.Errorf("%w: gray fault %q wants kind:node@start[-end]:factor", ErrBadCluster, tok)
		}
		fromStr, toStr, ranged := cutTimeRange(times)
		v, err := strconv.ParseFloat(fromStr, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: gray fault %q: %v", ErrBadCluster, tok, err)
		}
		f.At = v
		if ranged {
			v, err := strconv.ParseFloat(toStr, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: gray fault %q: %v", ErrBadCluster, tok, err)
			}
			f.Until = v
		}
		v, err = strconv.ParseFloat(factorStr, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: gray fault %q: %v", ErrBadCluster, tok, err)
		}
		f.Factor = v
		out = append(out, f)
	}
	return out, nil
}

// cutDiskSuffix splits a ":dN" disk selector off a node spec. Only a
// suffix whose tail is all digits counts, so a node literally named with
// a ":d" infix that is not a selector stays intact.
func cutDiskSuffix(node string) (base, digits string, ok bool) {
	i := strings.LastIndex(node, ":d")
	if i < 0 || i+2 >= len(node) {
		return node, "", false
	}
	digits = node[i+2:]
	for j := 0; j < len(digits); j++ {
		if digits[j] < '0' || digits[j] > '9' {
			return node, "", false
		}
	}
	return node[:i], digits, true
}
