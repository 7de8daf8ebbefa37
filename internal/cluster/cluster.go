// Package cluster spreads the paper's single-server pre-allocation
// across a multi-node VOD system: each node owns a (B_s, n_s) capacity
// vector, a placement planner bin-packs per-movie (B, n) allocations
// from the sizing layer onto the nodes (first-fit-decreasing with a
// cost-aware refinement pass and optional k-replication of hot movies),
// a seeded router spreads requests over the replicas with failover, and
// a cluster simulator drives one internal/sim server per node
// concurrently, injecting node-level failures and merging the per-node
// measurements into cluster-level hit probability, availability, shed
// rate and rebalance counts.
//
// The layering mirrors the single-node stack: sizing answers "what does
// each movie need", cluster answers "where does it run and what happens
// when a node dies".
package cluster

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadCluster reports an invalid cluster description (nodes, options,
// or simulation parameters).
var ErrBadCluster = errors.New("cluster: invalid configuration")

// ErrUnplaceable is the typed infeasibility error: some movie's
// allocation fits on no node, even with every node empty. Callers can
// errors.Is against it to distinguish "the catalog does not fit" from
// parameter mistakes.
var ErrUnplaceable = errors.New("cluster: allocation does not fit on any node")

// ErrUnavailable reports a routing request whose every replica host is
// down; the request is shed.
var ErrUnavailable = errors.New("cluster: no replica of the movie is available")

// ErrUnknownMovie reports a routing request for a movie the placement
// does not host.
var ErrUnknownMovie = errors.New("cluster: movie not placed on any node")

// NodeSpec is one node's capacity vector: the per-server (B_s, n_s)
// budget of the paper's §5, owned by a single cluster node.
type NodeSpec struct {
	// ID names the node; IDs must be unique within a cluster.
	ID string
	// MaxStreams is n_s: the node's I/O stream budget.
	MaxStreams int
	// MaxBuffer is B_s: the node's buffer budget in movie-minutes.
	MaxBuffer float64
	// Disks is how many disks the node's stream budget is spread over
	// (0 = 1). The paper's §5 pre-allocates buffers and streams per
	// disk; disk-granular gray faults (`slow:node0:d1@...`) and per-disk
	// health tracking address individual disks of a node.
	Disks int
}

// disks is the effective disk count (the zero value means one disk).
func (n NodeSpec) disks() int {
	if n.Disks < 1 {
		return 1
	}
	return n.Disks
}

// Validate checks the node's fields.
func (n NodeSpec) Validate() error {
	switch {
	case n.ID == "":
		return fmt.Errorf("%w: node with empty ID", ErrBadCluster)
	case n.MaxStreams < 1:
		return fmt.Errorf("%w: node %q stream budget %d", ErrBadCluster, n.ID, n.MaxStreams)
	case !(n.MaxBuffer > 0) || math.IsInf(n.MaxBuffer, 0):
		return fmt.Errorf("%w: node %q buffer budget %v", ErrBadCluster, n.ID, n.MaxBuffer)
	case n.Disks < 0 || n.Disks > 4096:
		return fmt.Errorf("%w: node %q disk count %d", ErrBadCluster, n.ID, n.Disks)
	}
	return nil
}

// validateNodes checks a node list for emptiness and duplicate IDs.
func validateNodes(nodes []NodeSpec) error {
	if len(nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrBadCluster)
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if err := n.Validate(); err != nil {
			return err
		}
		if seen[n.ID] {
			return fmt.Errorf("%w: duplicate node ID %q", ErrBadCluster, n.ID)
		}
		seen[n.ID] = true
	}
	return nil
}

// UniformNodes builds count identical nodes named node0..node{count-1},
// each with the given stream and buffer budgets.
func UniformNodes(count, streams int, buffer float64) []NodeSpec {
	nodes := make([]NodeSpec, count)
	for i := range nodes {
		nodes[i] = NodeSpec{
			ID:         fmt.Sprintf("node%d", i),
			MaxStreams: streams,
			MaxBuffer:  buffer,
		}
	}
	return nodes
}

// AutoNodes sizes count identical nodes to fit the given allocations
// (after the replication of o is applied) with proportional headroom:
// each node gets max(its share of the expanded totals, the largest
// single item) scaled by headroom, so the first-fit-decreasing pass has
// slack to round with. headroom <= 1 defaults to 1.3.
func AutoNodes(count int, allocs []MovieAlloc, o Options, headroom float64) []NodeSpec {
	if headroom <= 1 || math.IsInf(headroom, 0) || math.IsNaN(headroom) {
		headroom = 1.3
	}
	var totN, maxN int
	var totB, maxB float64
	copies := o.copies(len(allocs), count)
	hot := hotSet(allocs, o, count)
	for i, a := range allocs {
		c := 1
		if hot[i] {
			c = copies
		}
		totN += c * a.N
		totB += float64(c) * a.B
		if a.N > maxN {
			maxN = a.N
		}
		if a.B > maxB {
			maxB = a.B
		}
	}
	perN := float64(totN) / float64(count)
	perB := totB / float64(count)
	streams := int(math.Ceil(headroom * math.Max(perN, float64(maxN))))
	buffer := headroom * math.Max(perB, maxB)
	return UniformNodes(count, streams, buffer)
}
