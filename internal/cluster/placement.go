package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"vodalloc/internal/parallel"
	"vodalloc/internal/sizing"
	"vodalloc/internal/workload"
)

// MovieAlloc is one movie's per-copy resource demand: the buffer-minimal
// feasible (B, n) pair from the sizing layer plus the movie's normalized
// popularity weight. Every replica of the movie costs the same (B, n).
type MovieAlloc struct {
	Movie string
	// N and B are the per-copy stream and buffer demand.
	N int
	B float64
	// Hit and Wait are the allocation's predicted hit probability and
	// maximum wait, carried through for reporting.
	Hit  float64
	Wait float64
	// Weight is the movie's normalized popularity (sums to 1 across the
	// catalog); it drives replication priority and routing weights.
	Weight float64
}

// Validate checks the allocation's fields.
func (a MovieAlloc) Validate() error {
	switch {
	case a.Movie == "":
		return fmt.Errorf("%w: allocation with empty movie name", ErrBadCluster)
	case a.N < 1:
		return fmt.Errorf("%w: movie %q streams %d", ErrBadCluster, a.Movie, a.N)
	case !(a.B >= 0) || math.IsInf(a.B, 0):
		return fmt.Errorf("%w: movie %q buffer %v", ErrBadCluster, a.Movie, a.B)
	case a.Weight < 0 || math.IsNaN(a.Weight):
		return fmt.Errorf("%w: movie %q weight %v", ErrBadCluster, a.Movie, a.Weight)
	}
	return nil
}

// Options tunes the placement planner.
type Options struct {
	// Replicas is how many copies each hot movie gets (capped at the node
	// count; replicas of one movie always land on distinct nodes).
	// <= 1 disables replication.
	Replicas int
	// HotMovies is how many of the top-popularity movies are replicated;
	// <= 0 replicates the whole catalog (when Replicas > 1).
	HotMovies int
}

// copies returns the replica count per hot movie, capped at the node
// count (a movie cannot have two copies on one node).
func (o Options) copies(catalog, nodes int) int {
	c := o.Replicas
	if c < 1 {
		c = 1
	}
	if c > nodes {
		c = nodes
	}
	return c
}

// hotSet marks the movies eligible for replication: the HotMovies
// largest weights, ties broken by catalog order. With Replicas <= 1 the
// set is empty.
func hotSet(allocs []MovieAlloc, o Options, nodes int) []bool {
	hot := make([]bool, len(allocs))
	if o.copies(len(allocs), nodes) <= 1 {
		return hot
	}
	k := o.HotMovies
	if k <= 0 || k > len(allocs) {
		k = len(allocs)
	}
	order := make([]int, len(allocs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return allocs[order[a]].Weight > allocs[order[b]].Weight
	})
	for _, i := range order[:k] {
		hot[i] = true
	}
	return hot
}

// Assignment is one (movie copy → node) placement decision.
type Assignment struct {
	MovieAlloc
	// Node is the hosting node's ID.
	Node string
	// Replica numbers the copies of one movie from 0 (the primary).
	Replica int
}

// NodeLoad is one node's placed load against its capacity.
type NodeLoad struct {
	Node    NodeSpec
	Streams int
	Buffer  float64
	Movies  int
}

// Placement is the planner's output: every copy of every movie pinned
// to a node, within each node's capacity vector.
type Placement struct {
	Nodes       []NodeSpec
	Assignments []Assignment
	// TotalStreams and TotalBuffer sum the placed demand, replicas
	// included — the cluster's resource cost.
	TotalStreams int
	TotalBuffer  float64
	// DroppedReplicas counts requested replicas (beyond each movie's
	// primary) that fit on no node and were skipped; primaries never
	// drop — an unplaceable primary is an ErrUnplaceable error instead.
	DroppedReplicas int
	// RefineMoves counts assignments relocated by the cost-aware
	// refinement pass after first-fit-decreasing.
	RefineMoves int
}

// Loads returns each node's placed load, in node order.
func (p Placement) Loads() []NodeLoad {
	loads := make([]NodeLoad, len(p.Nodes))
	index := make(map[string]int, len(p.Nodes))
	for i, n := range p.Nodes {
		loads[i].Node = n
		index[n.ID] = i
	}
	for _, a := range p.Assignments {
		l := &loads[index[a.Node]]
		l.Streams += a.N
		l.Buffer += a.B
		l.Movies++
	}
	return loads
}

// Replicas returns the assignments of one movie in replica order, or
// nil when the movie is not placed.
func (p Placement) Replicas(movie string) []Assignment {
	var out []Assignment
	for _, a := range p.Assignments {
		if a.Movie == movie {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Replica < out[j].Replica })
	return out
}

// bufferSlack absorbs float rounding in capacity comparisons: sums of
// placed buffer within 1e-9 movie-minutes of the budget still fit.
const bufferSlack = 1e-9

// Validate re-checks the placement invariants: every node's placed sums
// within its capacity vector, and every movie's replicas on distinct
// nodes. The planner's own output always passes; the property tests
// call this against randomly generated inputs.
func (p Placement) Validate() error {
	if err := validateNodes(p.Nodes); err != nil {
		return err
	}
	index := make(map[string]int, len(p.Nodes))
	for i, n := range p.Nodes {
		index[n.ID] = i
	}
	type use struct {
		streams int
		buffer  float64
	}
	used := make([]use, len(p.Nodes))
	onNode := make(map[string]bool) // movie + "\x00" + node
	for _, a := range p.Assignments {
		i, ok := index[a.Node]
		if !ok {
			return fmt.Errorf("%w: assignment %q on unknown node %q", ErrBadCluster, a.Movie, a.Node)
		}
		key := a.Movie + "\x00" + a.Node
		if onNode[key] {
			return fmt.Errorf("%w: movie %q twice on node %q", ErrBadCluster, a.Movie, a.Node)
		}
		onNode[key] = true
		used[i].streams += a.N
		used[i].buffer += a.B
	}
	for i, u := range used {
		n := p.Nodes[i]
		if u.streams > n.MaxStreams {
			return fmt.Errorf("%w: node %q streams %d exceed budget %d", ErrBadCluster, n.ID, u.streams, n.MaxStreams)
		}
		if u.buffer > n.MaxBuffer+bufferSlack {
			return fmt.Errorf("%w: node %q buffer %.3f exceeds budget %.3f", ErrBadCluster, n.ID, u.buffer, n.MaxBuffer)
		}
	}
	return nil
}

// Demands computes each movie's per-copy allocation: the buffer-minimal
// feasible (B, n) point against the movie's (w, P*) targets, evaluated
// on eval (sizing.Default when nil), plus normalized popularity
// weights. An infeasible movie surfaces sizing.ErrInfeasible.
func Demands(ctx context.Context, eval *sizing.Evaluator, movies []workload.Movie, r sizing.Rates) ([]MovieAlloc, error) {
	if len(movies) == 0 {
		return nil, fmt.Errorf("%w: empty catalog", ErrBadCluster)
	}
	if eval == nil {
		eval = sizing.Default
	}
	var popSum float64
	for _, m := range movies {
		popSum += m.Popularity
	}
	if !(popSum > 0) {
		return nil, fmt.Errorf("%w: catalog has no popularity mass", ErrBadCluster)
	}
	allocs, err := parallel.Map(ctx, parallel.Opts{}, len(movies),
		func(ctx context.Context, i int) (MovieAlloc, error) {
			m := movies[i]
			pt, err := eval.MaxFeasibleStreamsCtx(ctx, m, r)
			if err != nil {
				return MovieAlloc{}, fmt.Errorf("movie %q: %w", m.Name, err)
			}
			return MovieAlloc{
				Movie: m.Name, N: pt.N, B: pt.B, Hit: pt.Hit,
				Wait:   m.Wait,
				Weight: m.Popularity / popSum,
			}, nil
		})
	if err != nil {
		return nil, parallel.Cause(err)
	}
	return allocs, nil
}

// PackAllocs bin-packs the (already-sized) allocations onto the nodes:
// hot movies are expanded to their replica count, items are placed
// first-fit-decreasing by stream demand, and a cost-aware refinement
// pass then relocates items while relocation strictly lowers the
// cluster's imbalance cost Σ_nodes (streamUtil² + bufferUtil²). The
// whole pass is deterministic. A primary that fits on no node returns
// ErrUnplaceable; an unplaceable extra replica is dropped and counted.
func PackAllocs(allocs []MovieAlloc, nodes []NodeSpec, o Options) (Placement, error) {
	if err := validateNodes(nodes); err != nil {
		return Placement{}, err
	}
	if len(allocs) == 0 {
		return Placement{}, fmt.Errorf("%w: no allocations", ErrBadCluster)
	}
	seen := make(map[string]bool, len(allocs))
	for _, a := range allocs {
		if err := a.Validate(); err != nil {
			return Placement{}, err
		}
		if seen[a.Movie] {
			return Placement{}, fmt.Errorf("%w: duplicate movie %q", ErrBadCluster, a.Movie)
		}
		seen[a.Movie] = true
	}

	// Expand hot movies into replica items.
	copies := o.copies(len(allocs), len(nodes))
	hot := hotSet(allocs, o, len(nodes))
	type item struct {
		MovieAlloc
		replica int
		node    int // -1 until placed
	}
	var items []item
	for i, a := range allocs {
		c := 1
		if hot[i] {
			c = copies
		}
		for r := 0; r < c; r++ {
			items = append(items, item{MovieAlloc: a, replica: r, node: -1})
		}
	}
	// First-fit-decreasing order: all primaries before any extra
	// replica (so replication can never crowd out a movie's only copy),
	// then largest stream demand first, with buffer and name as
	// deterministic tie-breakers.
	sort.SliceStable(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if (a.replica == 0) != (b.replica == 0) {
			return a.replica == 0
		}
		if a.N != b.N {
			return a.N > b.N
		}
		if a.B != b.B {
			return a.B > b.B
		}
		if a.Movie != b.Movie {
			return a.Movie < b.Movie
		}
		return a.replica < b.replica
	})

	used := make([]struct {
		streams int
		buffer  float64
	}, len(nodes))
	hosts := make(map[string]int, len(items)) // movie+"\x00"+nodeID → 1
	fits := func(it item, n int) bool {
		if hosts[it.Movie+"\x00"+nodes[n].ID] != 0 {
			return false
		}
		return used[n].streams+it.N <= nodes[n].MaxStreams &&
			used[n].buffer+it.B <= nodes[n].MaxBuffer+bufferSlack
	}
	place := func(it *item, n int) {
		it.node = n
		used[n].streams += it.N
		used[n].buffer += it.B
		hosts[it.Movie+"\x00"+nodes[n].ID] = 1
	}
	unplace := func(it *item) {
		n := it.node
		it.node = -1
		used[n].streams -= it.N
		used[n].buffer -= it.B
		delete(hosts, it.Movie+"\x00"+nodes[n].ID)
	}

	dropped := 0
	kept := items[:0]
	for i := range items {
		it := items[i]
		placed := false
		for n := range nodes {
			if fits(it, n) {
				place(&it, n)
				placed = true
				break
			}
		}
		if !placed {
			if it.replica > 0 {
				dropped++
				continue
			}
			return Placement{}, fmt.Errorf("%w: movie %q needs (B=%.1f, n=%d)",
				ErrUnplaceable, it.Movie, it.B, it.N)
		}
		kept = append(kept, it)
	}
	items = kept

	// Cost-aware refinement: the convex per-node cost streamUtil² +
	// bufferUtil² rewards spreading load (moving an item from a fuller
	// node to an emptier one always lowers it), so repeated first-
	// improvement moves both balance the cluster and shave the peak
	// node. Bounded by 2·items moves; each full pass without a move
	// terminates.
	nodeCost := func(n int) float64 {
		sN := float64(used[n].streams) / float64(nodes[n].MaxStreams)
		sB := used[n].buffer / nodes[n].MaxBuffer
		return sN*sN + sB*sB
	}
	moves := 0
	for moves < 2*len(items) {
		improved := false
		for i := range items {
			it := &items[i]
			from := it.node
			before := nodeCost(from)
			bestTo, bestDelta := -1, -1e-12
			unplace(it)
			afterFrom := nodeCost(from)
			for n := range nodes {
				if n == from || !fits(*it, n) {
					continue
				}
				beforeTo := nodeCost(n)
				used[n].streams += it.N
				used[n].buffer += it.B
				delta := (afterFrom + nodeCost(n)) - (before + beforeTo)
				used[n].streams -= it.N
				used[n].buffer -= it.B
				if delta < bestDelta {
					bestDelta, bestTo = delta, n
				}
			}
			if bestTo >= 0 {
				place(it, bestTo)
				moves++
				improved = true
			} else {
				place(it, from)
			}
			if moves >= 2*len(items) {
				break
			}
		}
		if !improved {
			break
		}
	}

	p := Placement{Nodes: nodes, DroppedReplicas: dropped, RefineMoves: moves}
	for _, it := range items {
		p.Assignments = append(p.Assignments, Assignment{
			MovieAlloc: it.MovieAlloc,
			Node:       nodes[it.node].ID,
			Replica:    it.replica,
		})
		p.TotalStreams += it.N
		p.TotalBuffer += it.B
	}
	// Renumber replicas deterministically (drops can leave gaps) and
	// order the assignment list by movie, then node order.
	sort.SliceStable(p.Assignments, func(i, j int) bool {
		a, b := p.Assignments[i], p.Assignments[j]
		if a.Movie != b.Movie {
			return a.Movie < b.Movie
		}
		return a.Replica < b.Replica
	})
	replica := map[string]int{}
	for i := range p.Assignments {
		a := &p.Assignments[i]
		a.Replica = replica[a.Movie]
		replica[a.Movie]++
	}
	return p, nil
}
