package cluster

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vodalloc/internal/sim"
)

// sortOracle is the reference the sorted windows replace: the last
// size samples since the last reset, in arrival order, whose quantile
// is read by copying and sorting them on every query.
type sortOracle struct {
	size    int
	samples []float64
}

func (o *sortOracle) push(v float64) {
	o.samples = append(o.samples, v)
	if len(o.samples) > o.size {
		o.samples = o.samples[1:]
	}
}

func (o *sortOracle) reset() { o.samples = nil }

func (o *sortOracle) quantile(q float64) float64 {
	if len(o.samples) == 0 {
		return 0
	}
	s := append([]float64(nil), o.samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// inArrivalOrder lists the window's samples oldest first.
func inArrivalOrder(w *sampleWindow) []float64 {
	if w.n < len(w.ring) {
		return append([]float64(nil), w.ring[:w.n]...)
	}
	return append(append([]float64(nil), w.ring[w.i:]...), w.ring[:w.i]...)
}

// drawWait draws a sample from a mix that stresses the mirror: a small
// value set (many duplicates, including the eviction of one of several
// equal samples), +Inf, zero, and continuous draws.
func drawWait(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Inf(1)
	case 1:
		return 0
	case 2, 3, 4:
		return float64(1 + rng.Intn(4))
	default:
		return rng.ExpFloat64() * 3
	}
}

// drawWindow draws a window size in [4, 4096], mostly small so that
// wrap-around and eviction dominate.
func drawWindow(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return 4 + rng.Intn(4093)
	}
	return 4 + rng.Intn(61)
}

// TestSampleWindowMatchesSortOracle drives node trackers through random
// observe/reset sequences — duplicates, +Inf, windows of 4–4096, partial
// fills — and requires every quantile to equal the copy-and-sort oracle
// and the ring to keep arrival order (the digest folds it).
func TestSampleWindowMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		size := drawWindow(rng)
		nh := nodeHealth{win: newSampleWindow(size)}
		o := sortOracle{size: size}
		ops := rng.Intn(3 * size)
		// Large windows are checked every few dozen ops: the oracle's
		// per-query sort is what the windows exist to avoid.
		stride := 1 + size/64
		for op := 0; op < ops; op++ {
			if rng.Intn(200) == 0 {
				nh.reset()
				o.reset()
			} else {
				v := drawWait(rng)
				nh.observe(0.3, v)
				o.push(v)
			}
			if op%stride != 0 && op != ops-1 {
				continue
			}
			if !slices.IsSorted(nh.win.sorted) || len(nh.win.sorted) != nh.win.n {
				t.Fatalf("trial %d op %d: mirror unsorted or sized %d for %d samples", trial, op, len(nh.win.sorted), nh.win.n)
			}
			for _, q := range []float64{0.5, 0.9, 0.95, rng.Float64()} {
				if got, want := nh.win.quantile(q), o.quantile(q); got != want {
					t.Fatalf("trial %d (window %d) op %d: quantile(%v) = %v, oracle %v", trial, size, op, q, got, want)
				}
			}
		}
		if got := inArrivalOrder(&nh.win); !slices.Equal(got, o.samples) {
			t.Fatalf("trial %d: ring %v, want arrival order %v", trial, got, o.samples)
		}
	}
}

// TestHedgeDeadlineMatchesSortOracle drives the router's deadline window
// through random waits and fill levels, and requires the deadline and
// its armed flag to equal the copy-and-sort oracle's.
func TestHedgeDeadlineMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		r, err := NewRouter(grayPlacement(t), 7)
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		if err := r.SetGrayPolicy(PolicyHedge, HealthConfig{}); err != nil {
			t.Fatalf("SetGrayPolicy: %v", err)
		}
		o := sortOracle{size: 4 * healthWindow}
		ops := rng.Intn(3 * o.size)
		stride := 1 + o.size/64
		for op := 0; op < ops; op++ {
			v := drawWait(rng)
			r.recordWaitLocked(v)
			o.push(v)
			if op%stride != 0 && op != ops-1 {
				continue
			}
			dl, armed := r.hedgeDeadlineLocked()
			wantArmed := len(o.samples) >= hedgeWarm
			want := 0.0
			if wantArmed {
				want = math.Max(o.quantile(hedgeQuantile), hedgeMin)
			}
			if dl != want || armed != wantArmed {
				t.Fatalf("trial %d op %d: deadline (%v, %v), oracle (%v, %v)", trial, op, dl, armed, want, wantArmed)
			}
		}
	}
}

// diskHedgeScenario is the smoke-size hedged gray timeline with
// disk-granular health on: four disks per node and a third fault slowing
// one disk of node1, so node and disk windows both fill, evict, and
// reset through probation.
func diskHedgeScenario(t *testing.T) ChurnConfig {
	t.Helper()
	cfg := grayScenario(t, PolicyHedge)
	for i := range cfg.Placement.Nodes {
		cfg.Placement.Nodes[i].Disks = 4
	}
	cfg.Health.DiskHealth = true
	cfg.Gray = append(cfg.Gray, GrayFault{Kind: GraySlow, Node: "node1", Disk: 3, At: 250, Until: 650, Factor: 12})
	return cfg
}

// TestChurnHedgeDiskHealthPinned pins the hedged DiskHealth scenario's
// Summary and every checkpoint digest to the values recorded with the
// copy-and-sort quantiles the sorted windows replaced: a change in any
// routing decision, tracker sample or ring order moves them.
func TestChurnHedgeDiskHealthPinned(t *testing.T) {
	const (
		wantSummary = "34b48fbfbb150a30d4fc5750d9d19e670f194dee7d0c91605a4973dcf1a039b4"
		wantFold    = 0x29f47777337b5468
		wantLast    = 0x908f6962bdcb3553
	)
	fold := uint64(1469598103934665603)
	var last sim.Checkpoint
	res, err := RunChurnCheckpointed(context.Background(), diskHedgeScenario(t), 256, func(cp sim.Checkpoint) error {
		fold ^= cp.Digest
		fold *= 1099511628211
		last = cp
		return nil
	})
	if err != nil {
		t.Fatalf("RunChurnCheckpointed: %v", err)
	}
	if res.Gray.Hedges == 0 || res.Gray.DiskQuarantines == 0 || res.Gray.Quarantines == 0 {
		t.Fatalf("scenario no longer hedges and quarantines disks and nodes: %+v", res.Gray)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Summary()))); got != wantSummary {
		t.Errorf("Summary sha256 = %s, want %s\n%s", got, wantSummary, res.Summary())
	}
	if fold != wantFold || last.Digest != wantLast {
		t.Errorf("checkpoint digests fold %016x last %016x, want %016x and %016x",
			fold, last.Digest, uint64(wantFold), uint64(wantLast))
	}
}
