package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// workload is one traffic mix: the instances it draws from, the order the
// clients send them in, and how the servers are deployed.
type workload struct {
	name   string
	routed bool // cspr in front of two cspd replicas, else cspd alone
	// rounds is how many fresh deployments a -trace 0 run measures, each
	// for an equal share of the window (see measure).
	rounds int
	// hot is the hit workloads' hot set, sent once per deployment before
	// timing and inside setup_s, so every timed request hits.
	hot []int
	// prefill is the result-cache size tractable-cold fills before timing,
	// outside setup_s, so every timed request also evicts.
	prefill int
	// order lists instance indexes in send order. In a timed workload
	// round k of a run starts where round k-1 stopped; a run that reaches
	// the end of the order stops early and reports over its shorter
	// makespan.
	order []int
	// batch marks a fixed-batch workload: every request of order is sent,
	// whatever the speed of the code under test, split evenly across the
	// rounds, and no window applies.
	batch bool
	insts []*instance
}

// roundOrder returns what round i of n sends and for how long: the rest of
// the order from offset for window, or the round's share of the batch
// (window zero: until it is done).
func (w *workload) roundOrder(i, n, offset int, window time.Duration) ([]int, time.Duration) {
	if w.batch {
		return w.order[i*len(w.order)/n : (i+1)*len(w.order)/n], 0
	}
	return w.order[offset:], window
}

// warm returns what a deployment is sent before a window that starts at
// order position offset: the hot set, or the prefill instances that
// precede offset in tractable-cold's cycle (positions offset-prefill ..
// offset-1, which the cycle repeats at offset+len-prefill ..).
func (w *workload) warm(offset int) []int {
	if w.prefill > 0 {
		n := len(w.insts)
		return w.order[offset+n-w.prefill : offset+n]
	}
	return w.hot
}

// tractableFamily is a tractable generator and the largest body it
// contributes to the hot set and to the cold pool. Classification of
// α-acyclic and width-3 instances grows superlinearly with size (on a
// 2-core VM a 244 KB full 3-tree takes about 6 s, a 32 KB one about
// 80 ms), and the hot set is solved cold once per warm-up, inside setup_s;
// so those families stop at 64 KB in the hot set, and 3-trees stop at
// 16 KB in the cold pool, where every request classifies, to keep each
// request near 5-30 ms.
type tractableFamily struct {
	gen             func(rng *rand.Rand, target, i int) *instance
	hotMax, coldMax int
}

// tractableFamilies, in the order the size ladders cycle through them.
var tractableFamilies = []tractableFamily{
	{genTree, 250 << 10, 32 << 10},
	{genSchaefer, 250 << 10, 32 << 10},
	{genAcyclic, 64 << 10, 32 << 10},
	{genWidth, 64 << 10, 16 << 10},
}

const (
	// hotPerFamily × 4 families is the hot set: well under cspd's default
	// 256-entry result cache, so every timed request is a hit.
	hotPerFamily = 12
	// coldPerFamily × 4 is the cold pool. It is cycled in one fixed order,
	// so an instance recurs only after 2×256 others: every request misses
	// the result cache and the dispatcher's classification cache.
	coldPerFamily = 128
	// hardPerSecond sizes the hard batch: about what the seed code
	// completes per second on a 2-core VM, so a run sends the batch in
	// about its --seconds.
	hardPerSecond = 16
	// ordersPerSecond sizes the hit and cold send orders; a run that
	// exhausts one ends early and reports over its shorter makespan.
	ordersPerSecond = 4000
)

// ladder returns n body sizes spaced geometrically from lo to hi bytes. The
// sizes are fixed, not seeded, so every seed sends the same byte volume and
// only the instances' contents vary.
func ladder(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		f := 0.0
		if n > 1 {
			f = float64(i) / float64(n-1)
		}
		out[i] = int(float64(lo) * math.Pow(float64(hi)/float64(lo), f))
	}
	return out
}

// tractableSet draws perFamily instances of each tractable family on a
// size ladder from lo bytes to the family's hot or cold maximum,
// interleaved by family. Instance i of a family is the i-th rung.
func tractableSet(rng *rand.Rand, perFamily, lo int, hot bool) []*instance {
	ladders := make([][]int, len(tractableFamilies))
	for f, fam := range tractableFamilies {
		top := fam.coldMax
		if hot {
			top = fam.hotMax
		}
		ladders[f] = ladder(perFamily, lo, top)
	}
	var out []*instance
	for i := 0; i < perFamily; i++ {
		for f, fam := range tractableFamilies {
			out = append(out, fam.gen(rng, ladders[f][i], i))
		}
	}
	return out
}

// repeatShuffled returns an order of length n that runs through 0..k-1 in a
// fresh seeded permutation each round.
func repeatShuffled(rng *rand.Rand, k, n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// cycle returns an order of length n that repeats one seeded permutation of
// 0..k-1, so each index recurs exactly every k requests.
func cycle(rng *rand.Rand, k, n int) []int {
	perm := rng.Perm(k)
	out := make([]int, n)
	for i := range out {
		out[i] = perm[i%k]
	}
	return out
}

var workloadNames = []string{"hot-hits", "tractable-cold", "hard-cold", "routed-hits"}

// buildWorkload generates every body of a workload from the seed, before
// any server starts.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name}
	switch name {
	case "hot-hits", "routed-hits":
		w.routed = name == "routed-hits"
		w.insts = tractableSet(rng, hotPerFamily, 3<<10, true)
		w.rounds = 3
		// Warm in ladder order, not a seeded one: which large solves
		// overlap during the warm-up sets the peak RSS, so that overlap
		// is the same for every seed.
		w.hot = make([]int, len(w.insts))
		for i := range w.hot {
			w.hot[i] = i
		}
		w.order = repeatShuffled(rng, len(w.insts), ordersPerSecond*seconds)
	case "tractable-cold":
		w.rounds, w.prefill = 3, 256
		w.insts = tractableSet(rng, coldPerFamily, 4<<10, false)
		w.order = cycle(rng, len(w.insts), ordersPerSecond*seconds+len(w.insts))
	case "hard-cold":
		// One phase-transition instance per two quasigroups: the two
		// families' latencies form separate clusters, and an even split
		// would put the median on the gap between them.
		w.rounds, w.batch = 5, true
		n := hardPerSecond * seconds
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				w.insts = append(w.insts, genPhase(rng, 20, 10, 0.5))
			} else {
				w.insts = append(w.insts, genQuasigroup(rng, 8, 30))
			}
		}
		w.order = rng.Perm(n)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}
