package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// costKey pairs a column index with its sort key. The (key, k) pair is a
// total order, so every sort algorithm produces the same permutation.
type costKey struct {
	k   int
	key float64
}

func cmpCostKey(a, b costKey) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return a.k - b.k
}

func sortCostKeys(keys []costKey) { slices.SortFunc(keys, cmpCostKey) }

// wholeColumnKeys fills keys with each column's whole-column fill cost
// (r̂_k · ΔC(C_k)) sorted ascending — the order Fig 8's greedy consumes.
func wholeColumnKeys(keys []costKey, in *Instance) []costKey {
	keys = grow(keys, len(in.Columns))
	for k := range in.Columns {
		cv := &in.Columns[k]
		keys[k] = costKey{k: k, key: cv.costAt(cv.MaxM)}
	}
	sortCostKeys(keys)
	return keys
}

// SolveNormal emulates the performance-oblivious baseline: the prescribed
// number of features is spread uniformly at random over the tile's free
// sites (each site equally likely), exactly as a density-only fill tool
// would. The rng seed makes runs reproducible.
func SolveNormal(in *Instance, rng *rand.Rand) Assignment {
	a := make(Assignment, len(in.Columns))
	solveNormalInto(a, in, rng, nil)
	return a
}

// solveNormalInto is SolveNormal writing into a zeroed Assignment, reusing
// the slots buffer; the possibly-regrown buffer is returned for the caller
// to retain.
func solveNormalInto(a Assignment, in *Instance, rng *rand.Rand, slots []int) []int {
	total := in.TotalCapacity()
	if in.F <= 0 || total == 0 {
		return slots
	}
	// Sample F distinct sites out of `total` with a partial Fisher-Yates
	// over the implicit site array, then count per column.
	slots = grow(slots, total)
	idx := 0
	for k := range in.Columns {
		for m := 0; m < in.Columns[k].MaxM; m++ {
			slots[idx] = k
			idx++
		}
	}
	for i := 0; i < in.F; i++ {
		j := i + rng.Intn(total-i)
		slots[i], slots[j] = slots[j], slots[i]
		a[slots[i]]++
	}
	return slots
}

// SolveGreedy is Fig 8's method: columns are sorted by the delay cost of
// filling them completely (r̂_k · ΔC(C_k)), and fill is poured into whole
// columns in ascending cost order until the budget is exhausted.
func SolveGreedy(in *Instance) Assignment {
	a := make(Assignment, len(in.Columns))
	solveGreedyInto(a, in, nil)
	return a
}

// solveGreedyInto is SolveGreedy writing into a zeroed Assignment, reusing
// the keys buffer; the possibly-regrown buffer is returned.
func solveGreedyInto(a Assignment, in *Instance, keys []costKey) []costKey {
	keys = wholeColumnKeys(keys, in)
	remaining := in.F
	for _, kd := range keys {
		if remaining == 0 {
			break
		}
		take := in.Columns[kd.k].MaxM
		if take > remaining {
			take = remaining
		}
		a[kd.k] = take
		remaining -= take
	}
	return keys
}

// marginalItem is a heap entry: the cost of the next feature in a column.
type marginalItem struct {
	k     int
	next  int // the feature index this entry would place (1-based)
	delta float64
}

type marginalHeap []marginalItem

func (h marginalHeap) Len() int { return len(h) }
func (h marginalHeap) Less(a, b int) bool {
	if h[a].delta != h[b].delta {
		return h[a].delta < h[b].delta
	}
	return h[a].k < h[b].k
}
func (h marginalHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *marginalHeap) Push(x any)         { *h = append(*h, x.(marginalItem)) }
func (h *marginalHeap) Pop() any           { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h marginalHeap) Peek() *marginalItem { return &h[0] }

// pushItem and popItem are heap.Push/heap.Pop without the interface{}
// boxing (which allocates per item). heap.Fix performs the identical
// sift-up/sift-down, and Less is a total order (a column appears at most
// once), so the pop sequence matches container/heap exactly.
func (h *marginalHeap) pushItem(it marginalItem) {
	*h = append(*h, it)
	heap.Fix(h, h.Len()-1)
}

func (h *marginalHeap) popItem() marginalItem {
	n := h.Len() - 1
	h.Swap(0, n)
	it := (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return it
}

// SolveMarginalGreedy places one feature at a time, always into the column
// with the cheapest marginal cost. Because every exact cost curve is convex
// in m (ΔC(m) = ε·a/(d−m·w) − C_B has increasing differences), this greedy
// is provably optimal for the MDFC objective — it serves as the ablation
// reference showing the paper's whole-column Greedy loses only through its
// coarser granularity.
func SolveMarginalGreedy(in *Instance) Assignment {
	a := make(Assignment, len(in.Columns))
	var h marginalHeap
	solveMarginalGreedyInto(a, in, &h)
	return a
}

// solveMarginalGreedyInto is SolveMarginalGreedy writing into a zeroed
// Assignment. The heap buffer is passed by pointer (not value-in/value-out)
// so the slice header never escapes — with a scratch-owned buffer the warm
// path is allocation-free.
func solveMarginalGreedyInto(a Assignment, in *Instance, hp *marginalHeap) {
	h := (*hp)[:0]
	for k := range in.Columns {
		if in.Columns[k].MaxM > 0 {
			h = append(h, marginalItem{k: k, next: 1, delta: in.Columns[k].costAt(1)})
		}
	}
	*hp = h
	heap.Init(hp)
	for placed := 0; placed < in.F && hp.Len() > 0; placed++ {
		it := hp.popItem()
		a[it.k] = it.next
		cv := &in.Columns[it.k]
		if it.next < cv.MaxM {
			hp.pushItem(marginalItem{
				k:     it.k,
				next:  it.next + 1,
				delta: cv.costAt(it.next+1) - cv.costAt(it.next),
			})
		}
	}
}

// DPMaxStates bounds the dynamic program's table size (columns × budget).
const DPMaxStates = 50_000_000

// SolveDP computes the exact optimum by dynamic programming over columns:
// dp[f] = min cost to place f features in the columns seen so far. It is
// pseudo-polynomial — O(K·F·maxM) time, O(F) space — and is used as the
// optimality reference in tests and ablations.
func SolveDP(in *Instance) (Assignment, error) {
	return SolveDPContext(context.Background(), in)
}

// SolveDPContext is SolveDP with cancellation: the context is polled once
// per column (the outer loop of the table fill), bounding the work after a
// cancel to one column's O(F·maxM) row.
func SolveDPContext(ctx context.Context, in *Instance) (Assignment, error) {
	a := make(Assignment, len(in.Columns))
	if err := solveDPInto(ctx, a, in, NewSolveScratch()); err != nil {
		return nil, err
	}
	return a, nil
}

// solveDPInto is the DP table fill writing into a caller-owned Assignment,
// sourcing the dp rows and choice table from sc.
func solveDPInto(ctx context.Context, a Assignment, in *Instance, sc *SolveScratch) error {
	kn := len(in.Columns)
	if int64(kn)*int64(in.F+1) > DPMaxStates {
		return fmt.Errorf("core: DP instance too large (%d columns × %d budget)", kn, in.F)
	}
	const inf = math.MaxFloat64
	sc.dpA = grow(sc.dpA, in.F+1)
	sc.dpB = grow(sc.dpB, in.F+1)
	dp, next := sc.dpA, sc.dpB
	// choice[k][f] = m chosen for column k at budget f, rows carved from one
	// arena.
	sc.choiceRows = grow(sc.choiceRows, kn)
	sc.choiceArena = grow(sc.choiceArena, kn*(in.F+1))
	for k := 0; k < kn; k++ {
		sc.choiceRows[k] = sc.choiceArena[k*(in.F+1) : (k+1)*(in.F+1)]
	}
	choice := sc.choiceRows
	dp[0] = 0
	for f := 1; f <= in.F; f++ {
		dp[f] = inf
	}
	for k := 0; k < kn; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cv := &in.Columns[k]
		for f := 0; f <= in.F; f++ {
			best := inf
			var bestM int32
			maxM := cv.MaxM
			if maxM > f {
				maxM = f
			}
			for m := 0; m <= maxM; m++ {
				if dp[f-m] == inf {
					continue
				}
				c := dp[f-m] + cv.costAt(m)
				if c < best {
					best = c
					bestM = int32(m)
				}
			}
			next[f] = best
			choice[k][f] = bestM
		}
		dp, next = next, dp
	}
	if dp[in.F] == inf {
		return fmt.Errorf("core: DP found no feasible assignment for F=%d", in.F)
	}
	f := in.F
	for k := kn - 1; k >= 0; k-- {
		m := int(choice[k][f])
		a[k] = m
		f -= m
	}
	return nil
}
