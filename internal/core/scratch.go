package core

import (
	"math/rand"
	"slices"

	"pilfill/internal/ilp"
	"pilfill/internal/lp"
)

// SolveScratch owns every reusable buffer of one worker's tile-solve path:
// the branch-and-bound searcher (which in turn owns its lp.Workspace), the
// ILP-I/ILP-II problem-builder buffers, and the per-method solver scratch
// (greedy sort keys, marginal heap, Normal's sampler and rng, DP tables).
// After a few tiles the buffers reach the instance family's high-water mark
// and the steady-state solve path stops allocating.
//
// A SolveScratch is strictly worker-local: Engine.RunContext borrows one per
// worker from the engine's pool and returns it when the run ends, so no two
// goroutines ever share one. Everything built in a scratch (problems,
// incumbents, solutions) is overwritten by the next tile solved on it.
//
// The exported allocating entry points (Solve*, BuildILPI, BuildILPII) run
// the same code on a fresh scratch, and buffer reuse never changes results:
// a tile solved on a warm scratch is bit-identical to one solved on a fresh
// scratch.
type SolveScratch struct {
	ilpBuf *ilpScratch // ILP builders and searcher, created on first use

	// Heuristic-solver buffers.
	keys  []costKey
	mheap marginalHeap
	slots []int
	spent map[int]float64
	rng   *rand.Rand

	// DP buffers.
	dpA, dpB    []float64
	choiceArena []int32
	choiceRows  [][]int32

	// Dual-ascent buffers (see dual.go): the per-unit convexified-marginal
	// arena, the hull-vertex flag arena, per-column offsets into both, and
	// the monotone-chain hull stack.
	dualMarg []float64
	dualVert []bool
	dualOff  []int
	dualHull []int32

	// Solve-memo fingerprint buffers (serialization bytes and the canonical
	// net-ranking scratch), reused across the worker's tiles.
	fpBuf  []byte
	fpNets []int
}

// ilpScratch holds the ILP-I/ILP-II problem-builder buffers and the
// branch-and-bound searcher (about 1.5 KB before any buffer grows). A
// SolveScratch creates it on first use, so the fresh scratches behind the
// exported wrappers stay small when they never reach an ILP — as in
// SolveDualAscent on a certified tile.
type ilpScratch struct {
	searcher   ilp.Searcher
	opts       ilp.Options // per-tile options copy (Incumbent/Progress wiring)
	prob       ilp.Problem
	prog       ILPIIProgram
	obj        []float64
	vts        []ilp.VarType
	upper      []float64
	cons       []lp.Constraint
	rowArena   []float64 // backing storage for constraint rows, reset per tile
	inc        []float64 // incumbent vector
	vars       []ilpiiVars
	netRows    map[int][]float64
	netKeys    []int
	tmpA       Assignment // ILP-II incumbent assignment
	repairNets []int      // repairIncumbent's distinct capped-net list
}

// NewSolveScratch returns an empty scratch; buffers, the ILP builders and
// Normal's rng are created on first use, so a fresh scratch for a single
// solve stays cheap.
func NewSolveScratch() *SolveScratch { return &SolveScratch{} }

// ilpBuffers returns the scratch's ILP builder buffers, creating them on
// first use.
func (sc *SolveScratch) ilpBuffers() *ilpScratch {
	if sc.ilpBuf == nil {
		sc.ilpBuf = new(ilpScratch)
	}
	return sc.ilpBuf
}

// seededRNG returns the scratch's rng seeded with seed, creating it on first
// use. Re-seeding reinitializes the source exactly as rand.NewSource(seed)
// would, so a warm scratch draws the same sequence as a fresh rand.New.
func (sc *SolveScratch) seededRNG(seed int64) *rand.Rand {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(seed))
	} else {
		sc.rng.Seed(seed)
	}
	return sc.rng
}

// grow returns s resized to n entries, reusing capacity. Contents are
// unspecified — callers must overwrite every entry.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growZero is grow with every entry zeroed.
func growZero[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// newRow returns a zeroed coefficient row of length n carved from the row
// arena (rows already carved keep their old backing when the arena has to
// grow, so they stay valid). buildILPI/buildILPII restart the arena per tile.
func (b *ilpScratch) newRow(n int) []float64 {
	old := len(b.rowArena)
	if cap(b.rowArena)-old < n {
		b.rowArena = make([]float64, 0, 2*(cap(b.rowArena)+n))
		old = 0
	}
	row := b.rowArena[old : old+n : old+n]
	b.rowArena = b.rowArena[:old+n]
	clear(row)
	return row
}

// newProblem returns the scratch's cleared ilp.Problem shell with zeroed
// Objective/VarTypes/Upper slices of length n and an empty constraint list
// to append to (the builder stores the final list back in b.cons).
func (b *ilpScratch) newProblem(n int) *ilp.Problem {
	b.rowArena = b.rowArena[:0]
	b.obj = growZero(b.obj, n)
	b.vts = growZero(b.vts, n)
	b.upper = growZero(b.upper, n)
	b.prob = ilp.Problem{NumVars: n, Objective: b.obj, VarTypes: b.vts, Upper: b.upper,
		Constraints: b.cons[:0]}
	return &b.prob
}

// netRowsBuf returns an empty net→coefficient-row map, reused when possible.
func (b *ilpScratch) netRowsBuf() map[int][]float64 {
	if b.netRows == nil {
		b.netRows = map[int][]float64{}
	}
	clear(b.netRows)
	return b.netRows
}

// sortedNets returns the map's net indices in ascending order — the
// deterministic constraint order of the per-net cap rows.
func (b *ilpScratch) sortedNets(rows map[int][]float64) []int {
	nets := b.netKeys[:0]
	for net := range rows {
		nets = append(nets, net)
	}
	slices.Sort(nets)
	b.netKeys = nets
	return nets
}

// spentMap returns an empty per-net spend map, reused when possible.
func (sc *SolveScratch) spentMap() map[int]float64 {
	if sc.spent == nil {
		sc.spent = map[int]float64{}
	}
	clear(sc.spent)
	return sc.spent
}

// getScratches borrows n worker scratches from the engine's pool, creating
// new ones as needed. The pool is a plain mutex-guarded freelist rather than
// a sync.Pool so warm buffers survive garbage collection — the steady-state
// allocation guarantees (and the AllocsPerRun tests enforcing them) do not
// depend on GC timing.
func (e *Engine) getScratches(n int) []*SolveScratch {
	out := make([]*SolveScratch, n)
	e.scratchMu.Lock()
	for i := 0; i < n; i++ {
		if k := len(e.scratchFree); k > 0 {
			out[i] = e.scratchFree[k-1]
			e.scratchFree[k-1] = nil
			e.scratchFree = e.scratchFree[:k-1]
		}
	}
	e.scratchMu.Unlock()
	for i := range out {
		if out[i] == nil {
			out[i] = NewSolveScratch()
		}
	}
	return out
}

// putScratches returns borrowed scratches to the engine's pool.
func (e *Engine) putScratches(scs []*SolveScratch) {
	e.scratchMu.Lock()
	e.scratchFree = append(e.scratchFree, scs...)
	e.scratchMu.Unlock()
}
