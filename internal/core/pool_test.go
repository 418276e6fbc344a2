package core

import (
	"context"
	"sync"
	"testing"

	"pilfill/internal/layout"
	"pilfill/internal/scanline"
)

var allMethods = []Method{Normal, Greedy, GreedyCapped, MarginalGreedy, DP, ILPI, ILPII, DualAscent}

// requireResultsIdentical compares everything a Result reports that is
// supposed to be deterministic: objective values bit-for-bit, counts, search
// effort, per-net attribution, and the exact fill geometry.
func requireResultsIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Unweighted != want.Unweighted || got.Weighted != want.Weighted {
		t.Errorf("%s: objective differs: (%g,%g) vs (%g,%g)",
			label, got.Unweighted, got.Weighted, want.Unweighted, want.Weighted)
	}
	if got.Placed != want.Placed || got.Requested != want.Requested || got.Tiles != want.Tiles {
		t.Errorf("%s: counts differ: placed %d/%d tiles %d vs %d/%d tiles %d",
			label, got.Placed, got.Requested, got.Tiles, want.Placed, want.Requested, want.Tiles)
	}
	if got.ILPNodes != want.ILPNodes || got.LPPivots != want.LPPivots {
		t.Errorf("%s: search effort differs: %d nodes/%d pivots vs %d/%d",
			label, got.ILPNodes, got.LPPivots, want.ILPNodes, want.LPPivots)
	}
	if got.DualFallbacks != want.DualFallbacks {
		t.Errorf("%s: dual fallbacks differ: %d vs %d", label, got.DualFallbacks, want.DualFallbacks)
	}
	for n := range want.PerNet {
		if got.PerNet[n] != want.PerNet[n] {
			t.Errorf("%s: PerNet[%d] = %g vs %g", label, n, got.PerNet[n], want.PerNet[n])
		}
	}
	if len(got.Fill.Fills) != len(want.Fill.Fills) {
		t.Fatalf("%s: fill counts differ: %d vs %d", label, len(got.Fill.Fills), len(want.Fill.Fills))
	}
	for i := range want.Fill.Fills {
		if got.Fill.Fills[i] != want.Fill.Fills[i] {
			t.Fatalf("%s: fill %d differs: %v vs %v", label, i, got.Fill.Fills[i], want.Fill.Fills[i])
		}
	}
}

// freshScratchRun is the reference for the pooled run path: every tile is
// solved on its own fresh SolveScratch (nothing warm, nothing shared, no
// memo), then folded through the same reduction RunContext uses.
func freshScratchRun(t *testing.T, eng *Engine, m Method, instances []*Instance) *Result {
	t.Helper()
	ctx := context.Background()
	base := eng.ilpOpts(ctx)
	outs := make([]tileOutcome, len(instances))
	for i, in := range instances {
		outs[i].a = make(Assignment, len(in.Columns))
		outs[i].st, outs[i].err = eng.solveTile(ctx, m, in, NewSolveScratch(), &base, eng.netCap(), outs[i].a, 0, 0)
	}
	res := &Result{
		Method: m,
		Fill:   &layout.FillSet{Grid: eng.Grid, Layer: eng.Cfg.Layer},
		PerNet: make([]float64, len(eng.L.Nets)),
	}
	if err := eng.reduce(ctx, res, m, instances, outs, false); err != nil {
		t.Fatalf("%v fresh-scratch reference: %v", m, err)
	}
	return res
}

// TestPooledMatchesUnpooled is the central equivalence guarantee of the
// zero-allocation path: for every method, Engine.Run on warm, reused worker
// scratches (assignment slab, reused searcher, pooled buffers) produces
// results bit-identical to solving each tile on a fresh scratch, serial and
// parallel alike.
func TestPooledMatchesUnpooled(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	eng.Cfg.NetCap = 1e-13 // give GreedyCapped a binding cap to exercise
	eng.memo = nil         // compare solves, not memo replays
	instances := mustInstances(t, eng, budget)
	if len(instances) == 0 {
		t.Fatal("no instances")
	}
	for _, m := range allMethods {
		ref := freshScratchRun(t, eng, m, instances)
		for _, workers := range []int{0, 4} {
			eng.Cfg.Workers = workers
			// Two runs back to back: the second reuses every warmed buffer,
			// so it also proves reuse does not leak state across runs.
			for pass := 0; pass < 2; pass++ {
				got, err := eng.Run(m, instances)
				if err != nil {
					t.Fatalf("%v pooled (workers=%d): %v", m, workers, err)
				}
				requireResultsIdentical(t, m.String(), got, ref)
			}
		}
		eng.Cfg.Workers = 0
	}
}

// TestWarmRunAllocs enforces the steady-state allocation budget: after a
// warm-up run, a whole Engine.Run allocates only its per-run fixed overhead
// (Result, PerNet, fill set, assignment slab, outcome table) — nothing per
// tile-solve beyond the fill features themselves.
func TestWarmRunAllocs(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	for _, m := range allMethods {
		if m == GreedyCapped {
			continue // identical machinery to Greedy when NetCap is 0
		}
		for i := 0; i < 2; i++ { // warm the scratch pool
			if _, err := eng.Run(m, instances); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := eng.Run(m, instances); err != nil {
				t.Fatal(err)
			}
		})
		// Fixed per-run overhead: Result + PerNet + FillSet + slab + outs +
		// scratch list + ~log2(placed) fill-append growths + timing. What it
		// must NOT include is anything proportional to tiles × solve work —
		// with 4 tiles the old path spent hundreds of allocations per tile.
		const maxPerRun = 40
		if avg > maxPerRun {
			t.Errorf("%v: warm run allocates %.0f times, want <= %d", m, avg, maxPerRun)
		}
	}
}

// TestConcurrentRunsSharePool hammers the engine's scratch freelist from
// concurrent Run calls (run under -race in CI) and checks every result is
// still bit-identical to a serial reference.
func TestConcurrentRunsSharePool(t *testing.T) {
	eng, budget := buildEngine(t, false, scanline.DefIII)
	instances := mustInstances(t, eng, budget)
	eng.Cfg.Workers = 2
	ref, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = eng.Run(ILPII, instances)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		requireResultsIdentical(t, "concurrent", results[g], ref)
	}
}
