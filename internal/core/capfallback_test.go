package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/par"
	"pilfill/internal/scanline"
	"pilfill/internal/testcases"
)

// t2CappedEngine prepares T2 at W=32, r=2, seed 1 the way pilfill's
// NewSession does for `pilfill -case T2 -r 2 -netcap 0.001`: the budget
// lifts every window to the probed maximum minimum density, and a 1 fs
// (1e-15 s) uniform net cap makes some tiles' fill amounts infeasible.
func t2CappedEngine(t *testing.T) (*Engine, []*Instance) {
	t.Helper()
	spec := testcases.T2()
	l, err := testcases.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := layout.NewDissection(l.Die, testcases.WindowNM(32), 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(l, dis, spec.Rule, Config{Seed: 1, NetCap: 1e-15, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	grid := density.NewGrid(l, dis, eng.Occ, 0)
	target, err := density.MaxMinDensity(grid, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	budget, _, err := density.MonteCarlo(grid, density.MonteCarloOptions{TargetMin: target, MaxDensity: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, mustInstances(t, eng, budget)
}

// TestCapInfeasibleTilesFallBack pins the one policy for tiles whose net
// caps make the fill amount infeasible: ILP-II and DualAscent place them
// with the capped greedy instead of failing the run, agree with each other,
// and every other tile keeps its exact optimum.
//
// It takes about 8 s normally and over two minutes under the race detector,
// so race builds skip it; the fan-out it runs through is race-tested by the
// pool and memo tests.
func TestCapInfeasibleTilesFallBack(t *testing.T) {
	if raceEnabled {
		t.Skip("T2 branch-and-bound is too slow under the race detector")
	}
	eng, instances := t2CappedEngine(t)
	nc := eng.netCap()

	ilpRes, err := eng.Run(ILPII, instances)
	if err != nil {
		t.Fatalf("ILP-II: %v", err)
	}
	dualRes, err := eng.Run(DualAscent, instances)
	if err != nil {
		t.Fatalf("DualAscent: %v", err)
	}
	if ilpRes.Placed >= ilpRes.Requested {
		t.Fatalf("ILP-II placed %d of %d: no tile was cap-infeasible", ilpRes.Placed, ilpRes.Requested)
	}
	if dualRes.Placed != ilpRes.Placed {
		t.Errorf("DualAscent placed %d, ILP-II %d", dualRes.Placed, ilpRes.Placed)
	}
	if d := math.Abs(dualRes.Unweighted - ilpRes.Unweighted); d > 1e-9*ilpRes.Unweighted {
		t.Errorf("objectives differ: DualAscent %g, ILP-II %g", dualRes.Unweighted, ilpRes.Unweighted)
	}

	// Oracle: solve each tile on its own. A tile whose ILP-II errors must be
	// placed exactly as the capped greedy places it; the others keep their
	// ILP-II optimum. Placing the expected assignments in instance order
	// must rebuild the run's fill site for site.
	want := make([]Assignment, len(instances))
	fallback := make([]bool, len(instances))
	par.For(2, len(instances), nil, func(_, i int) {
		in := instances[i]
		a, _, err := SolveILPII(in, &eng.Cfg.ILPOpts, nc)
		if err != nil {
			a = make(Assignment, len(in.Columns))
			solveGreedyCappedInto(a, in, nc, NewSolveScratch())
			fallback[i] = true
		}
		want[i] = a
	})
	if !slices.Contains(fallback, true) {
		t.Fatal("oracle found no cap-infeasible tile")
	}
	fs := &layout.FillSet{Grid: eng.Grid, Layer: eng.Cfg.Layer}
	for i, in := range instances {
		if err := eng.place(fs, in, want[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range []*Result{ilpRes, dualRes} {
		if !slices.Equal(res.Fill.Fills, fs.Fills) {
			t.Errorf("%v: fill differs from the per-tile oracle", res.Method)
		}
	}
}

// TestCapFallbackMemoAndWorkers runs the fallback policy where the race
// detector can afford it: on the small layout with a near-zero cap, a serial
// memo-off run, a Workers: 4 run that stores into a fresh memo and a second
// one that replays every tile from it (fallback flag included) must agree
// bit for bit.
func TestCapFallbackMemoAndWorkers(t *testing.T) {
	l, d := smallLayout(t)
	_, budget := buildEngine(t, false, scanline.DefIII)
	newEng := func(cfg Config) (*Engine, []*Instance) {
		t.Helper()
		eng, err := NewEngine(l, d, testRule, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng, mustInstances(t, eng, budget)
	}
	serial, insSerial := newEng(Config{Layer: 0, Seed: 42, NetCap: 1e-21})
	parallel, insParallel := newEng(Config{Layer: 0, Seed: 42, NetCap: 1e-21, Workers: 4, Memo: NewSolveMemo()})
	for _, m := range []Method{ILPII, DualAscent} {
		want, err := serial.Run(m, insSerial)
		if err != nil {
			t.Fatalf("%v serial: %v", m, err)
		}
		if want.Placed >= want.Requested {
			t.Fatalf("%v: placed %d of %d, no tile fell back", m, want.Placed, want.Requested)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := parallel.Run(m, insParallel)
			if err != nil {
				t.Fatalf("%v pass %d: %v", m, pass, err)
			}
			resultsIdentical(t, want, got, fmt.Sprintf("%v pass %d", m, pass))
			if got.ILPNodes != want.ILPNodes || got.LPPivots != want.LPPivots ||
				got.IncumbentsRepaired != want.IncumbentsRepaired || got.IncumbentsDropped != want.IncumbentsDropped {
				t.Errorf("%v pass %d: search effort differs", m, pass)
			}
			if pass == 1 && got.MemoHits != got.Tiles {
				t.Errorf("%v: warm pass replayed %d of %d tiles", m, got.MemoHits, got.Tiles)
			}
		}
	}
}
