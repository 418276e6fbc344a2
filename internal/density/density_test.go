package density

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/lp"
)

// MaxLPVars bounds the LP budgeter's problem size (variables = tiles + 1).
const MaxLPVars = 1200

// LPBudget computes a fill budget by solving the min-variation LP: maximize
// the minimum window density M subject to every window staying at or below
// maxDensity and every tile receiving at most its slack. The fractional
// areas are rounded down to whole features (rounding keeps all upper bounds
// satisfied). Only practical for coarse dissections; returns an error when
// the problem exceeds MaxLPVars variables. It is the exact reference the
// MonteCarlo budgeter is tested against.
func LPBudget(g *Grid, maxDensity float64) (Budget, error) {
	nx, ny := g.D.NX, g.D.NY
	nTiles := nx * ny
	if nTiles+1 > MaxLPVars {
		return nil, fmt.Errorf("density: LP budget with %d tiles exceeds %d variables; use MonteCarlo", nTiles, MaxLPVars-1)
	}
	wx, wy := g.D.NumWindows()
	// Variables: x[0..nTiles-1] = fill area per tile (in feature units),
	// x[nTiles] = M (minimum window density, scaled to [0,1]).
	nv := nTiles + 1
	tileVar := func(i, j int) int { return i*ny + j }

	obj := make([]float64, nv)
	obj[nTiles] = -1 // maximize M

	var cons []lp.Constraint
	fa := float64(g.FeatureArea)
	for wi := 0; wi < wx; wi++ {
		for wj := 0; wj < wy; wj++ {
			wa := float64(g.D.WindowRect(wi, wj).Area())
			base := 0.0
			coeffLo := make([]float64, nv)
			coeffHi := make([]float64, nTiles)
			for di := 0; di < g.D.R; di++ {
				for dj := 0; dj < g.D.R; dj++ {
					ti, tj := wi+di, wj+dj
					if ti >= nx || tj >= ny {
						continue
					}
					base += float64(g.TileArea[ti][tj])
					coeffLo[tileVar(ti, tj)] = fa / wa
					coeffHi[tileVar(ti, tj)] = fa / wa
				}
			}
			// (base + fa·Σx)/wa >= M  ->  Σ (fa/wa) x - M >= -base/wa
			coeffLo[nTiles] = -1
			cons = append(cons, lp.Constraint{Coeffs: coeffLo, Op: lp.GE, RHS: -base / wa})
			if maxDensity > 0 {
				cons = append(cons, lp.Constraint{Coeffs: coeffHi, Op: lp.LE, RHS: maxDensity - base/wa})
			}
		}
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			co := make([]float64, tileVar(i, j)+1)
			co[tileVar(i, j)] = 1
			cons = append(cons, lp.Constraint{Coeffs: co, Op: lp.LE, RHS: float64(g.TileSlack[i][j])})
		}
	}
	sol, err := lp.Solve(&lp.Problem{NumVars: nv, Objective: obj, Constraints: cons})
	if err != nil {
		return nil, fmt.Errorf("density: LP budget: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("density: LP budget: %v", sol.Status)
	}
	budget := g.NewBudget()
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			budget[i][j] = int(math.Floor(sol.X[tileVar(i, j)] + 1e-7))
			if budget[i][j] > g.TileSlack[i][j] {
				budget[i][j] = g.TileSlack[i][j]
			}
			if budget[i][j] < 0 {
				budget[i][j] = 0
			}
		}
	}
	return budget, nil
}

// testGrid builds a Grid directly from synthetic per-tile data, bypassing a
// full layout: nx x ny tiles of side `tile` nm, with given areas and slack.
func testGrid(t *testing.T, nx, ny, r int, tile int64, area func(i, j int) int64, slack func(i, j int) int) *Grid {
	t.Helper()
	die := geom.Rect{X1: 0, Y1: 0, X2: int64(nx) * tile, Y2: int64(ny) * tile}
	d, err := layout.NewDissection(die, tile*int64(r), r)
	if err != nil {
		t.Fatal(err)
	}
	g := &Grid{D: d, FeatureArea: 300 * 300}
	g.TileArea = make([][]int64, nx)
	g.TileSlack = make([][]int, nx)
	for i := 0; i < nx; i++ {
		g.TileArea[i] = make([]int64, ny)
		g.TileSlack[i] = make([]int, ny)
		for j := 0; j < ny; j++ {
			g.TileArea[i][j] = area(i, j)
			g.TileSlack[i][j] = slack(i, j)
		}
	}
	return g
}

func TestWindowDensityUniform(t *testing.T) {
	// Every tile 25% dense: every window must be exactly 0.25.
	tile := int64(2000)
	g := testGrid(t, 8, 8, 2, tile,
		func(i, j int) int64 { return tile * tile / 4 },
		func(i, j int) int { return 10 })
	wx, wy := g.D.NumWindows()
	for i := 0; i < wx; i++ {
		for j := 0; j < wy; j++ {
			if d := g.WindowDensity(i, j, nil); math.Abs(d-0.25) > 1e-12 {
				t.Fatalf("window (%d,%d) density %g, want 0.25", i, j, d)
			}
		}
	}
	minD, maxD := g.Stats(nil)
	if minD != maxD {
		t.Errorf("uniform grid has variation %g", maxD-minD)
	}
}

func TestWindowDensityWithFill(t *testing.T) {
	tile := int64(2000)
	g := testGrid(t, 4, 4, 2, tile,
		func(i, j int) int64 { return 0 },
		func(i, j int) int { return 100 })
	b := g.NewBudget()
	b[0][0] = 4 // 4 features of 300x300 in tile (0,0)
	got := g.WindowDensity(0, 0, b)
	want := 4.0 * 300 * 300 / float64(4000*4000)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("density = %g, want %g", got, want)
	}
	// A window not containing tile (0,0) is unaffected.
	if d := g.WindowDensity(2, 2, b); d != 0 {
		t.Errorf("far window density = %g, want 0", d)
	}
}

func TestMonteCarloLiftsMinDensity(t *testing.T) {
	// A density hole in one corner; plenty of slack everywhere.
	tile := int64(2000)
	g := testGrid(t, 8, 8, 2, tile,
		func(i, j int) int64 {
			if i < 2 && j < 2 {
				return 0
			}
			return tile * tile / 3
		},
		func(i, j int) int { return 40 })
	before, _ := g.Stats(nil)
	budget, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.30, MaxDensity: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if achieved < 0.30-1e-9 {
		t.Errorf("achieved min %g < target 0.30", achieved)
	}
	if achieved <= before {
		t.Errorf("no improvement: %g -> %g", before, achieved)
	}
	if err := g.CheckBudget(budget); err != nil {
		t.Error(err)
	}
	// Verify against a fresh full recomputation.
	minD, maxD := g.Stats(budget)
	if math.Abs(minD-achieved) > 1e-9 {
		t.Errorf("achieved %g but recomputed min %g", achieved, minD)
	}
	if maxD > 0.5+1e-9 {
		t.Errorf("max density %g exceeds bound", maxD)
	}
}

func TestMonteCarloRespectsSlack(t *testing.T) {
	// No slack anywhere: budget must be all zeros.
	tile := int64(2000)
	g := testGrid(t, 4, 4, 2, tile,
		func(i, j int) int64 { return 0 },
		func(i, j int) int { return 0 })
	budget, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if budget.Total() != 0 {
		t.Errorf("budget total %d, want 0", budget.Total())
	}
	if achieved != 0 {
		t.Errorf("achieved %g, want 0", achieved)
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	tile := int64(2000)
	mk := func() *Grid {
		return testGrid(t, 6, 6, 3, tile,
			func(i, j int) int64 { return int64(i*j) * 100000 },
			func(i, j int) int { return 20 })
	}
	b1, a1, err := MonteCarlo(mk(), MonteCarloOptions{TargetMin: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b2, a2, err := MonteCarlo(mk(), MonteCarloOptions{TargetMin: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || b1.Total() != b2.Total() {
		t.Fatal("same seed, different result")
	}
	for i := range b1 {
		for j := range b1[i] {
			if b1[i][j] != b2[i][j] {
				t.Fatalf("budgets differ at (%d,%d)", i, j)
			}
		}
	}
}

func TestMonteCarloExactAccounting(t *testing.T) {
	// Regression: the budgeter used to accumulate fa/winArea float deltas into
	// each window density on every insertion. Over tens of thousands of
	// insertions the rounding drift compounded, so the reported achieved
	// minimum disagreed with the exactly recomputed one and windows could
	// creep past MaxDensity. With integer accounting both figures come from
	// the same exact (base + count·featureArea)/windowArea quotient, so they
	// must agree bit for bit.
	tile := int64(8000)
	g := testGrid(t, 12, 12, 3, tile,
		func(i, j int) int64 { return tile * tile / int64(3+(i*7+j*13)%5) },
		func(i, j int) int { return 4000 })
	const maxD = 0.34
	budget, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.32, MaxDensity: maxD, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if budget.Total() < 10000 {
		t.Fatalf("budget total %d: too few insertions to exercise drift", budget.Total())
	}
	if err := g.CheckBudget(budget); err != nil {
		t.Fatal(err)
	}
	minD, maxGot := g.Stats(budget)
	if achieved != minD {
		t.Errorf("achieved %v != recomputed min %v (diff %g)", achieved, minD, achieved-minD)
	}
	if maxGot > maxD {
		t.Errorf("max window density %v exceeds bound %v", maxGot, maxD)
	}
}

func TestMonteCarloBadTarget(t *testing.T) {
	g := testGrid(t, 4, 4, 2, 2000,
		func(i, j int) int64 { return 0 }, func(i, j int) int { return 1 })
	if _, _, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0}); err == nil {
		t.Error("TargetMin=0 accepted")
	}
}

func TestLPBudgetSmall(t *testing.T) {
	// One empty quadrant; LP should reach a perfectly balanced minimum.
	tile := int64(2000)
	g := testGrid(t, 4, 4, 2, tile,
		func(i, j int) int64 {
			if i < 2 && j < 2 {
				return 0
			}
			return tile * tile / 4
		},
		func(i, j int) int { return 1000 })
	before, _ := g.Stats(nil)
	budget, err := LPBudget(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckBudget(budget); err != nil {
		t.Error(err)
	}
	after, maxD := g.Stats(budget)
	if after <= before {
		t.Errorf("LP did not improve min density: %g -> %g", before, after)
	}
	if maxD > 0.5+1e-9 {
		t.Errorf("max density %g over bound", maxD)
	}
	// With abundant slack the LP should equalize to ~0.25 (the dense tiles'
	// level), minus rounding of at most one feature per tile.
	if after < 0.2 {
		t.Errorf("after = %g, want >= 0.2", after)
	}
}

func TestLPBudgetTooLarge(t *testing.T) {
	g := testGrid(t, 40, 40, 2, 2000,
		func(i, j int) int64 { return 0 }, func(i, j int) int { return 1 })
	if _, err := LPBudget(g, 0.5); err == nil {
		t.Error("oversized LP accepted")
	}
}

func TestMaxMinDensity(t *testing.T) {
	tile := int64(2000)
	g := testGrid(t, 4, 4, 2, tile,
		func(i, j int) int64 { return tile * tile / 10 },
		func(i, j int) int { return 5 })
	best, err := MaxMinDensity(g, 0.9, 7)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := g.Stats(nil)
	if best < base {
		t.Errorf("MaxMinDensity %g below unfilled min %g", best, base)
	}
}

func TestNewGridFromLayout(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
	l := &layout.Layout{
		Name:   "g",
		Die:    die,
		Layers: []layout.Layer{{Name: "m3", Dir: layout.Horizontal, Width: 200}},
		Nets: []*layout.Net{{
			Name:   "n",
			Source: layout.Pin{P: geom.Point{X: 1000, Y: 8000}},
			Sinks:  []layout.Pin{{P: geom.Point{X: 15000, Y: 8000}}},
			Segments: []layout.Segment{{
				Layer: 0,
				A:     geom.Point{X: 1000, Y: 8000},
				B:     geom.Point{X: 15000, Y: 8000},
				Width: 200,
			}},
		}},
	}
	d, err := layout.NewDissection(die, 8000, 2)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := layout.NewSiteGrid(die, layout.FillRule{Feature: 300, Gap: 100, Buffer: 150})
	if err != nil {
		t.Fatal(err)
	}
	occ := layout.NewOccupancy(l, sg, 0)
	g := NewGrid(l, d, occ, 0)
	// Total tile area equals the wire's drawn area.
	var total int64
	for i := range g.TileArea {
		for j := range g.TileArea[i] {
			total += g.TileArea[i][j]
		}
	}
	if want := l.Nets[0].Segments[0].Rect().Area(); total != want {
		t.Errorf("total area %d, want %d", total, want)
	}
	// Total slack equals free sites whose centers are in the die (all).
	var slackTotal int
	for i := range g.TileSlack {
		for j := range g.TileSlack[i] {
			slackTotal += g.TileSlack[i][j]
		}
	}
	if slackTotal != occ.FreeSites() {
		t.Errorf("slack %d, want %d", slackTotal, occ.FreeSites())
	}
}

// TestQuickMonteCarloInvariants: budgets never exceed slack, never push any
// window above the bound, and the achieved min matches a recomputation.
func TestQuickMonteCarloInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := 4 + rng.Intn(4)
		r := []int{2, 2, 4}[rng.Intn(3)]
		if nx < r {
			nx = r
		}
		tile := int64(2000)
		die := geom.Rect{X1: 0, Y1: 0, X2: int64(nx) * tile, Y2: int64(nx) * tile}
		d, err := layout.NewDissection(die, tile*int64(r), r)
		if err != nil {
			return false
		}
		g := &Grid{D: d, FeatureArea: 300 * 300}
		g.TileArea = make([][]int64, nx)
		g.TileSlack = make([][]int, nx)
		for i := 0; i < nx; i++ {
			g.TileArea[i] = make([]int64, nx)
			g.TileSlack[i] = make([]int, nx)
			for j := 0; j < nx; j++ {
				g.TileArea[i][j] = rng.Int63n(tile * tile / 2)
				g.TileSlack[i][j] = rng.Intn(30)
			}
		}
		u := 0.6
		budget, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.4, MaxDensity: u, Seed: seed})
		if err != nil {
			return false
		}
		if g.CheckBudget(budget) != nil {
			return false
		}
		minD, maxD := g.Stats(budget)
		if math.Abs(minD-achieved) > 1e-9 {
			return false
		}
		// Fill insertion must not create violations of the upper bound that
		// did not already exist in the unfilled layout.
		_, maxBefore := g.Stats(nil)
		return maxD <= math.Max(u, maxBefore)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFillNeverDecreasesAnyWindow: adding the budget can only raise
// window densities.
func TestQuickFillNeverDecreasesAnyWindow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tile := int64(2000)
		nx := 6
		die := geom.Rect{X1: 0, Y1: 0, X2: int64(nx) * tile, Y2: int64(nx) * tile}
		d, err := layout.NewDissection(die, tile*2, 2)
		if err != nil {
			return false
		}
		g := &Grid{D: d, FeatureArea: 300 * 300}
		g.TileArea = make([][]int64, nx)
		g.TileSlack = make([][]int, nx)
		for i := 0; i < nx; i++ {
			g.TileArea[i] = make([]int64, nx)
			g.TileSlack[i] = make([]int, nx)
			for j := 0; j < nx; j++ {
				g.TileArea[i][j] = rng.Int63n(tile * tile / 2)
				g.TileSlack[i][j] = rng.Intn(20)
			}
		}
		budget, _, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.3, Seed: seed})
		if err != nil {
			return false
		}
		wx, wy := g.D.NumWindows()
		for i := 0; i < wx; i++ {
			for j := 0; j < wy; j++ {
				if g.WindowDensity(i, j, budget) < g.WindowDensity(i, j, nil)-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMonteCarlo16x16(b *testing.B) {
	tile := int64(2000)
	nx := 16
	die := geom.Rect{X1: 0, Y1: 0, X2: int64(nx) * tile, Y2: int64(nx) * tile}
	d, err := layout.NewDissection(die, tile*4, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	mk := func() *Grid {
		g := &Grid{D: d, FeatureArea: 300 * 300}
		g.TileArea = make([][]int64, nx)
		g.TileSlack = make([][]int, nx)
		for i := 0; i < nx; i++ {
			g.TileArea[i] = make([]int64, nx)
			g.TileSlack[i] = make([]int, nx)
			for j := 0; j < nx; j++ {
				g.TileArea[i][j] = rng.Int63n(tile * tile / 2)
				g.TileSlack[i][j] = rng.Intn(40)
			}
		}
		return g
	}
	g := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 0.35, MaxDensity: 0.7, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLPBudgetAtLeastMonteCarlo(t *testing.T) {
	// On a small grid the exact LP should reach a min density at least as
	// high as the randomized budgeter (up to one feature of rounding per
	// window).
	tile := int64(2000)
	g := testGrid(t, 6, 6, 2, tile,
		func(i, j int) int64 {
			if (i+j)%3 == 0 {
				return 0
			}
			return tile * tile / 4
		},
		func(i, j int) int { return 15 })
	lpB, err := LPBudget(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mcB, _, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 1.0, MaxDensity: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lpMin, _ := g.Stats(lpB)
	mcMin, _ := g.Stats(mcB)
	// Rounding the LP down can cost up to r^2 features per window.
	slack := float64(g.FeatureArea*4) / float64(g.D.WindowRect(0, 0).Area())
	if lpMin+slack < mcMin {
		t.Errorf("LP min %g (+%g rounding) below Monte-Carlo min %g", lpMin, slack, mcMin)
	}
}
