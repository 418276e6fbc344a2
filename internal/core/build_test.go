package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pilfill/internal/cap"
	"pilfill/internal/density"
	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/scanline"
	"pilfill/internal/testcases"
)

// chipEngine prepares the repeating-pattern chip (cellsX*4 x cellsY tiles)
// with the chip benchmark's FFT budget.
func chipEngine(tb testing.TB, cellsX, cellsY int, cfg Config) (*Engine, density.Budget) {
	tb.Helper()
	spec := testcases.Chip(cellsX, cellsY)
	l, err := testcases.GenerateChip(spec)
	if err != nil {
		tb.Fatal(err)
	}
	dis, err := layout.NewDissection(l.Die, 12800, 4)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := NewEngine(l, dis, spec.Rule, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	grid := density.NewGrid(l, dis, eng.Occ, 0)
	budget, _, err := density.FFTBudget(grid, density.NewKernel(density.EllipticKernel, 4),
		density.FFTBudgetOptions{TargetMin: 0.3, MaxDensity: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, budget
}

// freeRowsCenterOutSort is the original center-out order: scan the free
// rows, then sort by (distance to the gap center, row).
func freeRowsCenterOutSort(e *Engine, col *scanline.Column) []int {
	free := make([]int, 0, col.RowHi-col.RowLo)
	for r := col.RowLo; r < col.RowHi; r++ {
		if !e.Occ.Blocked(col.Col, r) {
			free = append(free, r)
		}
	}
	center := (col.YLo + col.YHi) / 2
	sort.Slice(free, func(a, b int) bool {
		da := absI64(e.Grid.SiteY(free[a]) + e.Rule.Feature/2 - center)
		db := absI64(e.Grid.SiteY(free[b]) + e.Rule.Feature/2 - center)
		if da != db {
			return da < db
		}
		return free[a] < free[b]
	})
	return free
}

func TestFreeRowsCenterOutMatchesSort(t *testing.T) {
	die := geom.Rect{X1: 50, Y1: 70, X2: 4050, Y2: 16070}
	grid, err := layout.NewSiteGrid(die, testRule)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Grid: grid, Rule: testRule,
		Occ: layout.NewOccupancy(&layout.Layout{Die: die}, grid, 0)}
	rng := rand.New(rand.NewSource(9))
	pitch := testRule.Pitch()
	siteCenter := func(r int) int64 { return grid.SiteY(r) + testRule.Feature/2 }
	var odd, even, ties int
	for trial := 0; trial < 4000; trial++ {
		c := rng.Intn(grid.Cols)
		for r := 0; r < grid.Rows; r++ {
			e.Occ.SetBlocked(c, r, rng.Intn(3) == 0)
		}
		lo := rng.Intn(grid.Rows)
		hi := lo + rng.Intn(grid.Rows-lo+1)
		yLo := die.Y1 + int64(rng.Intn(int(die.Height())))
		yHi := yLo + 1 + int64(rng.Intn(int(die.Height())))
		switch trial % 4 {
		case 0: // center exactly between two site centers: a tie
			r := rng.Intn(grid.Rows - 1)
			mid := siteCenter(r) + pitch/2
			h := int64(rng.Intn(4000))
			yLo, yHi = mid-h, mid+h
		case 1: // center exactly on a site center
			mid := siteCenter(rng.Intn(grid.Rows))
			h := int64(rng.Intn(4000))
			yLo, yHi = mid-h, mid+h+int64(rng.Intn(2))
		}
		if (yHi-yLo)%2 == 0 {
			even++
		} else {
			odd++
		}
		center := (yLo + yHi) / 2
		for r := lo; r+1 < hi; r++ {
			if center-siteCenter(r) == siteCenter(r+1)-center {
				ties++
			}
		}
		col := &scanline.Column{Col: c, YLo: yLo, YHi: yHi, RowLo: lo, RowHi: hi}
		want := freeRowsCenterOutSort(e, col)
		got := e.freeRowsCenterOut(make([]int, 0, len(want)), col)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (rows [%d,%d), gap [%d,%d)): center-out %v, sort %v", trial, lo, hi, yLo, yHi, got, want)
		}
	}
	if odd == 0 || even == 0 || ties == 0 {
		t.Fatalf("coverage: %d odd, %d even gap heights, %d exact ties", odd, even, ties)
	}
}

// TestRunsLeaveCapTablesUntouched: DeltaC aliases the cached capacitance
// tables, so no method may write through it. Every cached table must hash
// the same before and after all eight methods run, still equal a fresh
// build, and keep ΔC(0) = 0.
func TestRunsLeaveCapTablesUntouched(t *testing.T) {
	cache := cap.NewTableCache()
	eng, budget := chipEngine(t, 2, 8, Config{Seed: 3, Cache: cache, NoSolveMemo: true, NetCap: 0.0005e-12})
	instances := mustInstances(t, eng, budget)
	type key struct {
		d    int64
		maxM int
	}
	keys := map[key]bool{}
	for _, in := range instances {
		for k := range in.Columns {
			cv := &in.Columns[k]
			if cv.DeltaC == nil {
				continue
			}
			if cv.DeltaC[0] != 0 {
				t.Fatalf("tile (%d,%d) column %d: DeltaC[0] = %g", in.I, in.J, k, cv.DeltaC[0])
			}
			keys[key{cv.Col.Spacing(), cv.MaxM}] = true
		}
	}
	if len(keys) == 0 {
		t.Fatal("no attributed columns")
	}
	sorted := make([]key, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	slices.SortFunc(sorted, func(a, b key) int {
		if a.d != b.d {
			return int(a.d - b.d)
		}
		return a.maxM - b.maxM
	})
	hashTables := func() uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, k := range sorted {
			tbl := cache.Table(eng.Cfg.Proc, eng.Rule.Feature, k.d, k.maxM, false)
			for _, v := range tbl.Deltas {
				bits := math.Float64bits(v)
				for i := range b {
					b[i] = byte(bits >> (8 * i))
				}
				h.Write(b[:])
			}
		}
		return h.Sum64()
	}
	before := hashTables()
	for _, m := range []Method{Normal, Greedy, ILPI, ILPII, DP, MarginalGreedy, GreedyCapped, DualAscent} {
		if _, err := eng.Run(m, instances); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
	if after := hashTables(); after != before {
		t.Fatal("a run modified a cached capacitance table")
	}
	for _, k := range sorted {
		got := cache.Table(eng.Cfg.Proc, eng.Rule.Feature, k.d, k.maxM, false)
		want := eng.Cfg.Proc.BuildTable(eng.Rule.Feature, k.d, k.maxM)
		if !slices.Equal(got.Deltas, want.Deltas) {
			t.Fatalf("cached table (d=%d, maxM=%d) differs from a fresh build", k.d, k.maxM)
		}
	}
	for _, in := range instances {
		for k := range in.Columns {
			if dc := in.Columns[k].DeltaC; dc != nil && dc[0] != 0 {
				t.Fatalf("tile (%d,%d) column %d: DeltaC[0] = %g after the runs", in.I, in.J, k, dc[0])
			}
		}
	}
}

// maxAllocsPerInstance caps Engine.Instances: the Instance, its Columns,
// its curve slab and its free-row slab.
const maxAllocsPerInstance = 4

// TestInstancesAllocationCeiling fails if instance construction goes back to
// allocating per column: the fixture's instances average far more columns
// than the per-instance ceiling.
func TestInstancesAllocationCeiling(t *testing.T) {
	eng, budget := chipEngine(t, 2, 8, Config{Workers: 1, Cache: cap.NewTableCache()})
	instances := mustInstances(t, eng, budget) // warms the table cache
	cols := 0
	for _, in := range instances {
		cols += len(in.Columns)
	}
	if len(instances) < 16 || cols < 8*maxAllocsPerInstance*len(instances) {
		t.Fatalf("fixture too small: %d instances, %d columns", len(instances), cols)
	}
	allocs := testing.AllocsPerRun(3, func() { mustInstances(t, eng, budget) })
	// A few allocations per call (tile list, result and error slices, the
	// fan-out closure) on top of the per-instance ones.
	if limit := float64(maxAllocsPerInstance*len(instances) + 16); allocs > limit {
		t.Fatalf("Instances made %.0f allocations for %d instances (%d columns), ceiling %.0f",
			allocs, len(instances), cols, limit)
	}
}

func BenchmarkEngineInstances(b *testing.B) {
	eng, budget := chipEngine(b, 10, 40, Config{Workers: 1, Cache: cap.NewTableCache()})
	mustInstances(b, eng, budget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustInstances(b, eng, budget)
	}
}
