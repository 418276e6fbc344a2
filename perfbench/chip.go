package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"pilfill"
	"pilfill/internal/core"
	"pilfill/internal/density"
	"pilfill/internal/layout"
	"pilfill/internal/server"
	"pilfill/internal/testcases"
)

// The chip_dedup and cluster_scatter chip: testcases.GenerateChip at
// chipTiles x chipTiles tiles under the benchchip dissection (12800 nm
// windows, r = 4, so one 12800 x 3200 nm cell per 4 x 1 tiles).
const (
	chipTiles = 200
	windowNM  = 12800
	rFactor   = 4
)

// chipLayout generates the chip with the seed's net order.
func chipLayout(seed int64) (*layout.Layout, layout.FillRule, error) {
	spec := testcases.Chip(chipTiles/4, chipTiles)
	l, err := testcases.GenerateChip(spec)
	if err != nil {
		return nil, layout.FillRule{}, err
	}
	permuteNets(l, seed)
	return l, spec.Rule, nil
}

// encodeDEF is the set-up step shared by the DEF-driven workloads.
func encodeDEF(l *layout.Layout) ([]byte, error) {
	var buf bytes.Buffer
	if err := pilfill.SaveDEF(&buf, l, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// chipDedup runs benchchip's memo-on pipeline on one engine: DEF bytes →
// LoadDEF → NewEngine → FFTBudget → Instances → Run(ILP-II), with a fresh
// memo and two solving threads.
type chipDedup struct {
	seed int64
	def  []byte
	rule layout.FillRule

	// Filled by run for layers.
	l         *layout.Layout
	eng       *core.Engine
	memo      *core.SolveMemo
	budget    density.Budget
	instances int
	res       *core.Result
	parseS    float64
	engineS   float64
	budgetS   float64
}

func setupChipDedup(seed int64, _ *reference) (job, error) {
	l, rule, err := chipLayout(seed)
	if err != nil {
		return nil, err
	}
	def, err := encodeDEF(l)
	if err != nil {
		return nil, err
	}
	return &chipDedup{seed: seed, def: def, rule: rule}, nil
}

// The benchchip solve settings.
const (
	chipTarget     = 0.3
	chipMaxDensity = 0.5
	chipNetCapPS   = 0.0005
)

func (c *chipDedup) run(led *ledger) (int, error) {
	var (
		err       error
		instances []*core.Instance
	)
	if err = led.stage("def.parse", func() error {
		t := time.Now()
		c.l, err = pilfill.LoadDEF(bytes.NewReader(c.def))
		c.parseS = time.Since(t).Seconds()
		return err
	}); err != nil {
		return 0, err
	}
	c.memo = core.NewSolveMemo()
	if err = led.stage("core.engine", func() error {
		t := time.Now()
		dis, err := layout.NewDissection(c.l.Die, windowNM, rFactor)
		if err != nil {
			return err
		}
		c.eng, err = core.NewEngine(c.l, dis, c.rule, core.Config{
			Seed: 1, Workers: solveThreads(), NetCap: chipNetCapPS * 1e-12, Memo: c.memo,
		})
		c.engineS = time.Since(t).Seconds()
		return err
	}); err != nil {
		return 0, err
	}
	if err = led.stage("density.budget", func() error {
		t := time.Now()
		grid := density.NewGrid(c.l, c.eng.Dis, c.eng.Occ, 0)
		c.budget, _, err = density.FFTBudget(grid, density.NewKernel(density.EllipticKernel, rFactor),
			density.FFTBudgetOptions{TargetMin: chipTarget, MaxDensity: chipMaxDensity})
		c.budgetS = time.Since(t).Seconds()
		return err
	}); err != nil {
		return 0, err
	}
	if err = led.stage("core.build", func() error {
		instances, err = c.eng.Instances(c.budget)
		return err
	}); err != nil {
		return 0, err
	}
	c.instances = len(instances)
	if err = led.stage("core.run", func() error {
		c.res, err = c.eng.Run(core.ILPII, instances)
		return err
	}); err != nil {
		return 0, err
	}
	err = led.stage("check", func() error { return c.check() })
	return c.res.Tiles, err
}

// check applies the invariants to every seed and the golden values to the
// default seed.
func (c *chipDedup) check() error {
	res := c.res
	if err := checkResult(res, c.eng, c.instances); err != nil {
		return err
	}
	if st := c.memo.Stats(); int(st.Hits+st.Misses) != res.Tiles || res.MemoHits+res.MemoMisses != res.Tiles {
		return fmt.Errorf("memo lookups %d+%d (result %d+%d) for %d tiles", st.Hits, st.Misses, res.MemoHits, res.MemoMisses, res.Tiles)
	}
	if c.seed != defaultSeed {
		return nil
	}
	return goldenChipDedup.compare(summarize(res))
}

// checkResult holds the invariants of one engine run: every instance
// solved, no more placed than requested, every placed site distinct, on
// the grid and free, and delay totals finite, non-negative and equal to the
// per-net sum.
func checkResult(res *core.Result, eng *core.Engine, instances int) error {
	if res.Tiles != instances {
		return fmt.Errorf("%v solved %d tiles of %d instances", res.Method, res.Tiles, instances)
	}
	if res.Placed > res.Requested || res.Placed != len(res.Fill.Fills) {
		return fmt.Errorf("%v placed %d (%d fills) of %d requested", res.Method, res.Placed, len(res.Fill.Fills), res.Requested)
	}
	rows := eng.Grid.Rows
	seen := make([]uint64, (eng.Grid.Cols*rows+63)/64)
	for _, f := range res.Fill.Fills {
		if f.Col < 0 || f.Col >= eng.Grid.Cols || f.Row < 0 || f.Row >= rows {
			return fmt.Errorf("%v fill site (%d,%d) off the %dx%d grid", res.Method, f.Col, f.Row, eng.Grid.Cols, rows)
		}
		bit := f.Col*rows + f.Row
		if eng.Occ.Blocked(f.Col, f.Row) || seen[bit/64]&(1<<(bit%64)) != 0 {
			return fmt.Errorf("%v fill site (%d,%d) blocked or placed twice", res.Method, f.Col, f.Row)
		}
		seen[bit/64] |= 1 << (bit % 64)
	}
	sum := 0.0
	for _, v := range res.PerNet {
		sum += v
	}
	for _, v := range []float64{res.Unweighted, res.Weighted} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%v delay total %g", res.Method, v)
		}
	}
	if !relClose(sum, res.Unweighted, 1e-9) {
		return fmt.Errorf("%v per-net sum %g != unweighted total %g", res.Method, sum, res.Unweighted)
	}
	return nil
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// golden is a recorded output of the default seed: the fill hash (FNV-1a
// over placed sites in placement order), the placed count and the delay
// totals' float64 bits.
type golden struct {
	FillHash string
	Placed   int
	Tau      string
}

func summarize(res *core.Result) golden {
	fh := server.NewFillHasher()
	for _, f := range res.Fill.Fills {
		fh.Add(f.Col, f.Row)
	}
	return golden{fh.Sum(), res.Placed, tauBits(res.Unweighted, res.Weighted)}
}

// tauBits renders the unweighted and weighted delay totals' float64 bits.
func tauBits(unweighted, weighted float64) string {
	return fmt.Sprintf("%016x/%016x", math.Float64bits(unweighted), math.Float64bits(weighted))
}

func (g golden) compare(got golden) error {
	if got != g {
		return fmt.Errorf("golden mismatch: got %+v, recorded %+v", got, g)
	}
	return nil
}

func (c *chipDedup) layers(m map[string]float64) error {
	res, eng := c.res, c.eng
	m["def.parse_s"] = c.parseS
	m["def.bytes"] = float64(len(c.def))
	m["layout.sites"] = float64(eng.Grid.Cols * eng.Grid.Rows)
	m["rc.nets"] = float64(len(c.l.Nets))
	m["rc.analyze_s"] = eng.Prep.Analyze.Seconds()
	m["scanline.extract_s"] = eng.Prep.Extract.Seconds()
	m["scanline.columns"] = float64(countColumns(eng))
	m["density.budget_s"] = c.budgetS
	m["density.budget_features"] = float64(c.budget.Total())
	m["cap.cache_hit_ratio"] = ratio(eng.CacheStats().Hits, eng.CacheStats().Misses)
	m["core.engine_s"] = c.engineS
	m["core.build_s"] = eng.Prep.Build.Seconds()
	m["core.instances"] = float64(c.instances)
	m["core.memo_entries"] = float64(c.memo.Stats().Entries)
	addResult(m, res)
	occ, err := timeOccupancy(c.l, c.rule)
	m["layout.occupancy_s"] = occ
	return err
}

func (c *chipDedup) close() usage { return usage{} }

// addResult accumulates one engine Result into the core, ilp and lp
// metrics (times summed, longest tile maximized).
func addResult(m map[string]float64, res *core.Result) {
	m["core.run_s"] += res.Wall.Seconds()
	m["core.solve_cpu_s"] += res.CPU.Seconds()
	m["core.evaluate_s"] += res.Phases.Evaluate.Seconds()
	m["core.place_s"] += res.Phases.Place.Seconds()
	m["core.longest_tile_s"] = math.Max(m["core.longest_tile_s"], res.LongestSolve.Seconds())
	m["core.dual_fallbacks"] += float64(res.DualFallbacks)
	m["ilp.nodes"] += float64(res.ILPNodes)
	m["lp.pivots"] += float64(res.LPPivots)
	m["core.memo_hits"] += float64(res.MemoHits)
	m["core.memo_lookups"] += float64(res.MemoHits + res.MemoMisses)
	m["core.memo_hit_ratio"] = m["core.memo_hits"] / m["core.memo_lookups"]
	m["core.placed"] += float64(res.Placed)
	m["core.requested"] += float64(res.Requested)
	m["core.placed_ratio"] = m["core.placed"] / m["core.requested"]
}

func countColumns(eng *core.Engine) int {
	n := 0
	for i := range eng.Tiles {
		for j := range eng.Tiles[i] {
			n += len(eng.Tiles[i][j].Cols)
		}
	}
	return n
}

// timeOccupancy times the site grid and occupancy build NewEngine performs,
// on the same layout — attribution outside the ledger.
func timeOccupancy(l *layout.Layout, rule layout.FillRule) (float64, error) {
	t := time.Now()
	grid, err := layout.NewSiteGrid(l.Die, rule)
	if err != nil {
		return 0, err
	}
	layout.NewOccupancy(l, grid, 0)
	return time.Since(t).Seconds(), nil
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
