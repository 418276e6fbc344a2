package core

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"time"

	"pilfill/internal/density"
	"pilfill/internal/layout"
)

// This file implements the paper's companion formulation sketched in its
// Section 4 footnote and Section 7: MVDC — *minimum variation with delay
// constraint* — and the per-net "budgeted capacitance" flow.
//
// MVDC inverts MDFC: instead of fixing the fill amount and minimizing delay,
// it fixes a per-tile delay budget and maximizes density uniformity within
// it. The key observation making this tractable is that each tile's
// delay-versus-fill frontier is the marginal-greedy pick sequence: cost
// curves are convex and separable, so the cheapest way to place f features
// is always the first f picks of SolveMarginalGreedy, and the largest
// affordable f is where the accumulated cost crosses the budget.

// FillFrontier is a tile's optimal delay-versus-fill trade-off: Picks[i] is
// the column receiving the (i+1)-th feature and Cost[i] the accumulated
// optimization cost after placing it.
type FillFrontier struct {
	Instance *Instance
	Picks    []int
	Cost     []float64
}

// Frontier computes the optimal fill frontier of an instance by recording
// the marginal-greedy pick sequence up to the tile's full capacity.
func Frontier(in *Instance) *FillFrontier {
	f := &FillFrontier{Instance: in}
	h := make(marginalHeap, 0, len(in.Columns))
	for k := range in.Columns {
		if in.Columns[k].MaxM > 0 {
			h = append(h, marginalItem{k: k, next: 1, delta: in.Columns[k].costAt(1)})
		}
	}
	heap.Init(&h)
	total := 0.0
	for h.Len() > 0 {
		it := heap.Pop(&h).(marginalItem)
		total += it.delta
		f.Picks = append(f.Picks, it.k)
		f.Cost = append(f.Cost, total)
		cv := &in.Columns[it.k]
		if it.next < cv.MaxM {
			heap.Push(&h, marginalItem{
				k:     it.k,
				next:  it.next + 1,
				delta: cv.costAt(it.next+1) - cv.costAt(it.next),
			})
		}
	}
	return f
}

// MaxFill returns the largest feature count whose optimal cost stays within
// the delay budget (in objective units, i.e. seconds or weighted seconds).
func (f *FillFrontier) MaxFill(budget float64) int {
	// Cost is non-decreasing (marginal costs are non-negative), so binary
	// search the crossing point.
	n := sort.Search(len(f.Cost), func(i int) bool { return f.Cost[i] > budget })
	return n
}

// AssignmentFor returns the optimal assignment placing the first n picks.
func (f *FillFrontier) AssignmentFor(n int) Assignment {
	a := make(Assignment, len(f.Instance.Columns))
	if n > len(f.Picks) {
		n = len(f.Picks)
	}
	for i := 0; i < n; i++ {
		a[f.Picks[i]]++
	}
	return a
}

// MVDCResult reports a delay-constrained uniformity maximization.
type MVDCResult struct {
	Result      *Result
	Budget      density.Budget // features per tile actually used
	AchievedMin float64        // minimum window density reached
	TileBudgetS float64        // the per-tile delay budget applied
}

// RunMVDC solves the minimum-variation-with-delay-constraint problem: every
// tile may add at most tileDelayBudget (seconds, in the configured
// objective) of delay impact; within that constraint the minimum window
// density is pushed as high as possible (toward targetMin, bounded above by
// maxDensity). Placement within each tile follows that tile's optimal fill
// frontier, so the delay spent for any fill amount is minimal.
func (e *Engine) RunMVDC(grid *density.Grid, tileDelayBudget, targetMin, maxDensity float64) (*MVDCResult, error) {
	return e.RunMVDCContext(context.Background(), grid, tileDelayBudget, targetMin, maxDensity)
}

// RunMVDCContext is RunMVDC with cancellation: the context is checked at
// every tile boundary of both the frontier-construction and materialization
// passes, so a cancelled or deadline-expired context stops the work and
// returns an error wrapping ctx.Err().
func (e *Engine) RunMVDCContext(ctx context.Context, grid *density.Grid, tileDelayBudget, targetMin, maxDensity float64) (*MVDCResult, error) {
	if tileDelayBudget < 0 {
		return nil, fmt.Errorf("core: negative delay budget %g", tileDelayBudget)
	}
	if targetMin <= 0 {
		return nil, fmt.Errorf("core: MVDC target %g", targetMin)
	}
	start := time.Now()

	// Per-tile frontiers and delay-capped capacities.
	frontiers := make(map[[2]int]*FillFrontier)
	capped := make([][]int, e.Dis.NX)
	for i := 0; i < e.Dis.NX; i++ {
		capped[i] = make([]int, e.Dis.NY)
		for j := 0; j < e.Dis.NY; j++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: MVDC interrupted: %w", err)
			}
			tc := &e.Tiles[i][j]
			if len(tc.Cols) == 0 {
				continue
			}
			in, err := e.buildInstance(i, j, tc.TotalCapacity())
			if err != nil {
				return nil, err
			}
			fr := Frontier(in)
			frontiers[[2]int{i, j}] = fr
			capped[i][j] = fr.MaxFill(tileDelayBudget)
		}
	}

	// Budget for uniformity under the capped slack.
	cappedGrid := &density.Grid{
		D:           grid.D,
		TileArea:    grid.TileArea,
		TileSlack:   capped,
		FeatureArea: grid.FeatureArea,
	}
	budget, achieved, err := density.MonteCarlo(cappedGrid, density.MonteCarloOptions{
		TargetMin:  targetMin,
		MaxDensity: maxDensity,
		Seed:       e.Cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: MVDC budgeting: %w", err)
	}

	// Materialize each tile's frontier prefix.
	res := &Result{
		Method: MarginalGreedy,
		Fill:   &layout.FillSet{Grid: e.Grid, Layer: e.Cfg.Layer},
		PerNet: make([]float64, len(e.L.Nets)),
	}
	for i := 0; i < e.Dis.NX; i++ {
		for j := 0; j < e.Dis.NY; j++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: MVDC interrupted: %w", err)
			}
			n := budget[i][j]
			if n <= 0 {
				continue
			}
			fr := frontiers[[2]int{i, j}]
			if fr == nil {
				continue
			}
			a := fr.AssignmentFor(n)
			u, w, err := fr.Instance.Evaluate(a)
			if err != nil {
				return nil, fmt.Errorf("core: MVDC tile (%d,%d): %w", i, j, err)
			}
			res.Unweighted += u
			res.Weighted += w
			placed := 0
			for _, m := range a {
				placed += m
			}
			res.Requested += n
			res.Placed += placed
			res.Tiles++
			if err := e.accumulatePerNet(res.PerNet, fr.Instance, a); err != nil {
				return nil, fmt.Errorf("core: MVDC tile (%d,%d): %w", i, j, err)
			}
			if err := e.place(res.Fill, fr.Instance, a, nil); err != nil {
				return nil, fmt.Errorf("core: MVDC tile (%d,%d): %w", i, j, err)
			}
		}
	}
	res.Wall = time.Since(start)
	res.CPU = res.Wall // MVDC runs serially; frontier work is the solve
	res.Phases.Solve = res.CPU
	res.Phases.Preprocess = e.Prep.Total
	return &MVDCResult{
		Result:      res,
		Budget:      budget,
		AchievedMin: achieved,
		TileBudgetS: tileDelayBudget,
	}, nil
}

// NetBudgets derives per-net added-delay budgets from the baseline timing:
// each net may absorb `fraction` of its worst baseline Elmore sink delay —
// the stand-in for slack-derived capacitance budgets that place-and-route
// tools would supply (the paper's Section 7 flow). Nets get a budget of at
// least minBudget seconds so zero-delay stubs are not frozen entirely.
func (e *Engine) NetBudgets(fraction, minBudget float64) []float64 {
	out := make([]float64, len(e.Analyses))
	for i, a := range e.Analyses {
		worst := 0.0
		for _, d := range a.SinkDelays {
			if d > worst {
				worst = d
			}
		}
		b := worst * fraction
		if b < minBudget {
			b = minBudget
		}
		out[i] = b
	}
	return out
}

// RunBudgeted places the instances with ILP-II under per-net delay budgets:
// each net's total added unweighted delay within a tile is bounded by its
// budget divided evenly across the tiles it borders (a conservative split,
// since budgets are per net but tiles are solved independently). Infeasible
// tiles fall back to the budget-respecting greedy, placing as much as fits.
func (e *Engine) RunBudgeted(instances []*Instance, netBudgets []float64) (*Result, error) {
	return e.RunBudgetedContext(context.Background(), instances, netBudgets)
}

// RunBudgetedContext is RunBudgeted with cancellation: the context is
// checked at every tile boundary and polled inside the per-tile ILP solves.
// A cancelled context aborts the run — it is never mistaken for ILP
// infeasibility, so the greedy fallback does not fire on cancellation.
func (e *Engine) RunBudgetedContext(ctx context.Context, instances []*Instance, netBudgets []float64) (*Result, error) {
	if len(netBudgets) != len(e.L.Nets) {
		return nil, fmt.Errorf("core: %d net budgets for %d nets", len(netBudgets), len(e.L.Nets))
	}
	// Count bordering tiles per net to split the budgets.
	tilesPerNet := make([]int, len(netBudgets))
	for _, in := range instances {
		seen := map[int]bool{}
		for k := range in.Columns {
			cv := &in.Columns[k]
			if cv.NetLow >= 0 {
				seen[cv.NetLow] = true
			}
			if cv.NetHigh >= 0 {
				seen[cv.NetHigh] = true
			}
		}
		for n := range seen {
			tilesPerNet[n]++
		}
	}
	perTile := make([]float64, len(netBudgets))
	for n, b := range netBudgets {
		if tilesPerNet[n] > 0 {
			perTile[n] = b / float64(tilesPerNet[n])
		} else {
			perTile[n] = b
		}
	}

	res := &Result{
		Method: ILPII,
		Fill:   &layout.FillSet{Grid: e.Grid, Layer: e.Cfg.Layer},
		PerNet: make([]float64, len(e.L.Nets)),
	}
	start := time.Now()
	scs := e.getScratches(1)
	defer e.putScratches(scs)
	sc := scs[0]
	opts := &sc.ilpBuffers().opts
	base := e.ilpOpts(ctx)
	nc := &NetCap{PerNet: perTile}
	for _, in := range instances {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: budgeted run interrupted: %w", err)
		}
		solveStart := time.Now()
		a := make(Assignment, len(in.Columns))
		*opts = base
		_, st, err := sc.solveILPII(in, opts, nc, a)
		res.ILPNodes += st.nodes
		res.LPPivots += st.pivots
		if st.incRepaired {
			res.IncumbentsRepaired++
		}
		if st.incDropped {
			res.IncumbentsDropped++
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("core: budgeted run interrupted: %w", ctxErr)
		}
		if err != nil {
			// Infeasible under the caps: place what fits greedily (a is
			// still zero; solveILPII writes it only on success).
			solveGreedyCappedInto(a, in, nc, sc)
		}
		res.Phases.Solve += time.Since(solveStart)
		placed := 0
		for _, m := range a {
			placed += m
		}
		evalStart := time.Now()
		u, w, err := in.Evaluate(a)
		if err != nil {
			return nil, fmt.Errorf("core: budgeted tile (%d,%d): %w", in.I, in.J, err)
		}
		res.Unweighted += u
		res.Weighted += w
		res.Requested += in.F
		res.Placed += placed
		res.Tiles++
		err = e.accumulatePerNet(res.PerNet, in, a)
		res.Phases.Evaluate += time.Since(evalStart)
		if err != nil {
			return nil, fmt.Errorf("core: budgeted tile (%d,%d): %w", in.I, in.J, err)
		}
		placeStart := time.Now()
		err = e.place(res.Fill, in, a, nil)
		res.Phases.Place += time.Since(placeStart)
		if err != nil {
			return nil, fmt.Errorf("core: budgeted tile (%d,%d): %w", in.I, in.J, err)
		}
	}
	res.CPU = res.Phases.Solve
	res.Wall = time.Since(start)
	res.Phases.Preprocess = e.Prep.Total
	return res, nil
}
