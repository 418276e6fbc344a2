// Package density implements fixed-dissection layout density analysis and
// the density-driven per-tile fill budgeting of Chen, Kahng, Robins and
// Zelikovsky ("Dummy Fill Synthesis for Uniform Layout Density", TCAD 2002)
// — the "normal fill" baseline of the PIL-Fill paper. Two budgeting engines
// are provided:
//
//   - MonteCarlo: the randomized greedy budgeter that repeatedly adds one
//     fill feature to a slack tile of the currently emptiest window.
//     Scales to fine dissections; this is what the experiment harness uses.
//   - FFTBudget (effective.go): the effective-density budgeter over a
//     smoothing kernel, used by the chip-scale and cluster flows.
//
// The min-variation linear program (LPBudget) lives in density_test.go as
// the exact oracle MonteCarlo is tested against. Every budgeter returns the
// same artifact — the number of fill features each tile must receive —
// which the PIL-Fill methods then place. Density quality depends only on
// the budget, so every placement method in internal/core achieves identical
// density control by construction.
package density

import (
	"fmt"
	"math"
	"math/rand"

	"pilfill/internal/layout"
)

// Grid aggregates per-tile feature area and fill slack for one layer.
type Grid struct {
	D           *layout.Dissection
	TileArea    [][]int64 // drawn feature area per tile [i][j]
	TileSlack   [][]int   // free fill sites per tile [i][j]
	FeatureArea int64     // drawn area of one fill feature
}

// NewGrid computes the density grid for a layer: tile feature areas from the
// layout and per-tile slack from the occupancy map (a site belongs to the
// tile containing its center).
func NewGrid(l *layout.Layout, d *layout.Dissection, occ *layout.Occupancy, layer int) *Grid {
	g := &Grid{
		D:           d,
		TileArea:    l.TileFeatureAreas(layer, d),
		FeatureArea: occ.Grid.Rule.Feature * occ.Grid.Rule.Feature,
	}
	g.TileSlack = make([][]int, d.NX)
	for i := range g.TileSlack {
		g.TileSlack[i] = make([]int, d.NY)
	}
	sg := occ.Grid
	f := sg.Rule.Feature
	for c := 0; c < sg.Cols; c++ {
		for r := 0; r < sg.Rows; r++ {
			if occ.Blocked(c, r) {
				continue
			}
			cx := sg.SiteX(c) + f/2
			cy := sg.SiteY(r) + f/2
			if !d.Die.Contains(cx, cy) {
				continue
			}
			i, j := d.TileIndex(cx, cy)
			g.TileSlack[i][j]++
		}
	}
	return g
}

// Budget is the number of fill features required in each tile [i][j].
type Budget [][]int

// NewBudget allocates a zero budget for the grid.
func (g *Grid) NewBudget() Budget {
	b := make(Budget, g.D.NX)
	for i := range b {
		b[i] = make([]int, g.D.NY)
	}
	return b
}

// Total returns the total number of features in the budget.
func (b Budget) Total() int {
	n := 0
	for i := range b {
		for j := range b[i] {
			n += b[i][j]
		}
	}
	return n
}

// Clone deep-copies the budget.
func (b Budget) Clone() Budget {
	out := make(Budget, len(b))
	for i := range b {
		out[i] = append([]int(nil), b[i]...)
	}
	return out
}

// WindowDensity returns the density of the window with origin tile (i, j)
// given an optional fill budget (nil means no fill).
func (g *Grid) WindowDensity(i, j int, fill Budget) float64 {
	win := g.D.WindowRect(i, j)
	var area int64
	for di := 0; di < g.D.R; di++ {
		for dj := 0; dj < g.D.R; dj++ {
			ti, tj := i+di, j+dj
			if ti >= g.D.NX || tj >= g.D.NY {
				continue
			}
			area += g.TileArea[ti][tj]
			if fill != nil {
				area += int64(fill[ti][tj]) * g.FeatureArea
			}
		}
	}
	return float64(area) / float64(win.Area())
}

// Stats returns the minimum and maximum window density under a fill budget.
func (g *Grid) Stats(fill Budget) (minD, maxD float64) {
	wx, wy := g.D.NumWindows()
	minD, maxD = math.Inf(1), math.Inf(-1)
	for i := 0; i < wx; i++ {
		for j := 0; j < wy; j++ {
			d := g.WindowDensity(i, j, fill)
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	return minD, maxD
}

// Variation returns max - min window density under a fill budget.
func (g *Grid) Variation(fill Budget) float64 {
	minD, maxD := g.Stats(fill)
	return maxD - minD
}

// StatsWithAreas returns min/max window density when the added fill is given
// as an exact per-tile area map (e.g. layout.FillSet.TileFillAreas) instead
// of a feature-count budget.
func (g *Grid) StatsWithAreas(fillAreas [][]int64) (minD, maxD float64) {
	wx, wy := g.D.NumWindows()
	minD, maxD = math.Inf(1), math.Inf(-1)
	for i := 0; i < wx; i++ {
		for j := 0; j < wy; j++ {
			win := g.D.WindowRect(i, j)
			var area int64
			for di := 0; di < g.D.R; di++ {
				for dj := 0; dj < g.D.R; dj++ {
					ti, tj := i+di, j+dj
					if ti >= g.D.NX || tj >= g.D.NY {
						continue
					}
					area += g.TileArea[ti][tj]
					if fillAreas != nil {
						area += fillAreas[ti][tj]
					}
				}
			}
			d := float64(area) / float64(win.Area())
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	return minD, maxD
}

// MonteCarloOptions tunes the randomized budgeter.
type MonteCarloOptions struct {
	// TargetMin is the window density the budgeter tries to lift every
	// window to. Use a value <= the achievable maximum; MaxMinDensity
	// estimates it.
	TargetMin float64
	// MaxDensity is the upper window density bound U; adding fill never
	// pushes any window above it. <= 0 disables the bound.
	MaxDensity float64
	// Seed makes runs reproducible.
	Seed int64
}

// MonteCarlo computes a per-tile fill budget by repeatedly choosing the
// lowest-density window and adding one feature to a random slack tile inside
// it (weighted by remaining slack), subject to the upper density bound.
// It stops when every window reaches TargetMin or no legal insertion can
// improve the emptiest window, and returns the budget with the achieved
// minimum density.
func MonteCarlo(g *Grid, opts MonteCarloOptions) (Budget, float64, error) {
	if opts.TargetMin <= 0 {
		return nil, 0, fmt.Errorf("density: TargetMin = %g", opts.TargetMin)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	wx, wy := g.D.NumWindows()
	budget := g.NewBudget()
	slack := make([][]int, g.D.NX)
	for i := range slack {
		slack[i] = append([]int(nil), g.TileSlack[i]...)
	}

	// Window state in exact integers: the drawn base area and the number of
	// fill features added so far. Densities are derived on demand as
	// (base + count·featureArea)/windowArea — one division from exact
	// integers — instead of incrementally accumulating float deltas, whose
	// rounding drift compounds over millions of insertions until the budgeter
	// both overshoots MaxDensity and mis-ranks the emptiest window.
	winBase := make([][]int64, wx)
	winCnt := make([][]int64, wx)
	winArea := make([][]int64, wx)
	for i := 0; i < wx; i++ {
		winBase[i] = make([]int64, wy)
		winCnt[i] = make([]int64, wy)
		winArea[i] = make([]int64, wy)
		for j := 0; j < wy; j++ {
			var base int64
			for di := 0; di < g.D.R; di++ {
				for dj := 0; dj < g.D.R; dj++ {
					ti, tj := i+di, j+dj
					if ti >= g.D.NX || tj >= g.D.NY {
						continue
					}
					base += g.TileArea[ti][tj]
				}
			}
			winBase[i][j] = base
			winArea[i][j] = g.D.WindowRect(i, j).Area()
		}
	}
	density := func(wi, wj int) float64 {
		return float64(winBase[wi][wj]+winCnt[wi][wj]*g.FeatureArea) / float64(winArea[wi][wj])
	}
	// windowsOver iterates window origins covering tile (ti, tj).
	windowsOver := func(ti, tj int, visit func(wi, wj int)) {
		loI := ti - g.D.R + 1
		if loI < 0 {
			loI = 0
		}
		loJ := tj - g.D.R + 1
		if loJ < 0 {
			loJ = 0
		}
		for wi := loI; wi <= ti && wi < wx; wi++ {
			for wj := loJ; wj <= tj && wj < wy; wj++ {
				visit(wi, wj)
			}
		}
	}

	dead := make(map[[2]int]bool) // windows that cannot be improved further
	for {
		// Find the emptiest improvable window.
		minI, minJ := -1, -1
		minD := opts.TargetMin
		for i := 0; i < wx; i++ {
			for j := 0; j < wy; j++ {
				if dead[[2]int{i, j}] {
					continue
				}
				if d := density(i, j); d < minD {
					minD = d
					minI, minJ = i, j
				}
			}
		}
		if minI < 0 {
			break // every live window is at or above target
		}
		// Candidate tiles: slack tiles in this window whose insertion does
		// not push any covering window over MaxDensity.
		type cand struct {
			ti, tj int
			w      int
		}
		var cands []cand
		totalW := 0
		for di := 0; di < g.D.R; di++ {
			for dj := 0; dj < g.D.R; dj++ {
				ti, tj := minI+di, minJ+dj
				if ti >= g.D.NX || tj >= g.D.NY || slack[ti][tj] == 0 {
					continue
				}
				ok := true
				if opts.MaxDensity > 0 {
					windowsOver(ti, tj, func(wi, wj int) {
						after := winBase[wi][wj] + (winCnt[wi][wj]+1)*g.FeatureArea
						if float64(after)/float64(winArea[wi][wj]) > opts.MaxDensity {
							ok = false
						}
					})
				}
				if ok {
					cands = append(cands, cand{ti, tj, slack[ti][tj]})
					totalW += slack[ti][tj]
				}
			}
		}
		if len(cands) == 0 {
			dead[[2]int{minI, minJ}] = true
			continue
		}
		pick := rng.Intn(totalW)
		var chosen cand
		for _, c := range cands {
			if pick < c.w {
				chosen = c
				break
			}
			pick -= c.w
		}
		budget[chosen.ti][chosen.tj]++
		slack[chosen.ti][chosen.tj]--
		windowsOver(chosen.ti, chosen.tj, func(wi, wj int) {
			winCnt[wi][wj]++
		})
	}

	achieved := math.Inf(1)
	for i := 0; i < wx; i++ {
		for j := 0; j < wy; j++ {
			if d := density(i, j); d < achieved {
				achieved = d
			}
		}
	}
	return budget, achieved, nil
}

// MaxMinDensity estimates the best achievable minimum window density by
// running the budgeter with an unreachable target and reporting what it
// attains. Useful for picking a realistic TargetMin.
func MaxMinDensity(g *Grid, maxDensity float64, seed int64) (float64, error) {
	_, achieved, err := MonteCarlo(g, MonteCarloOptions{TargetMin: 1.0, MaxDensity: maxDensity, Seed: seed})
	return achieved, err
}

// CheckBudget verifies a budget respects per-tile slack.
func (g *Grid) CheckBudget(b Budget) error {
	for i := range b {
		for j := range b[i] {
			if b[i][j] < 0 {
				return fmt.Errorf("density: tile (%d,%d) negative budget %d", i, j, b[i][j])
			}
			if b[i][j] > g.TileSlack[i][j] {
				return fmt.Errorf("density: tile (%d,%d) budget %d exceeds slack %d", i, j, b[i][j], g.TileSlack[i][j])
			}
		}
	}
	return nil
}
