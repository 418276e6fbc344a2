package scanline

import (
	"fmt"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

// sweepSerial is the original whole-region sweep: it runs the Fig 7 scan
// over the given horizontal lines within region, producing all vertical gaps
// per site column. Lines must be sorted by YBot (layout.HLines guarantees
// this). Line extents are clipped to the region.
func sweepSerial(lines []layout.HLine, grid *layout.SiteGrid, region geom.Rect) []gap {
	cLo, cHi := grid.ColRange(region.X1, region.X2)
	n := cHi - cLo
	if n <= 0 {
		return nil
	}
	openStart := make([]int64, n)
	openLow := make([]int, n)
	for i := range openStart {
		openStart[i] = region.Y1
		openLow[i] = -1
	}
	var gaps []gap
	for li, ln := range lines {
		yBot, yTop := ln.YBot, ln.YTop
		if yTop <= region.Y1 || yBot >= region.Y2 {
			continue
		}
		if yBot < region.Y1 {
			yBot = region.Y1
		}
		if yTop > region.Y2 {
			yTop = region.Y2
		}
		x1, x2 := ln.X1, ln.X2
		if x1 < region.X1 {
			x1 = region.X1
		}
		if x2 > region.X2 {
			x2 = region.X2
		}
		if x1 >= x2 {
			continue
		}
		gLo, gHi := grid.ColRange(x1, x2)
		for c := gLo; c < gHi; c++ {
			k := c - cLo
			if yBot > openStart[k] {
				gaps = append(gaps, gap{col: c, yLo: openStart[k], yHi: yBot, lowIdx: openLow[k], highIdx: li})
			}
			if yTop > openStart[k] {
				openStart[k] = yTop
				openLow[k] = li
			}
		}
	}
	for c := cLo; c < cHi; c++ {
		k := c - cLo
		if region.Y2 > openStart[k] {
			gaps = append(gaps, gap{col: c, yLo: openStart[k], yHi: region.Y2, lowIdx: openLow[k], highIdx: -1})
		}
	}
	return gaps
}

// extractSerial is the original single-threaded Extract, kept as the oracle
// for the stripe-parallel arena build: Extract must return the same columns
// in the same order for every definition and worker count.
func extractSerial(l *layout.Layout, layer int, d *layout.Dissection, occ *layout.Occupancy, def Def) ([][]TileColumns, error) {
	if def != DefI && def != DefII && def != DefIII {
		return nil, fmt.Errorf("scanline: unknown definition %d", int(def))
	}
	grid := occ.Grid
	out := make([][]TileColumns, d.NX)
	for i := range out {
		out[i] = make([]TileColumns, d.NY)
		for j := range out[i] {
			out[i][j] = TileColumns{I: i, J: j, Rect: d.TileRect(i, j)}
		}
	}
	lines := l.HLines(layer)

	appendGap := func(tc *TileColumns, g gap, lines []layout.HLine) {
		// Clip the gap to the tile vertically; capacity comes from sites
		// fully inside the clipped interval.
		yLo, yHi := g.yLo, g.yHi
		if yLo < tc.Rect.Y1 {
			yLo = tc.Rect.Y1
		}
		if yHi > tc.Rect.Y2 {
			yHi = tc.Rect.Y2
		}
		if yLo >= yHi {
			return
		}
		rLo, rHi := fullRows(grid, yLo, yHi)
		if rLo >= rHi {
			return
		}
		capacity := occ.FreeInColumn(g.col, rLo, rHi)
		if capacity == 0 {
			return
		}
		col := Column{
			Col:      g.col,
			X:        grid.SiteCenterX(g.col),
			YLo:      g.yLo,
			YHi:      g.yHi,
			Capacity: capacity,
			RowLo:    rLo,
			RowHi:    rHi,
		}
		if g.lowIdx >= 0 {
			col.HasLow = true
			col.Low = lines[g.lowIdx].Ref
		}
		if g.highIdx >= 0 {
			col.HasHigh = true
			col.High = lines[g.highIdx].Ref
		}
		tc.Cols = append(tc.Cols, col)
	}

	switch def {
	case DefIII:
		gaps := sweepSerial(lines, grid, d.Die)
		for _, g := range gaps {
			// A gap's sites live in one tile column (the tile containing the
			// site centers) but the gap may span several tiles vertically;
			// clip it into each.
			xc := grid.SiteX(g.col) + grid.Rule.Feature/2
			iTile, _ := d.TileIndex(xc, d.Die.Y1)
			_, j1 := d.TileIndex(d.Die.X1, clampY(g.yLo, d.Die))
			_, j2 := d.TileIndex(d.Die.X1, clampY(g.yHi-1, d.Die))
			for j := j1; j <= j2; j++ {
				appendGap(&out[iTile][j], g, lines)
			}
		}
	case DefI, DefII:
		// Bucket lines per tile column/row span, then sweep each tile with
		// only its own lines.
		type refList []int
		buckets := make([][]refList, d.NX)
		for i := range buckets {
			buckets[i] = make([]refList, d.NY)
		}
		for li, ln := range lines {
			r := geom.Rect{X1: ln.X1, Y1: ln.YBot, X2: ln.X2, Y2: ln.YTop}.Intersect(d.Die)
			if r.Empty() {
				continue
			}
			i1, j1 := d.TileIndex(r.X1, r.Y1)
			i2, j2 := d.TileIndex(r.X2-1, r.Y2-1)
			for i := i1; i <= i2; i++ {
				for j := j1; j <= j2; j++ {
					buckets[i][j] = append(buckets[i][j], li)
				}
			}
		}
		for i := 0; i < d.NX; i++ {
			for j := 0; j < d.NY; j++ {
				tileRect := out[i][j].Rect
				tileLines := make([]layout.HLine, 0, len(buckets[i][j]))
				for _, li := range buckets[i][j] {
					tileLines = append(tileLines, lines[li])
				}
				gaps := sweepSerial(tileLines, grid, tileRect)
				for _, g := range gaps {
					if def == DefI && (g.lowIdx < 0 || g.highIdx < 0) {
						continue // boundary-bounded slack is unusable in Def I
					}
					appendGap(&out[i][j], g, tileLines)
				}
			}
		}
	}
	return out, nil
}
