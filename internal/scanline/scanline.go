// Package scanline extracts slack site columns — the decision variables of
// the MDFC PIL-Fill problem — from a routed layout, implementing the
// scan-line algorithm of Fig 7 of the paper and its three slack-column
// definitions (Figs 4–6):
//
//   - DefI captures only columns between pairs of active lines inside the
//     tile; slack adjacent to tile boundaries is unusable.
//   - DefII adds columns bounded by tile boundaries, but attributes no
//     active line (and hence no delay cost) to the boundary side — the
//     inaccuracy the paper points out for blocks like its Fig 5 "B".
//   - DefIII sweeps the whole layout, so a column is always bounded by the
//     nearest active lines even when they live in adjacent tiles, or by the
//     layout boundary; this is the most accurate definition.
//
// The routing direction is assumed horizontal (the paper's WLOG choice);
// columns are vertical runs of free fill sites between two horizontal
// bounds.
package scanline

import (
	"fmt"
	"slices"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
	"pilfill/internal/par"
)

// Def selects a slack-column definition.
type Def int

// Slack-column definitions, in increasing order of modeling accuracy.
const (
	DefI Def = iota + 1
	DefII
	DefIII
)

// String names the definition.
func (d Def) String() string {
	switch d {
	case DefI:
		return "SlackColumn-I"
	case DefII:
		return "SlackColumn-II"
	case DefIII:
		return "SlackColumn-III"
	}
	return fmt.Sprintf("Def(%d)", int(d))
}

// Column is one slack site column within a tile: a vertical run of fill
// sites at site-column index Col, bounded below and above by active lines or
// by a boundary.
type Column struct {
	Col      int   // site column index in the global grid
	X        int64 // center X of the column's sites
	YLo, YHi int64 // the gap's vertical extent (drawn edges of the bounds)
	Capacity int   // free sites available within this tile's part of the gap
	RowLo    int   // first candidate site row (inclusive) within the tile
	RowHi    int   // last candidate site row (exclusive)

	// HasLow/HasHigh report whether an active line bounds the gap on that
	// side (false = tile or layout boundary, depending on the definition).
	HasLow, HasHigh bool
	Low, High       layout.SegRef // valid when the corresponding Has* is true
}

// Spacing returns the line-pair distance d used by the capacitance model.
func (c *Column) Spacing() int64 { return c.YHi - c.YLo }

// TileColumns is the per-tile result: the columns overlapping tile (I, J).
type TileColumns struct {
	I, J int
	Rect geom.Rect
	Cols []Column
}

// TotalCapacity sums the capacities of the tile's columns.
func (tc *TileColumns) TotalCapacity() int {
	n := 0
	for i := range tc.Cols {
		n += tc.Cols[i].Capacity
	}
	return n
}

// gap is an intermediate sweep artifact: an open vertical interval at one
// site column.
type gap struct {
	col      int
	yLo, yHi int64
	lowIdx   int // index into the layer's line list, -1 = boundary
	highIdx  int
}

// sweep runs the Fig 7 scan over the lines lines[idx[k]] within region,
// calling emit for every vertical gap of the site columns [cLo, cHi). idx
// must be ascending, so lines are visited in YBot order (layout.HLines
// guarantees this). Line extents are clipped to the region. A gap's line
// indices refer to lines, not idx.
//
// Gaps come out line by line (columns ascending within a line), then the
// gaps closed by the region's top edge in column order. Each column's gaps
// depend only on the lines covering it, so sweeping a column window with a
// superset of the lines covering it emits exactly the whole-region sweep's
// gaps in that window, in the same relative order — what lets Extract
// sweep tile columns independently.
func (ws *workspace) sweep(lines []layout.HLine, idx []int, grid *layout.SiteGrid, region geom.Rect, cLo, cHi int, emit func(gap)) {
	n := cHi - cLo
	if n <= 0 {
		return
	}
	openStart := slices.Grow(ws.openStart[:0], n)[:n]
	openLow := slices.Grow(ws.openLow[:0], n)[:n]
	ws.openStart, ws.openLow = openStart, openLow
	for k := range openStart {
		openStart[k] = region.Y1
		openLow[k] = -1
	}
	for _, li := range idx {
		ln := &lines[li]
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
		gLo, gHi = max(gLo, cLo), min(gHi, cHi)
		for c := gLo; c < gHi; c++ {
			k := c - cLo
			if yBot > openStart[k] {
				emit(gap{col: c, yLo: openStart[k], yHi: yBot, lowIdx: openLow[k], highIdx: li})
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
			emit(gap{col: c, yLo: openStart[k], yHi: region.Y2, lowIdx: openLow[k], highIdx: -1})
		}
	}
}

// fullRows returns the half-open row range of sites whose feature squares
// lie fully inside [yLo, yHi).
func fullRows(grid *layout.SiteGrid, yLo, yHi int64) (lo, hi int) {
	p := grid.Rule.Pitch()
	f := grid.Rule.Feature
	// Smallest r with SiteY(r) >= yLo.
	lo64 := ceilDiv(yLo-grid.Die.Y1, p)
	// Smallest r with SiteY(r)+f > yHi, i.e. r*p > yHi - Y1 - f.
	hi64 := floorDiv(yHi-grid.Die.Y1-f, p) + 1
	lo = clamp(lo64, grid.Rows)
	hi = clamp(hi64, grid.Rows)
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func clamp(v int64, n int) int {
	if v < 0 {
		return 0
	}
	if v > int64(n) {
		return n
	}
	return int(v)
}

// Extract computes the slack columns of every tile under the chosen
// definition. The returned slice is indexed [i][j] like the dissection's
// tiles. Capacity counts only sites that are free in occ and fully inside
// both the gap and the tile.
//
// The sweep fans out over tile columns ("stripes") across workers goroutines
// and runs twice: the first pass only counts each tile's columns, the second
// writes them into one arena sized exactly, of which every TileColumns.Cols
// is a capacity-limited subslice. Every worker count yields the same columns
// in the same order as a single whole-layout sweep.
func Extract(l *layout.Layout, layer int, d *layout.Dissection, occ *layout.Occupancy, def Def, workers int) ([][]TileColumns, error) {
	if def != DefI && def != DefII && def != DefIII {
		return nil, fmt.Errorf("scanline: unknown definition %d", int(def))
	}
	out := make([][]TileColumns, d.NX)
	for i := range out {
		out[i] = make([]TileColumns, d.NY)
		for j := range out[i] {
			out[i][j] = TileColumns{I: i, J: j, Rect: d.TileRect(i, j)}
		}
	}
	x := newExtractor(l.HLines(layer), d, occ, def, out)

	ws := make([]workspace, par.Workers(workers, d.NX))
	counts := make([]int, d.NX*d.NY)
	par.For(workers, d.NX, nil, func(w, i int) {
		row := counts[i*d.NY : (i+1)*d.NY]
		x.stripe(&ws[w], i, func(j int, _ gap, _ rows) { row[j]++ })
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	arena := make([]Column, total)
	off := 0
	for k, n := range counts {
		if n > 0 {
			out[k/d.NY][k%d.NY].Cols = arena[off : off+n : off+n]
		}
		counts[k] = off // now the tile's write cursor into the arena
		off += n
	}
	par.For(workers, d.NX, nil, func(w, i int) {
		next := counts[i*d.NY : (i+1)*d.NY]
		x.stripe(&ws[w], i, func(j int, g gap, r rows) {
			x.write(&arena[next[j]], g, r)
			next[j]++
		})
	})
	return out, nil
}

// extractor holds one Extract call's read-only inputs and the per-stripe
// line buckets shared by both passes.
type extractor struct {
	lines []layout.HLine
	d     *layout.Dissection
	grid  *layout.SiteGrid
	occ   *layout.Occupancy
	def   Def
	out   [][]TileColumns // for the tile rectangles

	// stripeLines lists, per tile column, the ascending indices of the
	// lines that can bound a gap there (see newExtractor).
	stripeLines buckets
	// colStart[i] is the first site column whose site centers lie in tile
	// column i (DefIII; colStart[NX] ends the last stripe).
	colStart []int
}

// newExtractor buckets the lines by tile column. DefIII assigns a site
// column to the tile column holding its site centers, so a stripe needs the
// lines covering any of its site columns. DefI and DefII sweep each tile
// over the lines overlapping it, so a stripe needs the lines overlapping
// any of its tiles.
func newExtractor(lines []layout.HLine, d *layout.Dissection, occ *layout.Occupancy, def Def, out [][]TileColumns) *extractor {
	x := &extractor{lines: lines, d: d, grid: occ.Grid, occ: occ, def: def, out: out}
	die := d.Die
	if def == DefIII {
		cLo, cHi := x.grid.ColRange(die.X1, die.X2)
		stripeOf := make([]int, cHi-cLo)
		x.colStart = make([]int, d.NX+1)
		for k := range x.colStart {
			x.colStart[k] = cHi
		}
		for c := cHi - 1; c >= cLo; c-- {
			i, _ := d.TileIndex(x.grid.SiteCenterX(c), die.Y1)
			stripeOf[c-cLo] = i
			x.colStart[i] = c
		}
		for i := d.NX - 1; i >= 0; i-- {
			x.colStart[i] = min(x.colStart[i], x.colStart[i+1])
		}
		x.stripeLines.build(d.NX, len(lines), func(li int) (int, int) {
			ln := &lines[li]
			if ln.YTop <= die.Y1 || ln.YBot >= die.Y2 {
				return 0, 0
			}
			gLo, gHi := x.grid.ColRange(max(ln.X1, die.X1), min(ln.X2, die.X2))
			if gLo >= gHi {
				return 0, 0
			}
			return stripeOf[gLo-cLo], stripeOf[gHi-1-cLo] + 1
		})
		return x
	}
	x.stripeLines.build(d.NX, len(lines), func(li int) (int, int) {
		iLo, iHi, _, _ := x.tileSpan(li)
		return iLo, iHi
	})
	return x
}

// tileSpan returns the half-open tile index ranges [iLo, iHi) x [jLo, jHi)
// a line overlaps within the die (DefI/DefII bucketing); both are empty when
// it misses the die.
func (x *extractor) tileSpan(li int) (iLo, iHi, jLo, jHi int) {
	ln := &x.lines[li]
	r := geom.Rect{X1: ln.X1, Y1: ln.YBot, X2: ln.X2, Y2: ln.YTop}.Intersect(x.d.Die)
	if r.Empty() {
		return 0, 0, 0, 0
	}
	i1, j1 := x.d.TileIndex(r.X1, r.Y1)
	i2, j2 := x.d.TileIndex(r.X2-1, r.Y2-1)
	return i1, i2 + 1, j1, j2 + 1
}

// rows is a gap's extent within one tile: the candidate site rows
// [lo, hi) and the free sites among them.
type rows struct{ lo, hi, free int }

// stripe calls emit for each of tile column i's slack columns, with its
// tile row j, in each tile's final column order.
func (x *extractor) stripe(ws *workspace, i int, emit func(j int, g gap, r rows)) {
	d, lines := x.d, x.lines
	idx := x.stripeLines.bucket(i)
	if x.def == DefIII {
		ws.sweep(lines, idx, x.grid, d.Die, x.colStart[i], x.colStart[i+1], func(g gap) {
			// A gap's sites live in one tile column (the tile containing
			// the site centers) but the gap may span several tiles
			// vertically; clip it into each.
			_, j1 := d.TileIndex(d.Die.X1, clampY(g.yLo, d.Die))
			_, j2 := d.TileIndex(d.Die.X1, clampY(g.yHi-1, d.Die))
			for j := j1; j <= j2; j++ {
				if r := x.clip(&x.out[i][j].Rect, g); r.free > 0 {
					emit(j, g, r)
				}
			}
		})
		return
	}
	// Sweep each tile of the stripe with only its own lines, bucketed by
	// tile row.
	ws.tileLines.build(d.NY, len(idx), func(k int) (int, int) {
		_, _, jLo, jHi := x.tileSpan(idx[k])
		return jLo, jHi
	})
	for j := 0; j < d.NY; j++ {
		tileIdx := ws.tileIdx[:0]
		for _, k := range ws.tileLines.bucket(j) {
			tileIdx = append(tileIdx, idx[k])
		}
		ws.tileIdx = tileIdx
		rect := &x.out[i][j].Rect
		cLo, cHi := x.grid.ColRange(rect.X1, rect.X2)
		ws.sweep(lines, tileIdx, x.grid, *rect, cLo, cHi, func(g gap) {
			if x.def == DefI && (g.lowIdx < 0 || g.highIdx < 0) {
				return // boundary-bounded slack is unusable in Def I
			}
			if r := x.clip(rect, g); r.free > 0 {
				emit(j, g, r)
			}
		})
	}
}

// clip clips a gap to a tile vertically; the column's candidate rows are
// the sites fully inside the clipped interval.
func (x *extractor) clip(tile *geom.Rect, g gap) rows {
	yLo, yHi := max(g.yLo, tile.Y1), min(g.yHi, tile.Y2)
	if yLo >= yHi {
		return rows{}
	}
	lo, hi := fullRows(x.grid, yLo, yHi)
	if lo >= hi {
		return rows{}
	}
	return rows{lo, hi, x.occ.FreeInColumn(g.col, lo, hi)}
}

// write materializes a clipped gap into the zeroed arena slot c, field by
// field (a Column is too large to build and copy).
func (x *extractor) write(c *Column, g gap, r rows) {
	c.Col = g.col
	c.X = x.grid.SiteCenterX(g.col)
	c.YLo, c.YHi = g.yLo, g.yHi
	c.Capacity = r.free
	c.RowLo, c.RowHi = r.lo, r.hi
	if g.lowIdx >= 0 {
		c.HasLow = true
		c.Low = x.lines[g.lowIdx].Ref
	}
	if g.highIdx >= 0 {
		c.HasHigh = true
		c.High = x.lines[g.highIdx].Ref
	}
}

// buckets is a compressed list of index buckets: bucket b holds
// idx[off[b]:off[b+1]], ascending.
type buckets struct {
	off []int
	idx []int
}

// build fills n buckets from items 0..m-1, item k going into every bucket
// of span(k)'s half-open range (empty ranges drop it). Backing arrays are
// reused across calls.
func (b *buckets) build(n, m int, span func(k int) (lo, hi int)) {
	b.off = slices.Grow(b.off[:0], n+1)[:n+1]
	clear(b.off)
	for k := 0; k < m; k++ {
		lo, hi := span(k)
		for t := lo; t < hi; t++ {
			b.off[t+1]++
		}
	}
	for t := 0; t < n; t++ {
		b.off[t+1] += b.off[t]
	}
	b.idx = slices.Grow(b.idx[:0], b.off[n])[:b.off[n]]
	next := b.off[:n] // advanced in place, then shifted back below
	for k := 0; k < m; k++ {
		lo, hi := span(k)
		for t := lo; t < hi; t++ {
			b.idx[next[t]] = k
			next[t]++
		}
	}
	copy(b.off[1:], b.off[:n])
	b.off[0] = 0
}

func (b *buckets) bucket(t int) []int { return b.idx[b.off[t]:b.off[t+1]] }

// workspace is one worker's reusable sweep state.
type workspace struct {
	openStart []int64
	openLow   []int
	tileLines buckets // DefI/DefII: the stripe's lines per tile row
	tileIdx   []int
}

// clampY restricts y into the die's vertical extent (half-open).
func clampY(y int64, die geom.Rect) int64 {
	if y < die.Y1 {
		return die.Y1
	}
	if y >= die.Y2 {
		return die.Y2 - 1
	}
	return y
}

// Stats summarizes an extraction: total columns, total capacity, and how
// much capacity is attributed to at least one active line (the figure 4–6
// analog metric).
type Stats struct {
	Def        Def
	Columns    int
	Capacity   int
	Attributed int // capacity in columns with >= 1 bounding active line
	PairBound  int // capacity in columns with both bounds active lines
}

// Summarize computes extraction statistics over all tiles.
func Summarize(def Def, tiles [][]TileColumns) Stats {
	s := Stats{Def: def}
	for i := range tiles {
		for j := range tiles[i] {
			for k := range tiles[i][j].Cols {
				c := &tiles[i][j].Cols[k]
				s.Columns++
				s.Capacity += c.Capacity
				if c.HasLow || c.HasHigh {
					s.Attributed += c.Capacity
				}
				if c.HasLow && c.HasHigh {
					s.PairBound += c.Capacity
				}
			}
		}
	}
	return s
}
