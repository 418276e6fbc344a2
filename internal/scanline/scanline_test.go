package scanline

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pilfill/internal/geom"
	"pilfill/internal/layout"
)

var rule = layout.FillRule{Feature: 300, Gap: 100, Buffer: 150}

// buildLayout makes a single-layer layout with the given horizontal wires
// (each its own net, driven from the left end).
func buildLayout(die geom.Rect, wires []geom.Rect) *layout.Layout {
	l := &layout.Layout{
		Name:   "sl",
		Die:    die,
		Layers: []layout.Layer{{Name: "m3", Dir: layout.Horizontal, Width: 200}},
	}
	for _, w := range wires {
		yc := (w.Y1 + w.Y2) / 2
		width := w.Height()
		l.Nets = append(l.Nets, &layout.Net{
			Name:   "n",
			Source: layout.Pin{P: geom.Point{X: w.X1 + width/2, Y: yc}},
			Sinks:  []layout.Pin{{P: geom.Point{X: w.X2 - width/2, Y: yc}}},
			Segments: []layout.Segment{{
				Layer: 0,
				A:     geom.Point{X: w.X1 + width/2, Y: yc},
				B:     geom.Point{X: w.X2 - width/2, Y: yc},
				Width: width,
			}},
		})
	}
	return l
}

func extract(t *testing.T, l *layout.Layout, window int64, r int, def Def) ([][]TileColumns, *layout.Occupancy, *layout.Dissection) {
	t.Helper()
	d, err := layout.NewDissection(l.Die, window, r)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := layout.NewSiteGrid(l.Die, rule)
	if err != nil {
		t.Fatal(err)
	}
	occ := layout.NewOccupancy(l, grid, 0)
	tiles, err := Extract(l, 0, d, occ, def, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tiles, occ, d
}

func TestTwoLinesOneGap(t *testing.T) {
	// Two long parallel wires; between them every column is a pair-bounded
	// slack column (Fig 4's situation).
	die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
	l := buildLayout(die, []geom.Rect{
		{X1: 0, Y1: 4000, X2: 16000, Y2: 4200},
		{X1: 0, Y1: 10000, X2: 16000, Y2: 10200},
	})
	tiles, _, d := extract(t, l, 16000, 2, DefIII)
	if d.NX != 2 {
		t.Fatalf("NX = %d", d.NX)
	}
	var pair, low, high, none int
	for i := range tiles {
		for j := range tiles[i] {
			for _, c := range tiles[i][j].Cols {
				switch {
				case c.HasLow && c.HasHigh:
					pair++
					if c.Spacing() != 5800 {
						t.Fatalf("pair spacing = %d, want 5800", c.Spacing())
					}
				case c.HasHigh:
					high++ // below the bottom wire
				case c.HasLow:
					low++ // above the top wire
				default:
					none++
				}
			}
		}
	}
	if pair == 0 || high == 0 || low == 0 {
		t.Errorf("pair=%d high=%d low=%d — all should be present", pair, high, low)
	}
	if none != 0 {
		t.Errorf("none=%d — with full-width wires every column has a bound", none)
	}
}

func TestDefIDropsBoundaryColumns(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
	l := buildLayout(die, []geom.Rect{
		{X1: 0, Y1: 4000, X2: 16000, Y2: 4200},
		{X1: 0, Y1: 10000, X2: 16000, Y2: 10200},
	})
	tiles, _, _ := extract(t, l, 16000, 2, DefI)
	for i := range tiles {
		for j := range tiles[i] {
			for _, c := range tiles[i][j].Cols {
				if !c.HasLow || !c.HasHigh {
					t.Fatalf("DefI column without both bounds: %+v", c)
				}
			}
		}
	}
	sI := Summarize(DefI, tiles)
	tiles2, _, _ := extract(t, l, 16000, 2, DefII)
	sII := Summarize(DefII, tiles2)
	tiles3, _, _ := extract(t, l, 16000, 2, DefIII)
	sIII := Summarize(DefIII, tiles3)
	// Capacity ordering: I <= II and I <= III; III attributes at least as
	// much capacity as II.
	if sI.Capacity > sII.Capacity || sI.Capacity > sIII.Capacity {
		t.Errorf("capacities I=%d II=%d III=%d", sI.Capacity, sII.Capacity, sIII.Capacity)
	}
	if sIII.Attributed < sII.Attributed {
		t.Errorf("attributed III=%d < II=%d", sIII.Attributed, sII.Attributed)
	}
}

func TestDefIIBoundaryUnattributed(t *testing.T) {
	// One wire spanning the middle of a 2x2-tiled die. In DefII, columns in
	// the tile above the wire but bounded by the tile edge get no high
	// attribution; DefIII attributes the layout boundary side as none too,
	// but crucially attributes lines in *adjacent tiles*.
	die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
	l := buildLayout(die, []geom.Rect{
		{X1: 0, Y1: 7900, X2: 16000, Y2: 8100}, // wire right at the tile seam
	})
	tilesII, _, _ := extract(t, l, 8000, 1, DefII)
	tilesIII, _, _ := extract(t, l, 8000, 1, DefIII)
	sII := Summarize(DefII, tilesII)
	sIII := Summarize(DefIII, tilesIII)
	// The wire straddles the seam, so in DefII the tiles see it; but tiles
	// (0,0)/(1,0) bottom area and (0,1)/(1,1) top are boundary-bounded in
	// both definitions. Attribution must not differ by much here; the key
	// check is that DefIII never attributes less.
	if sIII.Attributed < sII.Attributed {
		t.Errorf("attributed III=%d < II=%d", sIII.Attributed, sII.Attributed)
	}
}

func TestAdjacentTileAttribution(t *testing.T) {
	// Fig 6's point: wires in adjacent tiles bound this tile's columns under
	// DefIII only. Tile column 1 (x 8000..16000) has no wires; wires live at
	// the far left and far right of the neighboring tiles.
	die := geom.Rect{X1: 0, Y1: 0, X2: 24000, Y2: 24000}
	l := buildLayout(die, []geom.Rect{
		{X1: 0, Y1: 4000, X2: 24000, Y2: 4200},
		{X1: 0, Y1: 20000, X2: 24000, Y2: 20200},
	})
	// 3x3 tiles of 8000.
	tilesII, _, _ := extract(t, l, 8000, 1, DefII)
	tilesIII, _, _ := extract(t, l, 8000, 1, DefIII)
	// Middle tile (1,1): y 8000..16000 contains no wires at all.
	midII := tilesII[1][1]
	midIII := tilesIII[1][1]
	for _, c := range midII.Cols {
		if c.HasLow || c.HasHigh {
			t.Fatalf("DefII middle tile attributed: %+v", c)
		}
	}
	attributed := 0
	for _, c := range midIII.Cols {
		if c.HasLow && c.HasHigh {
			attributed++
			if c.Spacing() != 15800 {
				t.Errorf("spacing = %d, want 15800", c.Spacing())
			}
		}
	}
	if attributed == 0 {
		t.Error("DefIII should attribute middle-tile columns to adjacent-tile wires")
	}
}

func TestCapacityExcludesBlockedSites(t *testing.T) {
	// A vertical blocker (wrong-direction segment) between two lines
	// reduces column capacity.
	die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
	l := buildLayout(die, []geom.Rect{
		{X1: 0, Y1: 4000, X2: 16000, Y2: 4200},
		{X1: 0, Y1: 10000, X2: 16000, Y2: 10200},
	})
	tilesBefore, _, _ := extract(t, l, 16000, 2, DefIII)
	before := Summarize(DefIII, tilesBefore).Capacity

	l.Nets = append(l.Nets, &layout.Net{
		Name:   "v",
		Source: layout.Pin{P: geom.Point{X: 8000, Y: 4200}},
		Sinks:  []layout.Pin{{P: geom.Point{X: 8000, Y: 10000}}},
		Segments: []layout.Segment{{
			Layer: 0,
			A:     geom.Point{X: 8000, Y: 4300},
			B:     geom.Point{X: 8000, Y: 9900},
			Width: 200,
		}},
	})
	tilesAfter, _, _ := extract(t, l, 16000, 2, DefIII)
	after := Summarize(DefIII, tilesAfter).Capacity
	if after >= before {
		t.Errorf("capacity %d not reduced by blocker (was %d)", after, before)
	}
}

func TestEmptyLayoutAllBoundary(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 8000, Y2: 8000}
	l := buildLayout(die, nil)
	tiles, occ, _ := extract(t, l, 4000, 2, DefIII)
	s := Summarize(DefIII, tiles)
	if s.Attributed != 0 {
		t.Errorf("attributed = %d on empty layout", s.Attributed)
	}
	if s.Capacity == 0 {
		t.Error("empty layout should have slack capacity")
	}
	if s.Capacity > occ.FreeSites() {
		t.Errorf("capacity %d exceeds free sites %d", s.Capacity, occ.FreeSites())
	}
}

func TestBadDef(t *testing.T) {
	die := geom.Rect{X1: 0, Y1: 0, X2: 8000, Y2: 8000}
	l := buildLayout(die, nil)
	d, _ := layout.NewDissection(die, 4000, 2)
	grid, _ := layout.NewSiteGrid(die, rule)
	occ := layout.NewOccupancy(l, grid, 0)
	if _, err := Extract(l, 0, d, occ, Def(9), 1); err == nil {
		t.Error("bad def accepted")
	}
}

// bruteCapacity computes, independently of the sweep, the DefIII capacity
// of each (tile, site column): free sites whose feature square fits fully
// inside the merged-line gap at that column, clipped to the tile.
func bruteCapacity(l *layout.Layout, d *layout.Dissection, occ *layout.Occupancy) map[[3]int]int {
	grid := occ.Grid
	lines := l.HLines(0)
	out := map[[3]int]int{}
	for c := 0; c < grid.Cols; c++ {
		fx1 := grid.SiteX(c)
		fx2 := fx1 + grid.Rule.Feature
		// Line y-intervals covering this column, merged.
		var ivs [][2]int64
		for _, ln := range lines {
			x1, x2 := ln.X1, ln.X2
			if x1 < d.Die.X1 {
				x1 = d.Die.X1
			}
			if x2 > d.Die.X2 {
				x2 = d.Die.X2
			}
			if geom.Overlap(x1, x2, fx1, fx2) > 0 {
				ivs = append(ivs, [2]int64{ln.YBot, ln.YTop})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var merged [][2]int64
		for _, iv := range ivs {
			if n := len(merged); n > 0 && iv[0] <= merged[n-1][1] {
				if iv[1] > merged[n-1][1] {
					merged[n-1][1] = iv[1]
				}
			} else {
				merged = append(merged, iv)
			}
		}
		// Gaps between merged intervals (and boundaries), clipped to die.
		var gaps [][2]int64
		prev := d.Die.Y1
		for _, iv := range merged {
			lo, hi := iv[0], iv[1]
			if lo > prev {
				gaps = append(gaps, [2]int64{prev, lo})
			}
			if hi > prev {
				prev = hi
			}
		}
		if d.Die.Y2 > prev {
			gaps = append(gaps, [2]int64{prev, d.Die.Y2})
		}
		xc := fx1 + grid.Rule.Feature/2
		ti, _ := d.TileIndex(xc, d.Die.Y1)
		for _, gp := range gaps {
			for r := 0; r < grid.Rows; r++ {
				y1 := grid.SiteY(r)
				y2 := y1 + grid.Rule.Feature
				if y1 < gp[0] || y2 > gp[1] || occ.Blocked(c, r) {
					continue
				}
				// Which tile's clip contains this site fully?
				_, tj := d.TileIndex(d.Die.X1, (y1+y2)/2)
				tr := d.TileRect(ti, tj)
				if y1 >= tr.Y1 && y2 <= tr.Y2 {
					out[[3]int{ti, tj, c}]++
				}
			}
		}
	}
	return out
}

func TestQuickDefIIIMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
		var wires []geom.Rect
		for i := 0; i < 1+rng.Intn(6); i++ {
			y := int64(500 + rng.Intn(14000))
			x1 := int64(rng.Intn(8000))
			x2 := x1 + 2000 + int64(rng.Intn(6000))
			if x2 > 15800 {
				x2 = 15800
			}
			wires = append(wires, geom.Rect{X1: x1, Y1: y, X2: x2, Y2: y + 200})
		}
		l := buildLayout(die, wires)
		d, err := layout.NewDissection(die, 8000, 2)
		if err != nil {
			return false
		}
		grid, err := layout.NewSiteGrid(die, rule)
		if err != nil {
			return false
		}
		occ := layout.NewOccupancy(l, grid, 0)
		tiles, err := Extract(l, 0, d, occ, DefIII, 1)
		if err != nil {
			return false
		}
		got := map[[3]int]int{}
		for i := range tiles {
			for j := range tiles[i] {
				for _, c := range tiles[i][j].Cols {
					got[[3]int{i, j, c.Col}] += c.Capacity
				}
			}
		}
		want := bruteCapacity(l, d, occ)
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCapacityNeverExceedsFreeSites guards double counting across
// definitions and tiles.
func TestQuickCapacityNeverExceedsFreeSites(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		die := geom.Rect{X1: 0, Y1: 0, X2: 16000, Y2: 16000}
		var wires []geom.Rect
		for i := 0; i < rng.Intn(8); i++ {
			y := int64(500 + rng.Intn(14000))
			x1 := int64(rng.Intn(10000))
			wires = append(wires, geom.Rect{X1: x1, Y1: y, X2: x1 + 3000, Y2: y + 200})
		}
		l := buildLayout(die, wires)
		d, _ := layout.NewDissection(die, 4000, 2)
		grid, _ := layout.NewSiteGrid(die, rule)
		occ := layout.NewOccupancy(l, grid, 0)
		for _, def := range []Def{DefI, DefII, DefIII} {
			tiles, err := Extract(l, 0, d, occ, def, 1)
			if err != nil {
				return false
			}
			if Summarize(def, tiles).Capacity > occ.FreeSites() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExtractDefIII(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	die := geom.Rect{X1: 0, Y1: 0, X2: 64000, Y2: 64000}
	var wires []geom.Rect
	for i := 0; i < 120; i++ {
		y := int64(500 + rng.Intn(62000))
		x1 := int64(rng.Intn(40000))
		wires = append(wires, geom.Rect{X1: x1, Y1: y, X2: x1 + 20000, Y2: y + 200})
	}
	l := buildLayout(die, wires)
	d, _ := layout.NewDissection(die, 16000, 4)
	grid, _ := layout.NewSiteGrid(die, rule)
	occ := layout.NewOccupancy(l, grid, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(l, 0, d, occ, DefIII, 1); err != nil {
			b.Fatal(err)
		}
	}
}
